package analyzers

// The lockorder analyzer derives a global mutex-acquisition order from
// every sync.Mutex/sync.RWMutex Lock and RLock site in the module and
// flags the two ways the order can go wrong before the ROADMAP's sharded
// caches multiply the lock count:
//
//   - inconsistent order: some execution path acquires A then B while
//     another acquires B then A — the classic ABBA deadlock shape;
//   - re-acquisition: a path acquires a mutex while an acquisition of
//     the same mutex is still held (self-deadlock with Go's
//     non-reentrant mutexes, unless the two acquisitions are provably
//     distinct instances — which is what an //mmt:allow lockorder
//     justification must argue).
//
// Mutexes are named by their declaration site, not their instance:
// pkg.Type.field for a mutex field reached through a named struct,
// pkg.var for a package-level mutex, and function-local names for the
// rest. Two instances of the same field share a name — exactly the
// granularity a global order policy is written at.
//
// Held sets are propagated through each function's CFG with a forward
// may-analysis (a lock is "held" at a point if any path holds it) and
// across calls with transitive acquisition summaries computed to
// fixpoint over the module call graph: calling f while holding A adds
// A -> x for every lock x that f may acquire. Deferred unlocks do not
// release — the lock really is held until return, which is the window
// that matters for ordering. Function literals are not traversed
// (worker-pool closures own their locks; see parclock for the analogous
// clock discipline).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var LockOrder = &Analyzer{
	Name: "lockorder",
	ID:   "MMT009",
	Doc: "derive the global mutex-acquisition order from all Lock/RLock sites " +
		"and flag pairs acquired in inconsistent order or re-acquired while held",
	RunModule: runLockOrder,
}

// lockEdge records "from was held when to was acquired" with the
// earliest position witnessing it.
type lockEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(pass *ModulePass) error {
	idx := buildFuncIndex(pass.Fset, pass.Units)

	// Transitive acquisition summaries: funcKey -> set of lock names the
	// function may acquire, directly or via callees. Fixpoint over the
	// (static) call graph.
	summaries := map[funcKey]factSet{}
	for _, key := range idx.order {
		summaries[key] = factSet{}
	}
	for changed := true; changed; {
		changed = false
		for _, key := range idx.order {
			f := idx.funcs[key]
			sum := summaries[key]
			before := len(sum)
			ast.Inspect(f.decl.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					if name, op := lockOp(f.unit, n); op == "Lock" || op == "RLock" {
						sum[name] = true
					} else if callee, calleeKey := idx.lookupCall(f.unit, n); callee != nil {
						for l := range summaries[calleeKey] {
							sum[l] = true
						}
					}
				}
				return true
			})
			if len(sum) != before {
				changed = true
			}
		}
	}

	// Per-function may-analysis of held sets; collect edges and
	// re-acquisitions.
	edges := map[string]*lockEdge{}
	addEdge := func(from, to string, pos token.Pos) {
		k := from + "\x00" + to
		if e, ok := edges[k]; !ok || pass.Fset.Position(pos).Filename < pass.Fset.Position(e.pos).Filename ||
			(pass.Fset.Position(pos).Filename == pass.Fset.Position(e.pos).Filename && pos < e.pos) {
			edges[k] = &lockEdge{from: from, to: to, pos: pos}
		}
	}

	for _, key := range idx.order {
		f := idx.funcs[key]
		if !inScope(f.unit.Pkg.Path()) {
			continue
		}
		cfg := buildCFG(f.decl.Body, func(call *ast.CallExpr) bool { return isPanicCall(f.unit.TypesInfo, call) })
		transfer := func(blk *cfgBlock, in factSet) factSet {
			return lockTransfer(pass, idx, summaries, f, blk, in, nil)
		}
		ins := solveForward(cfg, factSet{}, transfer)
		// Reporting pass with converged inputs.
		for _, blk := range cfg.blocks {
			in, ok := ins[blk]
			if !ok {
				continue
			}
			lockTransfer(pass, idx, summaries, f, blk, in, addEdge)
		}
	}

	// Conflicts: A->B and B->A both witnessed. Deterministic iteration
	// via sorted keys; the driver re-sorts findings by position anyway.
	keys := make([]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := edges[k]
		if e.from >= e.to {
			continue // each unordered pair once; self-edges reported at Lock sites
		}
		r, ok := edges[e.to+"\x00"+e.from]
		if !ok {
			continue
		}
		pass.Reportf(e.pos, "lock order conflict: %s acquired while holding %s here, but the opposite order at %s",
			e.to, e.from, pass.Fset.Position(r.pos))
		pass.Reportf(r.pos, "lock order conflict: %s acquired while holding %s here, but the opposite order at %s",
			r.to, r.from, pass.Fset.Position(e.pos))
	}
	return nil
}

// lockTransfer is the block transfer function: it threads the held set
// through blk's statements in order. When report is non-nil it also
// emits edges and re-acquisition diagnostics (the converged pass).
func lockTransfer(pass *ModulePass, idx *funcIndex, summaries map[funcKey]factSet, f *indexedFunc, blk *cfgBlock, in factSet, report func(from, to string, pos token.Pos)) factSet {
	held := in.clone()
	for _, node := range blk.nodes {
		if _, ok := node.(*ast.DeferStmt); ok {
			continue // deferred unlocks release at return, not here
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				name, op := lockOp(f.unit, n)
				switch op {
				case "Lock", "RLock":
					if report != nil {
						if held[name] {
							pass.Reportf(n.Pos(), "mutex %s acquired while an acquisition of %s is still held (self-deadlock unless provably distinct instances)", name, name)
						}
						for h := range held {
							if h != name {
								report(h, name, n.Pos())
							}
						}
					}
					held[name] = true
				case "Unlock", "RUnlock":
					delete(held, name)
				default:
					if callee, calleeKey := idx.lookupCall(f.unit, n); callee != nil {
						if report != nil && len(held) > 0 {
							for l := range summaries[calleeKey] {
								for h := range held {
									if h != l {
										report(h, l, n.Pos())
									} else if !pass.Suppressed(n.Pos()) {
										pass.Reportf(n.Pos(), "call to %s may re-acquire %s which is already held here", calleeKey, l)
									}
								}
							}
						}
					}
				}
			}
			return true
		})
	}
	return held
}

// lockOp classifies a call as a mutex operation, returning the lock's
// canonical name and the method name, or "" when it is not one.
func lockOp(unit *PackageUnit, call *ast.CallExpr) (name, op string) {
	se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := unit.TypesInfo.Uses[se.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	if tn := namedRecv(recvTypeOf(fn)); tn == nil || (tn.Name() != "Mutex" && tn.Name() != "RWMutex") {
		return "", ""
	}
	return canonLock(unit, se.X), fn.Name()
}

func recvTypeOf(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// canonLock names the mutex operand by declaration site.
func canonLock(unit *PackageUnit, x ast.Expr) string {
	x = ast.Unparen(x)
	info := unit.TypesInfo
	// Promoted embedding: x itself is the enclosing struct.
	if t := info.Types[x].Type; t != nil {
		if tn := namedRecv(t); tn != nil && tn.Pkg() != nil && tn.Name() != "Mutex" && tn.Name() != "RWMutex" {
			return tn.Pkg().Name() + "." + tn.Name() + ".(embedded)"
		}
	}
	switch x := x.(type) {
	case *ast.SelectorExpr:
		// parent.field: name by the parent's named type.
		if pt := info.Types[x.X].Type; pt != nil {
			if tn := namedRecv(pt); tn != nil && tn.Pkg() != nil {
				return tn.Pkg().Name() + "." + tn.Name() + "." + x.Sel.Name
			}
		}
		return "anon." + x.Sel.Name
	case *ast.Ident:
		obj := info.Uses[x]
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + x.Name
		}
		return "local." + x.Name
	}
	// Unnameable operand (map element, call result, …): fall back to the
	// rendering, prefixed so distinct shapes cannot collide with fields.
	return "expr." + types.ExprString(x)
}
