// Package analyzers is the mmt-vet static-analysis suite: ten custom
// analyzers that machine-enforce the repository's determinism,
// crypto-safety and hot-path invariants.
//
// Every figure and table this repository reproduces must be a pure
// function of the seed and the internal/sim clock, and every security
// claim rests on authentication code in internal/crypt and
// internal/channel. Both properties are one careless diff away from
// silently breaking, so they are enforced by analysis rather than by
// reviewer vigilance:
//
//   - simclock: no wall-clock time or unseeded global randomness in
//     simulation code; all timing flows through internal/sim.
//   - cryptocompare: MAC/tag values from crypt.Engine must be compared
//     in constant time (crypt.TagEqual / crypto/subtle), never ==.
//   - checkverify: results of Verify*/Open/Unseal calls must be checked.
//   - nopanic: library packages return errors instead of panicking.
//   - maporder: no map iteration with order-dependent effects.
//   - parclock: par.Map/par.ForEach work units must own the sim.Clocks
//     they touch; a clock captured from the enclosing scope is shared
//     across goroutines and breaks the determinism contract.
//   - eventkind: security-ledger record sites must pass compile-time
//     constant event kinds, keeping the auditable vocabulary closed.
//   - tracectx: par.Map/par.ForEach work units must mint their own
//     causal trace roots rather than use a captured trace.Context.
//
// Two analyzers are built on the shared intra-procedural CFG/dataflow
// layer (cfg.go, dataflow.go) and see the whole module at once:
//
//   - noalloc: functions annotated //mmt:hotpath — and everything they
//     statically call within the module — must contain no allocation
//     sites on any path that can reach a success exit, statically
//     proving the 0-allocs/op claims the crypt/engine benchmarks assert
//     dynamically.
//   - lockorder: derives the global mutex-acquisition order from every
//     Lock/RLock pair and flags pairs acquired in inconsistent order,
//     plus re-acquisition of a mutex already held.
//
// MMT010 (phasecharge) and MMT012 (samplerwindow) are retired and their
// IDs are never reused: trace.Probe.Charge and SeriesConfig.WindowShift
// make the mistakes they caught impossible to write.
//
// The framework mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic) but is self-contained: the module has no
// external dependencies, so the driver loads packages with `go list
// -export` and typechecks them with go/types directly. Swapping the
// framework for x/tools later is a mechanical import change.
//
// A finding can be suppressed with a justifying comment on the same
// line (or the line above):
//
//	//mmt:allow nopanic: bounds guard; mirrors built-in slice indexing
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer.
//
// Exactly one of Run and RunModule is set: Run analyzers see one package
// at a time, RunModule analyzers (the call-graph walkers) see every
// loaded package in a single pass.
type Analyzer struct {
	// Name identifies the analyzer in output and in //mmt:allow comments.
	Name string
	// ID is the stable machine-readable diagnostic ID (MMT001…) used in
	// -json and -sarif output. IDs are append-only: an analyzer keeps its
	// ID forever so CI baselines and suppressions stay comparable.
	ID string
	// Doc is the one-paragraph description shown by mmt-vet -list.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// RunModule applies the analyzer to the whole loaded module.
	RunModule func(*ModulePass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PackageUnit is one typechecked package inside a ModulePass.
type PackageUnit struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// ModulePass carries every loaded package to a module-wide analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*PackageUnit
	Report   func(Diagnostic)
	// Suppressed reports whether a //mmt:allow comment for this analyzer
	// covers pos, and marks that comment as used. Analyzers query it to
	// prune traversals (e.g. noalloc stopping at an allowed call site)
	// without emitting a diagnostic first; Report applies the same check
	// automatically.
	Suppressed func(token.Pos) bool
}

// Reportf reports a formatted finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full mmt-vet suite in stable (ID) order. IDs are
// append-only: a retired rule's ID (MMT010, MMT012) is never reused.
func All() []*Analyzer {
	return []*Analyzer{
		SimClock,      // MMT001
		CryptoCompare, // MMT002
		CheckVerify,   // MMT003
		NoPanic,       // MMT004
		MapOrder,      // MMT005
		ParClock,      // MMT006
		EventKind,     // MMT007
		NoAlloc,       // MMT008
		LockOrder,     // MMT009
		TraceCtx,      // MMT011
	}
}

// UnusedAllowID is the pseudo-rule ID of the suppression audit: an
// //mmt:allow comment that suppressed nothing in a full run is itself a
// finding (analyzer name "unusedallow").
const UnusedAllowID = "MMT900"

// analyzerID resolves an analyzer name to its stable diagnostic ID.
func analyzerID(name string) string {
	if name == "unusedallow" {
		return UnusedAllowID
	}
	for _, a := range All() {
		if a.Name == name {
			return a.ID
		}
	}
	return "MMT000"
}

// inScope reports whether a package path is simulation/library code the
// invariants apply to: everything under mmt/internal/ except the
// analysis tooling itself, which is host-side and never contributes to
// figures or security claims.
func inScope(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "mmt/internal/") &&
		!strings.HasPrefix(pkgPath, "mmt/internal/analyzers")
}

// funcObj resolves a call's callee to its *types.Func, or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
