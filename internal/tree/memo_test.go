package tree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/trace"
)

// memoTranscript builds a tree, writes a few lines, primes the node-hash
// memo with verified path reads, applies tamper and then verifies again.
// It returns every verification result plus the tree's trace counters,
// so two implementations that differ only in what they memoise produce
// identical transcripts. tamper returns the tree and engine to verify
// with afterwards; final path reads under the original engine follow.
// Line 200 is never read before the tamper, so a verification under
// another engine hashes its leaf and interior node first.
func memoTranscript(t *testing.T, tamper func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine)) string {
	e := crypt.NewEngine(crypt.KeyFromBytes([]byte("memo")))
	sink := trace.NewSink()
	p := sink.Probe("memo")
	tr := mustNew(Geometry{Arities: []int{4, 8, 16}}, e, guaddr)
	tr.SetTrace(p)
	for _, ln := range []int{0, 17, 130, 17, 300} {
		tr.Update(e, guaddr, ln)
	}
	for _, ln := range []int{17, 300, 511} {
		if err := tr.VerifyPath(e, guaddr, ln); err != nil {
			t.Fatalf("priming read of line %d: %v", ln, err)
		}
	}
	var b strings.Builder
	tr, ve := tamper(tr, e)
	tr.SetTrace(p)
	for _, ln := range []int{17, 300, 17, 511, 200} {
		fmt.Fprintf(&b, "verify %d: %v\n", ln, tr.VerifyPath(ve, guaddr, ln))
	}
	fmt.Fprintf(&b, "verify all: %v\n", tr.VerifyAll(ve, guaddr))
	for _, ln := range []int{17, 200} {
		fmt.Fprintf(&b, "final %d: %v\n", ln, tr.VerifyPath(e, guaddr, ln))
	}
	m := sink.Snapshot()
	fmt.Fprintf(&b, "verifies=%d fails=%d rehashes=%d", m.Counter(trace.CtrTreeNodeVerifies),
		m.Counter(trace.CtrTreeNodeVerifyFails), m.Counter(trace.CtrTreeNodeRehashes))
	return b.String()
}

// TestMemoTamperTranscripts: tampering after the memo is primed is
// detected exactly as without a memo. The expected transcripts — results,
// error strings and trace counters — were recorded from the implementation
// before the node-hash memo existed. Line 17 lies under leaf (2, 1) and
// interior node (1, 0); line 300 under leaf (2, 18) and node (1, 2).
func TestMemoTamperTranscripts(t *testing.T) {
	same := func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) { return tr, e }
	cases := []struct {
		name   string
		tamper func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine)
		want   string
	}{
		{"none", same, `verify 17: <nil>
verify 300: <nil>
verify 17: <nil>
verify 511: <nil>
verify 200: <nil>
verify all: <nil>
final 17: <nil>
final 200: <nil>
verifies=67 fails=0 rehashes=15`},
		{"set-local leaf", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			n := tr.Node(2, 1)
			n.SetLocal(1, n.Local(1)+1)
			return tr, e
		}, `verify 17: tree: integrity check failed: node level 2 index 1
verify 300: <nil>
verify 17: tree: integrity check failed: node level 2 index 1
verify 511: <nil>
verify 200: <nil>
verify all: tree: integrity check failed: node level 2 index 1
final 17: tree: integrity check failed: node level 2 index 1
final 200: <nil>
verifies=31 fails=4 rehashes=15`},
		{"set-local interior", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			n := tr.Node(1, 0)
			n.SetLocal(1, n.Local(1)-1)
			return tr, e
		}, `verify 17: tree: integrity check failed: node level 2 index 1
verify 300: <nil>
verify 17: tree: integrity check failed: node level 2 index 1
verify 511: <nil>
verify 200: <nil>
verify all: tree: integrity check failed: node level 1 index 0
final 17: tree: integrity check failed: node level 2 index 1
final 200: <nil>
verifies=26 fails=4 rehashes=15`},
		{"set-global root node", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			n := tr.Node(0, 0)
			n.SetGlobal(n.Global() + 1)
			return tr, e
		}, `verify 17: tree: integrity check failed: node level 1 index 0
verify 300: tree: integrity check failed: node level 1 index 2
verify 17: tree: integrity check failed: node level 1 index 0
verify 511: tree: integrity check failed: node level 1 index 3
verify 200: tree: integrity check failed: node level 1 index 1
verify all: tree: integrity check failed: node level 0 index 0
final 17: tree: integrity check failed: node level 1 index 0
final 200: tree: integrity check failed: node level 1 index 1
verifies=24 fails=8 rehashes=15`},
		{"set-local and restore", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			n := tr.Node(2, 1)
			v := n.Local(1)
			n.SetLocal(1, v+3)
			_ = tr.VerifyPath(e, guaddr, 17)
			n.SetLocal(1, v)
			return tr, e
		}, `verify 17: <nil>
verify 300: <nil>
verify 17: <nil>
verify 511: <nil>
verify 200: <nil>
verify all: <nil>
final 17: <nil>
final 200: <nil>
verifies=68 fails=1 rehashes=15`},
		{"flipped leaf MAC", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			n := tr.Node(2, 18)
			n.SetMAC(n.MAC() ^ 1<<63)
			return tr, e
		}, `verify 17: <nil>
verify 300: tree: integrity check failed: node level 2 index 18
verify 17: <nil>
verify 511: <nil>
verify 200: <nil>
verify all: tree: integrity check failed: node level 2 index 18
final 17: <nil>
final 200: <nil>
verifies=52 fails=2 rehashes=15`},
		{"flipped interior MAC", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			n := tr.Node(1, 0)
			n.SetMAC(n.MAC() ^ 1)
			return tr, e
		}, `verify 17: tree: integrity check failed: node level 1 index 0
verify 300: <nil>
verify 17: tree: integrity check failed: node level 1 index 0
verify 511: <nil>
verify 200: <nil>
verify all: tree: integrity check failed: node level 1 index 0
final 17: tree: integrity check failed: node level 1 index 0
final 200: <nil>
verifies=29 fails=4 rehashes=15`},
		{"root counter without rehash", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			tr.SetRootCounter(tr.RootCounter() + 1)
			return tr, e
		}, `verify 17: tree: integrity check failed: node level 0 index 0
verify 300: tree: integrity check failed: node level 0 index 0
verify 17: tree: integrity check failed: node level 0 index 0
verify 511: tree: integrity check failed: node level 0 index 0
verify 200: tree: integrity check failed: node level 0 index 0
verify all: tree: integrity check failed: node level 0 index 0
final 17: tree: integrity check failed: node level 0 index 0
final 200: tree: integrity check failed: node level 0 index 0
verifies=31 fails=8 rehashes=15`},
		{"reloaded modified nodes", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			blob := tr.Serialize()
			geo := tr.Geometry()
			leaf := geo.NodeSize(0) + geo.NodesAtLevel(1)*geo.NodeSize(1) + 18*geo.NodeSize(2)
			blob[leaf+8] ^= 0x02 // slot 0's local counter of leaf (2, 18)
			nt, err := Deserialize(tr.Geometry(), blob)
			if err != nil {
				panic(err)
			}
			nt.SetRootCounter(tr.RootCounter())
			return nt, e
		}, `verify 17: <nil>
verify 300: tree: integrity check failed: node level 2 index 18
verify 17: <nil>
verify 511: <nil>
verify 200: <nil>
verify all: tree: integrity check failed: node level 2 index 18
final 17: <nil>
final 200: <nil>
verifies=52 fails=2 rehashes=15`},
		{"reloaded, other engine", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			nt, err := Deserialize(tr.Geometry(), tr.Serialize())
			if err != nil {
				panic(err)
			}
			nt.SetRootCounter(tr.RootCounter())
			return nt, crypt.NewEngine(crypt.KeyFromBytes([]byte("other")))
		}, `verify 17: tree: integrity check failed: node level 2 index 1
verify 300: tree: integrity check failed: node level 2 index 18
verify 17: tree: integrity check failed: node level 2 index 1
verify 511: tree: integrity check failed: node level 2 index 31
verify 200: tree: integrity check failed: node level 2 index 12
verify all: tree: integrity check failed: node level 0 index 0
final 17: <nil>
final 200: <nil>
verifies=21 fails=6 rehashes=15`},
		{"other engine", func(tr *Tree, e *crypt.Engine) (*Tree, *crypt.Engine) {
			return tr, crypt.NewEngine(crypt.KeyFromBytes([]byte("other")))
		}, `verify 17: tree: integrity check failed: node level 2 index 1
verify 300: tree: integrity check failed: node level 2 index 18
verify 17: tree: integrity check failed: node level 2 index 1
verify 511: tree: integrity check failed: node level 2 index 31
verify 200: tree: integrity check failed: node level 2 index 12
verify all: tree: integrity check failed: node level 0 index 0
final 17: <nil>
final 200: <nil>
verifies=21 fails=6 rehashes=15`},
	}
	for _, tc := range cases {
		if got := memoTranscript(t, tc.tamper); got != tc.want {
			t.Errorf("%s: transcript\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

// checkNodeMACs compares every stored node MAC with the composed NodeMAC
// reference, which shares neither the mask caches nor the hash memo.
func checkNodeMACs(t *testing.T, tr *Tree, e *crypt.Engine, ga uint64) {
	t.Helper()
	for l := 0; l < tr.geo.Levels(); l++ {
		for i, n := 0, tr.geo.NodesAtLevel(l); i < n; i++ {
			want := e.NodeMAC(ga, nodeID(l, i), tr.parentCounter(l, i), uint64(tr.geo.Arities[l]), tr.packed(l, i))
			if got := tr.Node(l, i).MAC(); got != want {
				t.Fatalf("node (%d,%d): MAC %#x, NodeMAC %#x", l, i, got, want)
			}
		}
	}
}

// TestMemoRandomOpsMatchNodeMAC drives a tree with 2-bit local counters
// — so leaf and interior overflows, and the sibling rehashes they force,
// happen often — through a seeded mix of updates, path reads, root bumps
// and full verifications, and checks after every op that each stored
// node MAC equals a fresh NodeMAC.
func TestMemoRandomOpsMatchNodeMAC(t *testing.T) {
	e := testEngine()
	tr := mustNew(Geometry{Arities: []int{2, 4, 8}, LocalBits: 2}, e, guaddr)
	rng := rand.New(rand.NewSource(13))
	lines := tr.Geometry().Lines()
	overflows := 0
	for op := 0; op < 2000; op++ {
		ln := rng.Intn(lines)
		if rng.Intn(4) == 0 {
			ln %= 4 // a hot corner, so its counters overflow
		}
		switch k := rng.Intn(10); {
		case k < 5:
			if tr.Update(e, guaddr, ln).Overflowed {
				overflows++
			}
		case k < 8:
			if err := tr.VerifyPath(e, guaddr, ln); err != nil {
				t.Fatalf("op %d: read line %d: %v", op, ln, err)
			}
		case k < 9:
			tr.BumpRootCounter(e, guaddr)
		default:
			if err := tr.VerifyAll(e, guaddr); err != nil {
				t.Fatalf("op %d: verify all: %v", op, err)
			}
		}
		checkNodeMACs(t, tr, e, guaddr)
	}
	if overflows == 0 {
		t.Fatal("no counter overflow happened; the geometry no longer exercises it")
	}
}
