package engine

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// memoController builds a traced controller over a 512-line geometry
// (arities 4, 8, 16) with two regions.
func memoController(t testing.TB, geo tree.Geometry) (*Controller, *trace.Sink) {
	t.Helper()
	m := mem.New(mem.Config{Size: 2 * geo.DataSize(), RegionSize: geo.DataSize(), MetaPerRegion: geo.MetaSize()})
	c, err := New(m, geo, nil, sim.Gem5Profile())
	if err != nil {
		t.Fatal(err)
	}
	sink := trace.NewSink()
	c.SetTrace(sink.Probe("memo"))
	return c, sink
}

// engineMemoTranscript enables a region, writes a few lines, primes the
// tree's node-hash memo with verified reads, applies tamper and reads and
// writes again. It returns every result (with a checksum of the data
// read), the scrub result and every nonzero trace counter, so two
// implementations that differ only in what they memoise produce identical
// transcripts. tamper may append its own results to the transcript. Line
// 200 is never read before the tamper.
func engineMemoTranscript(t *testing.T, tamper func(c *Controller, b *strings.Builder)) string {
	c, sink := memoController(t, tree.Geometry{Arities: []int{4, 8, 16}})
	fill(c, 0, 9)
	if err := c.Enable(0, testKey, 0x51, 3); err != nil {
		t.Fatal(err)
	}
	line := make([]byte, LineSize)
	for k, ln := range []int{0, 17, 130, 17, 300} {
		line[k] = byte(ln)
		if err := c.Write(0, ln, line); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	read := func(ln int) {
		err := c.ReadInto(0, ln, line)
		fmt.Fprintf(&b, "read %d: %v crc=%08x\n", ln, err, crc32.ChecksumIEEE(line))
	}
	for _, ln := range []int{17, 300, 511} {
		if err := c.ReadInto(0, ln, line); err != nil {
			t.Fatalf("priming read of line %d: %v", ln, err)
		}
	}
	tamper(c, &b)
	for _, ln := range []int{17, 300, 17, 511, 200} {
		read(ln)
	}
	fmt.Fprintf(&b, "write 17: %v\n", c.Write(0, 17, bytes.Repeat([]byte{0xEE}, LineSize)))
	read(17)
	fmt.Fprintf(&b, "scrub: %v\n", c.VerifyRegions([]int{0}, 1))
	m := sink.Snapshot()
	var counts []string
	for ctr := trace.Counter(0); ctr < trace.NumCounters; ctr++ {
		if v := m.Counter(ctr); v != 0 {
			counts = append(counts, fmt.Sprintf("%v=%d", ctr, v))
		}
	}
	b.WriteString(strings.Join(counts, " "))
	return b.String()
}

// TestEngineMemoTamperTranscripts: tampering with the tree after the
// node-hash memo is primed by verified reads is detected exactly as
// without a memo. The expected transcripts — results, error strings, data
// checksums and trace counters — were recorded from the implementation
// before the memo existed. Line 17 lies under leaf (2, 1) and interior
// node (1, 0); line 300 under leaf (2, 18) and node (1, 2).
func TestEngineMemoTamperTranscripts(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(c *Controller, b *strings.Builder)
		want   string
	}{
		{"none", func(*Controller, *strings.Builder) {}, `read 17: <nil> crc=869ad338
read 300: <nil> crc=cd582ecd
read 17: <nil> crc=869ad338
read 511: <nil> crc=e87257fa
read 200: <nil> crc=82a668b9
write 17: <nil>
read 17: <nil> crc=f8e50eb7
scrub: <nil>
tree-node-walks=45 mac-verifies=523 mac-updates=18 node-cache-hits=34 node-cache-misses=11 root-mounts=1 tree-node-verifies=82 tree-node-rehashes=55`},
		{"set-local leaf", func(c *Controller, _ *strings.Builder) {
			n := c.Tree(0).Node(2, 1)
			n.SetLocal(1, n.Local(1)+1)
		}, `read 17: tree: integrity check failed: node level 2 index 1 crc=e87257fa
read 300: <nil> crc=cd582ecd
read 17: tree: integrity check failed: node level 2 index 1 crc=cd582ecd
read 511: <nil> crc=e87257fa
read 200: <nil> crc=82a668b9
write 17: tree: integrity check failed: node level 2 index 1
read 17: tree: integrity check failed: node level 2 index 1 crc=82a668b9
scrub: region 0: tree: integrity check failed: node level 2 index 1
tree-node-walks=42 mac-verifies=11 mac-updates=15 node-cache-hits=31 node-cache-misses=11 root-mounts=1 tree-node-verifies=37 tree-node-verify-fails=4 tree-node-rehashes=52`},
		{"set-global interior", func(c *Controller, _ *strings.Builder) {
			n := c.Tree(0).Node(1, 2)
			n.SetGlobal(n.Global() + 1)
		}, `read 17: <nil> crc=869ad338
read 300: tree: integrity check failed: node level 2 index 18 crc=869ad338
read 17: <nil> crc=869ad338
read 511: <nil> crc=e87257fa
read 200: <nil> crc=82a668b9
write 17: <nil>
read 17: <nil> crc=f8e50eb7
scrub: region 0: tree: integrity check failed: node level 1 index 2
tree-node-walks=45 mac-verifies=11 mac-updates=18 node-cache-hits=34 node-cache-misses=11 root-mounts=1 tree-node-verifies=43 tree-node-verify-fails=1 tree-node-rehashes=55`},
		{"flipped node MAC", func(c *Controller, _ *strings.Builder) {
			n := c.Tree(0).Node(2, 18)
			n.SetMAC(n.MAC() ^ 1<<40)
		}, `read 17: <nil> crc=869ad338
read 300: tree: integrity check failed: node level 2 index 18 crc=869ad338
read 17: <nil> crc=869ad338
read 511: <nil> crc=e87257fa
read 200: <nil> crc=82a668b9
write 17: <nil>
read 17: <nil> crc=f8e50eb7
scrub: region 0: tree: integrity check failed: node level 2 index 18
tree-node-walks=45 mac-verifies=11 mac-updates=18 node-cache-hits=34 node-cache-misses=11 root-mounts=1 tree-node-verifies=43 tree-node-verify-fails=1 tree-node-rehashes=55`},
		{"root counter without rehash", func(c *Controller, _ *strings.Builder) {
			c.Tree(0).SetRootCounter(c.RootCounter(0) + 1)
		}, `read 17: tree: integrity check failed: node level 0 index 0 crc=e87257fa
read 300: tree: integrity check failed: node level 0 index 0 crc=e87257fa
read 17: tree: integrity check failed: node level 0 index 0 crc=e87257fa
read 511: tree: integrity check failed: node level 0 index 0 crc=e87257fa
read 200: tree: integrity check failed: node level 0 index 0 crc=e87257fa
write 17: tree: integrity check failed: node level 0 index 0
read 17: tree: integrity check failed: node level 0 index 0 crc=e87257fa
scrub: region 0: tree: integrity check failed: node level 0 index 0
tree-node-walks=42 mac-verifies=11 mac-updates=15 node-cache-hits=31 node-cache-misses=11 root-mounts=1 tree-node-verifies=45 tree-node-verify-fails=7 tree-node-rehashes=52`},
		{"load unmodified meta", func(c *Controller, b *strings.Builder) {
			c.FlushMeta(0)
			fmt.Fprintf(b, "load: %v\n", c.LoadMeta(0))
		}, `load: <nil>
read 17: <nil> crc=869ad338
read 300: <nil> crc=cd582ecd
read 17: <nil> crc=869ad338
read 511: <nil> crc=e87257fa
read 200: <nil> crc=82a668b9
write 17: <nil>
read 17: <nil> crc=f8e50eb7
scrub: <nil>
tree-node-walks=45 mac-verifies=531 mac-updates=18 node-cache-hits=26 node-cache-misses=19 root-mounts=1 tree-node-verifies=82 tree-node-rehashes=55`},
		{"load modified meta", func(c *Controller, b *strings.Builder) {
			c.FlushMeta(0)
			geo := c.Geometry()
			leaf := geo.NodeSize(0) + geo.NodesAtLevel(1)*geo.NodeSize(1) + geo.NodeSize(2)
			c.Memory().MetaRegion(0)[leaf+8+2]++ // slot 1's local counter of leaf (2, 1)
			fmt.Fprintf(b, "load: %v\n", c.LoadMeta(0))
		}, `load: <nil>
read 17: tree: integrity check failed: node level 2 index 1 crc=e87257fa
read 300: <nil> crc=cd582ecd
read 17: tree: integrity check failed: node level 2 index 1 crc=cd582ecd
read 511: <nil> crc=e87257fa
read 200: <nil> crc=82a668b9
write 17: tree: integrity check failed: node level 2 index 1
read 17: tree: integrity check failed: node level 2 index 1 crc=82a668b9
scrub: region 0: tree: integrity check failed: node level 2 index 1
tree-node-walks=42 mac-verifies=19 mac-updates=15 node-cache-hits=23 node-cache-misses=19 root-mounts=1 tree-node-verifies=37 tree-node-verify-fails=4 tree-node-rehashes=52`},
		{"load meta, other engine", func(c *Controller, b *strings.Builder) {
			c.FlushMeta(0)
			fmt.Fprintf(b, "load: %v\n", c.LoadMeta(0))
			other := crypt.NewEngine(crypt.KeyFromBytes([]byte("other")))
			fmt.Fprintf(b, "other path: %v\n", c.Tree(0).VerifyPath(other, c.GUAddr(0), 17))
		}, `load: <nil>
other path: tree: integrity check failed: node level 2 index 1
read 17: <nil> crc=869ad338
read 300: <nil> crc=cd582ecd
read 17: <nil> crc=869ad338
read 511: <nil> crc=e87257fa
read 200: <nil> crc=82a668b9
write 17: <nil>
read 17: <nil> crc=f8e50eb7
scrub: <nil>
tree-node-walks=45 mac-verifies=531 mac-updates=18 node-cache-hits=26 node-cache-misses=19 root-mounts=1 tree-node-verifies=83 tree-node-verify-fails=1 tree-node-rehashes=55`},
		{"other engine", func(c *Controller, b *strings.Builder) {
			other := crypt.NewEngine(crypt.KeyFromBytes([]byte("other")))
			fmt.Fprintf(b, "other path: %v\n", c.Tree(0).VerifyPath(other, c.GUAddr(0), 17))
			fmt.Fprintf(b, "other unread path: %v\n", c.Tree(0).VerifyPath(other, c.GUAddr(0), 200))
			fmt.Fprintf(b, "other all: %v\n", c.Tree(0).VerifyAll(other, c.GUAddr(0)))
		}, `other path: tree: integrity check failed: node level 2 index 1
other unread path: tree: integrity check failed: node level 2 index 12
other all: tree: integrity check failed: node level 0 index 0
read 17: <nil> crc=869ad338
read 300: <nil> crc=cd582ecd
read 17: <nil> crc=869ad338
read 511: <nil> crc=e87257fa
read 200: <nil> crc=82a668b9
write 17: <nil>
read 17: <nil> crc=f8e50eb7
scrub: <nil>
tree-node-walks=45 mac-verifies=523 mac-updates=18 node-cache-hits=34 node-cache-misses=11 root-mounts=1 tree-node-verifies=85 tree-node-verify-fails=3 tree-node-rehashes=55`},
	}
	for _, tc := range cases {
		if got := engineMemoTranscript(t, tc.tamper); got != tc.want {
			t.Errorf("%s: transcript\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

// TestRandomOpsMatchOracles drives a region with 2-bit local counters —
// so leaf and interior overflows and the sibling re-encryptions they
// force happen often — through a seeded mix of writes, reads, root
// bumps and scrubs. After every op each node MAC must
// equal a fresh NodeMAC over the node's counters, each line MAC a fresh
// LineMAC, and each line must decrypt to the shadow plaintext.
func TestRandomOpsMatchOracles(t *testing.T) {
	geo := tree.Geometry{Arities: []int{2, 4, 8}, LocalBits: 2}
	c, _ := memoController(t, geo)
	fill(c, 0, 5)
	shadow := append([]byte(nil), c.Memory().RegionData(0)...)
	const guaddr = 0x77
	if err := c.Enable(0, testKey, guaddr, 1); err != nil {
		t.Fatal(err)
	}
	eng, err := c.Crypto(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	buf := make([]byte, LineSize)
	for op := 0; op < 1500; op++ {
		ln := rng.Intn(geo.Lines())
		if rng.Intn(3) == 0 {
			ln %= 8 // a hot leaf, so its counters overflow
		}
		switch k := rng.Intn(10); {
		case k < 5:
			want := shadow[ln*LineSize : (ln+1)*LineSize]
			rng.Read(want[:rng.Intn(LineSize)+1])
			if err := c.Write(0, ln, want); err != nil {
				t.Fatalf("op %d: write line %d: %v", op, ln, err)
			}
		case k < 8:
			if err := c.ReadInto(0, ln, buf); err != nil {
				t.Fatalf("op %d: read line %d: %v", op, ln, err)
			}
		case k < 9:
			if err := c.BumpRootCounter(0); err != nil {
				t.Fatal(err)
			}
		default:
			if err := c.VerifyRegions([]int{0}, 1); err != nil {
				t.Fatalf("op %d: scrub: %v", op, err)
			}
		}
		checkOracles(t, c, eng, guaddr, shadow)
	}
	if c.Stats().ReencryptedLines == 0 {
		t.Fatal("no sibling re-encryption happened; the geometry no longer exercises it")
	}
}

// checkOracles recomputes every node MAC of region 0 with NodeMAC from
// the counters the tree exposes, every line MAC with LineMAC, and checks
// each line decrypts to shadow.
func checkOracles(t *testing.T, c *Controller, eng *crypt.Engine, guaddr uint64, shadow []byte) {
	t.Helper()
	tr := c.Tree(0)
	geo := tr.Geometry()
	counter := func(n tree.NodeRef, s int) uint64 { return n.Global()<<geo.LocalBits | n.Local(s) }
	for l := 0; l < geo.Levels(); l++ {
		for i := 0; i < geo.NodesAtLevel(l); i++ {
			n := tr.Node(l, i)
			packed := make([]uint64, 1+(n.Arity()+3)/4)
			packed[0] = n.Global()
			for s := 0; s < n.Arity(); s++ {
				packed[1+s/4] |= n.Local(s) << (16 * uint(s%4))
			}
			pc := tr.RootCounter()
			if l > 0 {
				pc = counter(tr.Node(l-1, i/geo.Arities[l-1]), i%geo.Arities[l-1])
			}
			want := eng.NodeMAC(guaddr, uint32(l)<<24|uint32(i), pc, uint64(n.Arity()), packed)
			if n.MAC() != want {
				t.Fatalf("node (%d,%d): MAC %#x, NodeMAC %#x", l, i, n.MAC(), want)
			}
		}
	}
	for ln := 0; ln < geo.Lines(); ln++ {
		tw := crypt.Tweak{GUAddr: guaddr, Line: uint32(ln), Counter: tr.LeafCounter(ln)}
		ct, mac := c.LineState(0, ln)
		if want := eng.LineMAC(tw, ct); mac != want {
			t.Fatalf("line %d: MAC %#x, LineMAC %#x", ln, mac, want)
		}
		var pt [LineSize]byte
		var s crypt.Scratch
		eng.DecryptLineInto(tw, ct, pt[:], &s)
		if !bytes.Equal(pt[:], shadow[ln*LineSize:(ln+1)*LineSize]) {
			t.Fatalf("line %d decrypts to the wrong plaintext", ln)
		}
	}
}
