package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mmt"
	"mmt/internal/store"
)

const (
	lineSize  = 64
	bufSize   = 2 << 20
	bufLines  = bufSize / lineSize
	liveBufs  = 6       // buffers kept live by access and persist
	zipfS     = 1.1     // access skew exponent over each buffer's lines
	writeFrac = 0.3     // share of access ops that are writes
	partFrac  = 0.25    // share of access writes that cover part of a line
	linePool  = 4096    // distinct seeded payload lines for single-line writes
	seqLen    = 1 << 18 // seeded access ops; a run cycles through them
	dirtyPer  = 512     // single-line writes per persist op
	readBack  = 8       // a persist op reads back every readBack-th line it wrote
	sampleCap = 1 << 16 // latencies kept per series
)

// errMismatch marks a read-back that differs from the shadow copy: the
// program returned wrong bytes, so the run is incorrect.
var errMismatch = errors.New("read-back differs from shadow copy")

// bench is the state one workload run shares: where timings go, the
// span recorder (nil when untraced) and the scratch directory.
type bench struct {
	rec     *recorder
	dir     string // scratch directory inside the checkout
	tracing *mmt.TraceSink

	opLat, readLat, writeLat *samples // µs; read/write are per 64-byte line
	restoreMs                []float64
	inCalls                  time.Duration // time inside public calls during the current op
	restoring                bool          // restore checks: their reads are not read latency
	ops, failed              uint64
	linesWritten             uint64
	mismatch                 error

	// Traced runs only: store data-file growth over delta checkpoints
	// and the distinct bytes those checkpoints made durable.
	storeGrowth, dirtyBytes uint64
}

func newBench(dir string) *bench {
	return &bench{
		dir:      dir,
		opLat:    newSamples(sampleCap),
		readLat:  newSamples(sampleCap),
		writeLat: newSamples(sampleCap),
	}
}

// call is one timed public call: its start and its span (-1 untraced).
type call struct {
	start time.Time
	span  int
}

func (b *bench) begin(name string, lines int) call {
	t := time.Now()
	if b.rec == nil {
		return call{t, -1}
	}
	return call{t, b.rec.begin(name, lines, t)}
}

func (b *bench) end(c call) time.Duration {
	t := time.Now()
	if c.span >= 0 {
		b.rec.end(c.span, t)
	}
	d := t.Sub(c.start)
	b.inCalls += d
	return d
}

// beginOp starts an op: it zeroes the time spent in calls and, when
// traced, opens the op span.
func (b *bench) beginOp(name string) {
	b.inCalls = 0
	if b.rec != nil {
		b.rec.beginOp(name, time.Now())
	}
}

// endOp closes the op and returns the time it spent inside public calls:
// an op's latency excludes the benchmark's own checking between calls.
func (b *bench) endOp() time.Duration {
	if b.rec != nil {
		b.rec.endOp(time.Now())
	}
	return b.inCalls
}

// check compares a read-back with the shadow copy.
func (b *bench) check(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	err := fmt.Errorf("%s: %w", what, errMismatch)
	if b.mismatch == nil {
		b.mismatch = err
	}
	return err
}

// options adds WithTracing when the run is traced.
func (b *bench) options(opts ...mmt.Option) []mmt.Option {
	if b.tracing != nil {
		opts = append(opts, mmt.WithTracing(b.tracing))
	}
	return opts
}

// pair is the two-machine topology every workload uses: one enclave on
// each machine joined by one link.
type pair struct {
	c                *mmt.Cluster
	sender, receiver *mmt.Enclave
	link             *mmt.Link
}

func (b *bench) newPair(opts ...mmt.Option) (*pair, error) {
	c0 := b.begin("mmt.New", 0)
	c, err := mmt.New(b.options(opts...)...)
	b.end(c0)
	if err != nil {
		return nil, err
	}
	p := &pair{c: c}
	var encl [2]*mmt.Enclave
	for i, name := range []string{"alice", "bob"} {
		c1 := b.begin("mmt.AddMachine", 0)
		m, err := c.AddMachine(name)
		b.end(c1)
		if err != nil {
			return nil, err
		}
		encl[i] = m.Spawn(name+"-enclave", nil)
	}
	p.sender, p.receiver = encl[0], encl[1]
	c2 := b.begin("mmt.Connect", 0)
	p.link, err = c.Connect(p.sender, p.receiver)
	b.end(c2)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// close closes the cluster once; a nil pair is already closed.
func (p *pair) close() error {
	if p == nil {
		return nil
	}
	return p.c.Close()
}

func (b *bench) newBuffer(l *mmt.Link, e *mmt.Enclave) (*mmt.Buffer, error) {
	c := b.begin("mmt.NewBuffer", 0)
	buf, err := l.NewBuffer(e)
	b.end(c)
	return buf, err
}

// newLive allocates liveBufs buffers, alternately on the sender and the
// receiver, and returns them with their owners.
func (b *bench) newLive(p *pair) ([]*mmt.Buffer, []*mmt.Enclave, error) {
	var bufs []*mmt.Buffer
	var owners []*mmt.Enclave
	for i := 0; i < liveBufs; i++ {
		owner := p.sender
		if i%2 == 1 {
			owner = p.receiver
		}
		buf, err := b.newBuffer(p.link, owner)
		if err != nil {
			return nil, nil, err
		}
		bufs, owners = append(bufs, buf), append(owners, owner)
	}
	return bufs, owners, nil
}

// fillLive writes fill[i] into bufs[i] and returns the shadow copies.
func fillLive(bufs []*mmt.Buffer, fill [][]byte) ([][]byte, error) {
	shadow := make([][]byte, len(bufs))
	for i, buf := range bufs {
		if err := buf.Write(0, fill[i]); err != nil {
			return nil, err
		}
		shadow[i] = append([]byte(nil), fill[i]...)
	}
	return shadow, nil
}

// write writes p at off and records the per-line latency.
func (b *bench) write(buf *mmt.Buffer, off int, p []byte) error {
	lines := linesOf(off, len(p))
	c := b.begin("mmt.Write", lines)
	err := buf.Write(off, p)
	b.writeLat.add(us(b.end(c)) / float64(lines))
	b.linesWritten += uint64(lines)
	return err
}

// read reads len(want) bytes at off and checks them against want. Unless
// it is a restore check, it records the per-line latency.
func (b *bench) read(what string, buf *mmt.Buffer, off int, want []byte) error {
	lines := linesOf(off, len(want))
	c := b.begin("mmt.Read", lines)
	got, err := buf.Read(off, len(want))
	if d := b.end(c); !b.restoring {
		b.readLat.add(us(d) / float64(lines))
	}
	if err != nil {
		return err
	}
	return b.check(what, got, want)
}

func linesOf(off, n int) int {
	if n == 0 {
		return 1
	}
	return (off+n-1)/lineSize - off/lineSize + 1
}

// workload is one closed-loop client: setup is timed as set-up, prepare
// is untimed, op is one timed operation, closing releases what it holds.
type workload interface {
	name() string
	setup(b *bench) error
	prepare(b *bench) error
	op(b *bench, i uint64) error
	// after runs the timed steps scheduled after op i and reports
	// whether there were any.
	after(b *bench, i uint64) (bool, error)
	finish(b *bench) error
	// benchBytes is the heap the workload's own inputs and shadows hold.
	benchBytes() int
	// close releases the cluster, if one is open.
	close() error
}

var workloadNames = []string{"delegate", "access", "persist"}

// newWorkload builds the named workload's inputs from seed; the name is
// one of workloadNames.
func newWorkload(name string, seed int64) workload {
	switch name {
	case "delegate":
		return newDelegate(seed)
	case "access":
		return newAccess(seed)
	}
	return newPersist(seed, 16)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func randBytes(r *rand.Rand, n int) []byte {
	p := make([]byte, n)
	r.Read(p)
	return p
}

// ---------------------------------------------------------------------
// delegate: create, fill, delegate, receive, read back, free — the
// paper's headline operation as a user calls it.

type delegate struct {
	payloads [][]byte
	p        *pair
}

func newDelegate(seed int64) *delegate {
	r := newRand(seed)
	w := &delegate{}
	for i := 0; i < 3; i++ {
		w.payloads = append(w.payloads, randBytes(r, bufSize))
	}
	return w
}

func (w *delegate) name() string { return "delegate" }

func (w *delegate) benchBytes() int { return len(w.payloads) * bufSize }

func (w *delegate) setup(b *bench) error {
	var err error
	w.p, err = b.newPair(mmt.WithRegions(4))
	return err
}

func (w *delegate) prepare(b *bench) error { return w.op(b, 0) }

func (w *delegate) op(b *bench, i uint64) error {
	payload := w.payloads[i%uint64(len(w.payloads))]
	buf, err := b.newBuffer(w.p.link, w.p.sender)
	if err != nil {
		return err
	}
	if err := b.write(buf, 0, payload); err != nil {
		return err
	}
	c := b.begin("mmt.Delegate", 0)
	err = w.p.link.Delegate(buf, mmt.OwnershipTransfer)
	b.end(c)
	if err != nil {
		return err
	}
	c = b.begin("mmt.Receive", 0)
	got, err := w.p.link.Receive(w.p.receiver)
	b.end(c)
	if err != nil {
		return err
	}
	if err := b.read("delegated buffer", got, 0, payload); err != nil {
		return err
	}
	c = b.begin("mmt.Free", 0)
	err = got.Free()
	b.end(c)
	return err
}

func (w *delegate) after(b *bench, i uint64) (bool, error) { return false, nil }

func (w *delegate) finish(b *bench) error { return nil }

func (w *delegate) close() error {
	err := w.p.close()
	w.p = nil
	return err
}

// ---------------------------------------------------------------------
// access: single-line Read and Write calls on six live buffers, with
// Zipf-skewed line offsets so a hot set stays cached and a tail misses.

type accessOp struct {
	write   bool
	buf     uint8
	line    uint16
	lo, n   uint8 // byte range inside the line; n == lineSize is a full line
	payload uint16
}

type access struct {
	seq    []accessOp
	pool   []byte // linePool seeded lines
	fill   [][]byte
	shadow [][]byte
	bufs   []*mmt.Buffer
	p      *pair
}

// accessSeq generates the seeded op sequence; layers.go replays the same
// sequence against the engine and tree.
func accessSeq(r *rand.Rand, n int) []accessOp {
	perms := make([][]int, liveBufs)
	for i := range perms {
		perms[i] = r.Perm(bufLines)
	}
	zipf := rand.NewZipf(r, zipfS, 1, bufLines-1)
	seq := make([]accessOp, n)
	for i := range seq {
		o := accessOp{buf: uint8(r.Intn(liveBufs)), n: lineSize}
		o.line = uint16(perms[o.buf][zipf.Uint64()])
		if r.Float64() < writeFrac {
			o.write = true
			o.payload = uint16(r.Intn(linePool))
			if r.Float64() < partFrac {
				o.lo = uint8(r.Intn(lineSize - 1))
				o.n = uint8(1 + r.Intn(lineSize-1-int(o.lo)))
			}
		}
		seq[i] = o
	}
	return seq
}

func newAccess(seed int64) *access {
	r := newRand(seed)
	w := &access{seq: accessSeq(r, seqLen), pool: randBytes(r, linePool*lineSize)}
	for i := 0; i < liveBufs; i++ {
		w.fill = append(w.fill, randBytes(r, bufSize))
	}
	return w
}

func (w *access) name() string { return "access" }

func (w *access) benchBytes() int {
	return len(w.seq)*8 + len(w.pool) + 2*liveBufs*bufSize
}

func (w *access) setup(b *bench) error {
	var err error
	if w.p, err = b.newPair(); err != nil {
		return err
	}
	w.bufs, _, err = b.newLive(w.p)
	return err
}

// prepare fills every buffer with seeded bytes and warms the caches.
func (w *access) prepare(b *bench) error {
	var err error
	if w.shadow, err = fillLive(w.bufs, w.fill); err != nil {
		return err
	}
	for i := uint64(0); i < 50_000; i++ {
		if err := w.op(b, i); err != nil {
			return err
		}
	}
	return nil
}

func (w *access) op(b *bench, i uint64) error {
	o := w.seq[i%uint64(len(w.seq))]
	off := int(o.line)*lineSize + int(o.lo)
	shadow := w.shadow[o.buf]
	if !o.write {
		return b.read("access line", w.bufs[o.buf], off, shadow[off:off+lineSize])
	}
	p := w.pool[int(o.payload)*lineSize:][:o.n]
	if err := b.write(w.bufs[o.buf], off, p); err != nil {
		return err
	}
	copy(shadow[off:], p)
	return nil
}

func (w *access) after(b *bench, i uint64) (bool, error) { return false, nil }

func (w *access) finish(b *bench) error { return nil }

func (w *access) close() error {
	err := w.p.close()
	w.p = nil
	return err
}

// ---------------------------------------------------------------------
// persist: seeded single-line writes then a delta Checkpoint per op;
// Save→Load and Export→Import of one buffer on a fixed schedule; the run
// ends with Close→Open. Every restored or imported buffer is read back
// and checked.

type persist struct {
	seed    int64
	every   uint64 // a Save→Load or Export→Import every `every` ops
	r       *rand.Rand
	pool    []byte
	fill    [][]byte
	shadow  [][]byte
	bufs    []*mmt.Buffer
	owner   []*mmt.Enclave
	p       *pair
	store   string
	runs    int
	dirty   []uint64 // bitset of lines written since the last checkpoint
	written []int    // lines (buffer*bufLines + line) the current op wrote
}

func newPersist(seed int64, every uint64) *persist {
	r := newRand(seed)
	w := &persist{seed: seed, every: every, r: r, pool: randBytes(r, linePool*lineSize),
		dirty: make([]uint64, liveBufs*bufLines/64)}
	for i := 0; i < liveBufs; i++ {
		w.fill = append(w.fill, randBytes(r, bufSize))
	}
	return w
}

func (w *persist) name() string { return "persist" }

func (w *persist) benchBytes() int { return len(w.pool) + 2*liveBufs*bufSize }

func (w *persist) setup(b *bench) error {
	w.runs++
	w.store = filepath.Join(b.dir, fmt.Sprintf("store-%d", w.runs))
	if err := os.RemoveAll(w.store); err != nil {
		return err
	}
	var err error
	if w.p, err = b.newPair(mmt.WithStore(w.store)); err != nil {
		return err
	}
	w.bufs, w.owner, err = b.newLive(w.p)
	return err
}

// prepare fills every buffer and commits the base snapshot.
func (w *persist) prepare(b *bench) error {
	var err error
	if w.shadow, err = fillLive(w.bufs, w.fill); err != nil {
		return err
	}
	w.r = newRand(w.seed ^ 0x5eed)
	return w.checkpoint(b, false)
}

// checkpoint commits the store. For a delta checkpoint in a traced run it
// also records how many bytes the store file grew per dirty byte.
func (w *persist) checkpoint(b *bench, delta bool) error {
	track := delta && b.rec != nil
	var size0 int64
	if track {
		size0 = fileSize(filepath.Join(w.store, store.DataFileName))
	}
	c := b.begin("mmt.Checkpoint", 0)
	err := w.p.c.Checkpoint()
	b.end(c)
	if track && err == nil {
		n := 0
		for i, word := range w.dirty {
			n += bits.OnesCount64(word)
			w.dirty[i] = 0
		}
		b.storeGrowth += uint64(fileSize(filepath.Join(w.store, store.DataFileName)) - size0)
		b.dirtyBytes += uint64(n * lineSize)
	}
	clear(w.dirty)
	return err
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// op is the timed unit: dirtyPer single-line writes, a delta Checkpoint,
// then a read-back of every readBack-th line written. The scheduled
// restores run after it, timed on their own.
func (w *persist) op(b *bench, i uint64) error {
	w.written = w.written[:0]
	for k := 0; k < dirtyPer; k++ {
		bi := w.r.Intn(liveBufs)
		off := w.r.Intn(bufLines) * lineSize
		p := w.pool[w.r.Intn(linePool)*lineSize:][:lineSize]
		if err := b.write(w.bufs[bi], off, p); err != nil {
			return err
		}
		copy(w.shadow[bi][off:], p)
		line := bi*bufLines + off/lineSize
		w.dirty[line/64] |= 1 << (line % 64)
		w.written = append(w.written, line)
	}
	if err := w.checkpoint(b, true); err != nil {
		return err
	}
	for k := 0; k < len(w.written); k += readBack {
		bi, off := w.written[k]/bufLines, w.written[k]%bufLines*lineSize
		if err := b.read("checkpointed line", w.bufs[bi], off, w.shadow[bi][off:off+lineSize]); err != nil {
			return err
		}
	}
	return nil
}

// after runs the fixed schedule of restores that follows op i.
func (w *persist) after(b *bench, i uint64) (bool, error) {
	switch (i + 1) % w.every {
	case 0:
		return true, w.saveLoad(b)
	case w.every / 2:
		return true, w.exportImport(b, int((i/w.every)%liveBufs))
	}
	return false, nil
}

// verify reads every buffer of c back and checks it against the shadow.
func (w *persist) verify(b *bench, what string, c *mmt.Cluster) error {
	b.restoring = true
	defer func() { b.restoring = false }()
	for i, owner := range w.owner {
		m, ok := c.Machine(owner.Machine().Name())
		if !ok {
			return fmt.Errorf("%s: machine %s missing", what, owner.Machine().Name())
		}
		var buf *mmt.Buffer
		for _, e := range m.Enclaves() {
			if e.Name() == owner.Name() {
				var err error
				if buf, err = e.Buffer(w.bufs[i].Cap()); err != nil {
					return fmt.Errorf("%s: buffer %d: %w", what, i, err)
				}
			}
		}
		if buf == nil {
			return fmt.Errorf("%s: enclave %s missing", what, owner.Name())
		}
		if err := b.read(what, buf, 0, w.shadow[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *persist) saveLoad(b *bench) error {
	b.beginOp("op.persist.save_load")
	defer b.endOp()
	var snap bytes.Buffer
	c := b.begin("mmt.Save", 0)
	_, err := w.p.c.Save(&snap)
	b.end(c)
	if err != nil {
		return err
	}
	c = b.begin("mmt.Load", 0)
	loaded, err := mmt.Load(&snap)
	b.restoreMs = append(b.restoreMs, ms(b.end(c)))
	if err != nil {
		return err
	}
	if err := w.verify(b, "loaded snapshot", loaded); err != nil {
		return err
	}
	return loaded.Close()
}

// exportImport creates a buffer on the sender, fills it with seeded
// bytes, moves it to the receiver through a serialized artifact, checks
// it there, frees it and re-bases the store. A fresh buffer each time
// keeps the link's closure addresses increasing, as its replay check
// requires.
func (w *persist) exportImport(b *bench, k int) error {
	b.beginOp("op.persist.export_import")
	defer b.endOp()
	payload := w.fill[k%liveBufs]
	buf, err := b.newBuffer(w.p.link, w.p.sender)
	if err != nil {
		return err
	}
	c := b.begin("mmt.Write", bufLines)
	err = buf.Write(0, payload)
	b.end(c)
	b.linesWritten += bufLines
	if err != nil {
		return err
	}
	c = b.begin("mmt.Export", 0)
	art, err := w.p.link.Export(buf, mmt.OwnershipTransfer)
	b.end(c)
	if err != nil {
		return err
	}
	var wire bytes.Buffer
	c = b.begin("mmt.Artifact.WriteTo", 0)
	_, err = art.WriteTo(&wire)
	b.end(c)
	if err != nil {
		return err
	}
	c = b.begin("mmt.ReadArtifact", 0)
	art, err = mmt.ReadArtifact(&wire)
	b.end(c)
	if err != nil {
		return err
	}
	c = b.begin("mmt.Import", 0)
	got, err := w.p.link.Import(art, w.p.receiver)
	b.end(c)
	if err != nil {
		return err
	}
	b.restoring = true
	err = b.read("imported buffer", got, 0, payload)
	b.restoring = false
	if err != nil {
		return err
	}
	c = b.begin("mmt.Free", 0)
	err = got.Free()
	b.end(c)
	if err != nil {
		return err
	}
	return w.checkpoint(b, false)
}

// finish closes the store-backed cluster, reopens it and checks it.
func (w *persist) finish(b *bench) error {
	b.beginOp("op.persist.close_open")
	defer b.endOp()
	c := b.begin("mmt.Close", 0)
	err := w.p.c.Close()
	b.end(c)
	if err != nil {
		return err
	}
	c = b.begin("mmt.Open", 0)
	w.p = nil
	opened, err := mmt.Open(w.store)
	b.restoreMs = append(b.restoreMs, ms(b.end(c)))
	if err != nil {
		return err
	}
	if err := w.verify(b, "reopened store", opened); err != nil {
		opened.Close()
		return err
	}
	if err := opened.Close(); err != nil {
		return err
	}
	return os.RemoveAll(w.store)
}

func (w *persist) close() error {
	err := w.p.close()
	w.p = nil
	if rerr := os.RemoveAll(w.store); err == nil {
		err = rerr
	}
	return err
}
