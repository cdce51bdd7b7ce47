// Package engine implements the MMT controller of §V-A2: the memory
// controller extension that divides physical memory into normal memory,
// secure memory and the MMT meta-zone, verifies and updates the
// counter-based integrity tree on every secure access, caches tree nodes
// on chip, and accounts simulated cycles against a sim.Profile.
//
// The controller is purely single-node; the migratable parts of the scheme
// (root states, closures, delegation) live in package core and drive the
// controller through Export/Install and SetMode.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"mmt/internal/crypt"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// Mode is the access mode the controller enforces for one secure region.
// It is the hardware-visible projection of the MMT state machine: valid ->
// ModeReadWrite, sending/read-only -> ModeReadOnly, invalid/waiting ->
// ModeDisabled.
type Mode uint8

const (
	// ModeDisabled: no MMT active; the region is normal memory to the
	// controller and secure accesses fail.
	ModeDisabled Mode = iota
	// ModeReadWrite: MMT valid; reads verify, writes update the tree.
	ModeReadWrite
	// ModeReadOnly: MMT in sending or received-read-only state; writes are
	// rejected ("the content in this memory range cannot be modified").
	ModeReadOnly
)

func (m Mode) String() string {
	switch m {
	case ModeDisabled:
		return "disabled"
	case ModeReadWrite:
		return "read-write"
	case ModeReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Controller errors.
var (
	ErrDisabled  = errors.New("engine: region has no valid MMT")
	ErrReadOnly  = errors.New("engine: region is read-only (MMT sending or received read-only)")
	ErrIntegrity = tree.ErrIntegrity
	ErrBusy      = errors.New("engine: region already has an MMT")
)

// Stats counts controller activity; the Figure 11 experiment reads these.
type Stats struct {
	Reads, Writes    uint64
	NodeHits         uint64
	NodeMisses       uint64
	RootMounts       uint64
	DataAccesses     uint64
	ReencryptedLines uint64
	Cycles           sim.Cycles
}

// regionState is the controller-side state of one protection region.
type regionState struct {
	mode     Mode
	eng      *crypt.Engine
	tr       *tree.Tree
	guaddr   uint64
	lineMACs []uint64
	// dirtyLines is a preallocated bitset of data lines mutated since the
	// last checkpoint commit; together with the tree's dirty-node bits it
	// drives the mmt-store/v1 delta stream. Marked on the hot write path
	// (pure bit arithmetic, no allocation).
	dirtyLines []uint64
	// Per-line AES plane caches. The two-block tweak PRF's first block (the
	// "base") depends only on (guaddr, line, domain), so Enable/Install
	// precompute it once per line per domain; the hot read/write path then
	// derives each OTP pad and MAC mask from the cached base, saving one
	// AES block per pad and halving the MAC-mask AES work. lineMask
	// additionally memoises the finished DomainLineMAC mask keyed by the
	// line's counter (lineMaskCtr + lineMaskOK bitset), so re-reads of an
	// unwritten line skip the mask AES entirely. All caches are pure
	// functions of (engine, guaddr, line[, counter]) — replaying them is
	// bit-identical to recomputation, so tamper detection is unaffected.
	padBase     []byte   // crypt.MaskBaseSize bytes per line, DomainPad
	macBase     []byte   // crypt.MaskBaseSize bytes per line, DomainLineMAC
	lineBaseOK  []uint64 // bitset: both base entries for the line computed
	lineMask    []uint64
	lineMaskCtr []uint64
	lineMaskOK  []uint64 // bitset: lineMask/lineMaskCtr entry valid
	// The full 64-byte OTP pad, memoised per line keyed by the line's
	// counter like lineMask: a read never bumps the counter, so re-reads
	// of a line reduce to MAC-check + XOR with zero AES work, and a write
	// (which computes the new pad anyway) refreshes the entry for the
	// read-after-write that typically follows.
	linePad    []byte // mem.LineSize bytes per line
	linePadCtr []uint64
	linePadOK  []uint64 // bitset: linePad/linePadCtr entry valid
}

// markLine flags a line as dirty for the checkpoint stream.
func (st *regionState) markLine(line int) {
	st.dirtyLines[line>>6] |= uint64(1) << (uint(line) & 63)
}

// initPlanes sizes the per-line AES base planes and the (empty) mask
// cache for a freshly enabled or installed region. The bases themselves
// fill lazily (lineBases) on first touch of each line, so a migration
// install — which verifies every line but may never read most of them
// again — does not pay two AES blocks per line up front.
func (st *regionState) initPlanes(lines int) {
	st.padBase = make([]byte, lines*crypt.MaskBaseSize)
	st.macBase = make([]byte, lines*crypt.MaskBaseSize)
	st.lineBaseOK = make([]uint64, (lines+63)/64)
	st.lineMask = make([]uint64, lines)
	st.lineMaskCtr = make([]uint64, lines)
	st.lineMaskOK = make([]uint64, (lines+63)/64)
	st.linePad = make([]byte, lines*mem.LineSize)
	st.linePadCtr = make([]uint64, lines)
	st.linePadOK = make([]uint64, (lines+63)/64)
}

// lineBases returns the cached DomainPad and DomainLineMAC tweak bases
// for line, computing both (two AES blocks) on the line's first touch.
//
//mmt:hotpath
func (st *regionState) lineBases(line int, scr *crypt.Scratch) (pad, mac []byte) {
	off := line * crypt.MaskBaseSize
	w, bit := line>>6, uint64(1)<<(uint(line)&63)
	if st.lineBaseOK[w]&bit == 0 {
		st.eng.MaskBaseInto(st.guaddr, uint32(line), crypt.DomainPad, st.padBase[off:], scr)
		st.eng.MaskBaseInto(st.guaddr, uint32(line), crypt.DomainLineMAC, st.macBase[off:], scr)
		st.lineBaseOK[w] |= bit
	}
	return st.padBase[off:], st.macBase[off:]
}

// lineMaskFor returns the DomainLineMAC mask for line at counter ctr,
// from the cache when the counter still matches, recomputing (one AES
// block, from the cached base) and re-caching otherwise.
//
//mmt:hotpath
func (st *regionState) lineMaskFor(line int, macBase []byte, ctr uint64, scr *crypt.Scratch) uint64 {
	w, bit := line>>6, uint64(1)<<(uint(line)&63)
	if st.lineMaskOK[w]&bit != 0 && st.lineMaskCtr[line] == ctr {
		return st.lineMask[line]
	}
	m := st.eng.MaskFromBase(macBase, ctr, scr)
	st.lineMask[line] = m
	st.lineMaskCtr[line] = ctr
	st.lineMaskOK[w] |= bit
	return m
}

// linePadFor returns the 64-byte OTP keystream for line at counter ctr,
// from the cache when the counter still matches, recomputing (four AES
// blocks, from the cached base) and re-caching otherwise. The pad is a
// pure function of (engine, guaddr, line, ctr) — the same purity
// argument as lineMaskFor — so serving it from the plane is
// bit-identical to recomputation and tamper detection is unaffected.
//
//mmt:hotpath
func (st *regionState) linePadFor(line int, padBase []byte, ctr uint64, scr *crypt.Scratch) []byte {
	off := line * mem.LineSize
	w, bit := line>>6, uint64(1)<<(uint(line)&63)
	if st.linePadOK[w]&bit != 0 && st.linePadCtr[line] == ctr {
		return st.linePad[off : off+mem.LineSize]
	}
	pad := st.eng.PadLineFromBase(padBase, ctr, scr)
	copy(st.linePad[off:], pad[:])
	st.linePadCtr[line] = ctr
	st.linePadOK[w] |= bit
	return st.linePad[off : off+mem.LineSize]
}

// Controller is one node's MMT-extended memory controller.
type Controller struct {
	mem     *mem.Memory
	geo     tree.Geometry
	clock   *sim.Clock
	prof    *sim.Profile
	cache   *nodeCache
	roots   *rootTable
	regions []regionState
	stats   Stats
	quiet   bool
	probe   *trace.Probe // nil = tracing disabled
	// levelDiv[l] is the number of lines covered by one level-l node, so
	// nodeIndexAt is one division instead of an arity-product loop per
	// level per access.
	levelDiv []int
	// causal is the causal context the channel/monitor layer installs
	// around a closure accept, so the functional Install lands as a child
	// span of the accept (zero when no migration is in progress).
	causal trace.Context
	scr     crypt.Scratch
	lineBuf [mem.LineSize]byte // ciphertext staging for the write path
}

// New builds a controller over m with the given tree geometry. The
// memory's region size must equal the geometry's protected data size, and
// its meta-zone must fit the serialized tree plus line MACs.
func New(m *mem.Memory, geo tree.Geometry, clock *sim.Clock, prof *sim.Profile) (*Controller, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if m.Config().RegionSize != geo.DataSize() {
		return nil, fmt.Errorf("engine: region size %d != tree data size %d",
			m.Config().RegionSize, geo.DataSize())
	}
	if m.Config().MetaPerRegion < geo.MetaSize() {
		return nil, fmt.Errorf("engine: meta-zone %d bytes/region < required %d",
			m.Config().MetaPerRegion, geo.MetaSize())
	}
	if clock == nil {
		clock = sim.NewClock(prof.FreqHz)
	}
	levelDiv := make([]int, geo.Levels())
	prod := 1
	for l := geo.Levels() - 1; l >= 0; l-- {
		prod *= geo.Arities[l]
		levelDiv[l] = prod
	}
	return &Controller{
		mem:      m,
		geo:      geo,
		clock:    clock,
		prof:     prof,
		cache:    newNodeCache(prof.MMTCacheBytes),
		roots:    newRootTable(prof.RootTableSoC / rootEntryBytes),
		regions:  make([]regionState, m.Regions()),
		levelDiv: levelDiv,
	}, nil
}

// Geometry reports the controller's tree geometry.
func (c *Controller) Geometry() tree.Geometry { return c.geo }

// Memory reports the underlying physical memory.
func (c *Controller) Memory() *mem.Memory { return c.mem }

// Clock reports the node clock the controller advances.
func (c *Controller) Clock() *sim.Clock { return c.clock }

// Profile reports the cost model in use.
func (c *Controller) Profile() *sim.Profile { return c.prof }

// Stats returns a snapshot of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetQuiet suspends cycle and stats accounting while q is true. The
// channel layer uses it when extracting received payloads: every mode's
// application reads its received data, and none of the channels charges
// that uniform cost, so charging only the MMT read path would bias the
// comparison.
func (c *Controller) SetQuiet(q bool) { c.quiet = q }

// ResetStats zeroes the activity counters (cycles included).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// SetTrace attaches a trace probe to the controller and to every live
// tree. A nil probe disables tracing; the instrumented paths then cost
// one branch and zero allocations per call site.
func (c *Controller) SetTrace(p *trace.Probe) {
	c.probe = p
	for i := range c.regions {
		if c.regions[i].tr != nil {
			c.regions[i].tr.SetTrace(p)
		}
	}
}

// Trace reports the controller's probe (nil when tracing is disabled).
// Components sharing the machine (monitor, channels) reuse it so all of
// a node's activity lands under one trace process.
func (c *Controller) Trace() *trace.Probe { return c.probe }

// SetCausal installs the causal context under which the next Install
// records its span; the zero Context disables it. The channel/monitor
// layer brackets each closure accept with SetCausal/clear.
func (c *Controller) SetCausal(ctx trace.Context) { c.causal = ctx }

// Causal reports the installed causal context (tests).
func (c *Controller) Causal() trace.Context { return c.causal }

// Mode reports region r's access mode.
func (c *Controller) Mode(r int) Mode { return c.region(r).mode }

// GUAddr reports the global-unique address of region r's MMT.
func (c *Controller) GUAddr(r int) uint64 { return c.region(r).guaddr }

// RootCounter reports region r's trusted root counter.
func (c *Controller) RootCounter(r int) uint64 { return c.region(r).tr.RootCounter() }

// Tree exposes region r's integrity tree for inspection (tests, closures).
func (c *Controller) Tree(r int) *tree.Tree { return c.region(r).tr }

func (c *Controller) region(r int) *regionState {
	if r < 0 || r >= len(c.regions) {
		//mmt:allow nopanic: internal bounds guard, equivalent to built-in slice indexing
		panic(fmt.Sprintf("engine: region %d out of range [0,%d)", r, len(c.regions)))
	}
	return &c.regions[r]
}

// lineAddr converts (region, line) to a physical line address.
func (c *Controller) lineAddr(r, line int) mem.Addr {
	return c.mem.RegionBase(r) + mem.Addr(line*mem.LineSize)
}

// Enable turns region r into secure memory under key with the given
// global-unique address and initial root counter. Existing region contents
// are treated as plaintext and encrypted in place, line by line, through
// the same scratch kernels and per-line planes as the hot path: each
// line's tweak bases and MAC mask land in the region's planes, so the
// sweep allocates nothing per line.
func (c *Controller) Enable(r int, key crypt.Key, guaddr, rootCounter uint64) error {
	st := c.region(r)
	if st.mode != ModeDisabled {
		return ErrBusy
	}
	eng := crypt.NewEngine(key)
	tr, err := tree.New(c.geo, eng, guaddr)
	if err != nil {
		return err
	}
	tr.SetTrace(c.probe)
	tr.SetRootCounter(rootCounter)
	tr.RehashAll(eng, guaddr)
	*st = regionState{mode: ModeReadWrite, eng: eng, tr: tr, guaddr: guaddr, lineMACs: make([]uint64, c.geo.Lines()),
		dirtyLines: make([]uint64, (c.geo.Lines()+63)/64)}
	st.initPlanes(c.geo.Lines())
	data := c.mem.RegionData(r)
	for line := range c.geo.Lines() {
		buf := data[line*mem.LineSize : (line+1)*mem.LineSize]
		ctr := tr.LeafCounter(line)
		padBase, macBase := st.lineBases(line, &c.scr)
		crypt.XORLine(buf, buf, eng.PadLineFromBase(padBase, ctr, &c.scr)[:])
		st.lineMACs[line] = eng.LineHash(buf, &c.scr) ^ st.lineMaskFor(line, macBase, ctr, &c.scr)
		st.markLine(line) // freshly encrypted contents have never been checkpointed
	}
	c.mem.SetRegionKind(r, mem.KindSecure)
	c.cache.invalidateRegion(r)
	return nil
}

// Invalidate drops region r's MMT without decrypting: the memory reverts
// to normal but holds ciphertext garbage. This is the sender-side
// transition sending -> invalid after an ownership-transfer delegation.
func (c *Controller) Invalidate(r int) {
	st := c.region(r)
	*st = regionState{}
	c.mem.SetRegionKind(r, mem.KindNormal)
	c.cache.invalidateRegion(r)
	c.roots.evict(r)
}

// Release decrypts region r in place (restoring plaintext) and then
// invalidates the MMT — the graceful local teardown.
func (c *Controller) Release(r int) error {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return ErrDisabled
	}
	data := c.mem.RegionData(r)
	for line := range c.geo.Lines() {
		buf := data[line*mem.LineSize : (line+1)*mem.LineSize]
		padBase, _ := st.lineBases(line, &c.scr)
		crypt.XORLine(buf, buf, st.linePadFor(line, padBase, st.tr.LeafCounter(line), &c.scr))
	}
	c.Invalidate(r)
	return nil
}

// SetMode changes region r's enforcement mode (driven by the MMT state
// machine in package core).
func (c *Controller) SetMode(r int, m Mode) error {
	st := c.region(r)
	if st.mode == ModeDisabled && m != ModeDisabled {
		return ErrDisabled
	}
	st.mode = m
	return nil
}

// chargePath advances the clock for one tree-path traversal. The cost
// model follows §II-A and §VI-B:
//
//   - The data line always costs one DRAM access plus the OTP XOR (the
//     only crypto on the critical path; OTP generation overlaps the
//     fetch).
//   - Every tree level issues a meta request that occupies read/write
//     queue slots whether it hits or misses — the paper's explanation for
//     deeper trees being slower ("extra tree node accesses ... occupy the
//     read/write queue and tree node cache").
//   - A node-cache hit is an already-verified on-chip copy: no MAC work.
//   - The first (deepest) miss is issued in parallel with the data fetch,
//     exposing only part of its latency; each further miss on the same
//     path extends the serial verification chain and exposes most of a
//     DRAM access plus the MAC check.
//
// The cost is accumulated per phase (data / root-mount / tree-walk /
// MAC) so the trace layer can report the breakdown; every constant is a
// dyadic rational, so the regrouped float sum is bit-identical to the
// single-accumulator original.
//
// It returns the total charged cycles and the verification share (root
// mount + MAC checks) so callers can mirror the same numbers into the
// per-operation latency histograms. Both are 0 in quiet mode.
func (c *Controller) chargePath(r, line int, extraNodes int) (total, verify sim.Cycles) {
	if c.quiet {
		return 0, 0
	}
	dataCost := c.prof.DRAMAccess + 2 // data line + OTP XOR
	c.stats.DataAccesses++
	var rootCost, walkCost, macCost sim.Cycles
	//mmt:allow noalloc: root-table LRU models the SoC root-mount slots; bounded by table capacity
	if !c.roots.touch(r) {
		// Penglai-style root mount: the region's root counter is loaded
		// into the SoC root table, verified against the sealed copy.
		c.stats.RootMounts++
		c.probe.Count(trace.CtrRootMounts, 1)
		rootCost = c.prof.DRAMAccess + c.prof.MACLatency
	}
	misses := 0
	for l := 0; l < c.geo.Levels(); l++ {
		walkCost += queuePerLevel
		key := nodeKey{region: r, level: l, index: c.nodeIndexAt(line, l)}
		//mmt:allow noalloc: LRU bookkeeping models on-chip SRAM lookup state, not per-access DRAM traffic; entries are bounded by cache capacity
		if c.cache.touch(key, c.geo.NodeSize(l)) {
			c.stats.NodeHits++
			c.probe.Count(trace.CtrNodeCacheHits, 1)
			continue
		}
		c.stats.NodeMisses++
		c.probe.Count(trace.CtrNodeCacheMisses, 1)
		c.probe.Count(trace.CtrMACVerifies, 1)
		misses++
		if misses == 1 {
			walkCost += c.prof.DRAMAccess * firstMissExposure
		} else {
			walkCost += c.prof.DRAMAccess * chainMissExposure
		}
		macCost += c.prof.MACLatency
	}
	c.probe.Count(trace.CtrTreeNodeWalks, uint64(c.geo.Levels()))
	if extraNodes > 0 {
		macCost += sim.Cycles(extraNodes) * c.prof.MACLatency
		c.probe.Count(trace.CtrMACUpdates, uint64(extraNodes))
	}
	cost := c.probe.ChargeSplit(c.clock,
		trace.PhaseCost{Phase: trace.PhaseData, Cycles: dataCost},
		trace.PhaseCost{Phase: trace.PhaseRootMount, Cycles: rootCost},
		trace.PhaseCost{Phase: trace.PhaseTreeWalk, Cycles: walkCost},
		trace.PhaseCost{Phase: trace.PhaseMAC, Cycles: macCost})
	c.stats.Cycles += cost
	return cost, rootCost + macCost
}

// recordAccess mirrors one access's charged cycles into the per-op
// latency histograms: the whole access under op, the verification share
// additionally under OpVerify. Quiet-mode accesses charge nothing and
// arrive here as zeros, recording nothing.
func (c *Controller) recordAccess(op trace.Op, total, verify sim.Cycles) {
	if total > 0 {
		c.probe.RecordOp(op, total)
	}
	if verify > 0 {
		c.probe.RecordOp(trace.OpVerify, verify)
	}
}

// Timing-model constants for the tree walk (see chargePath).
const (
	queuePerLevel       sim.Cycles = 8
	writeUpdatePerLevel sim.Cycles = 12
	firstMissExposure              = 0.35 // overlapped with the data fetch
	chainMissExposure              = 0.80 // serial extension of the chain
)

// nodeIndexAt reports the index of the level-l node covering line:
// line / product(arities[l..L-1]), with the product precomputed in New.
//
//mmt:hotpath
func (c *Controller) nodeIndexAt(line, l int) int {
	return line / c.levelDiv[l]
}

// ReadInto verifies and decrypts the given line of secure region r into
// dst (mem.LineSize bytes). The whole steady-state path — batched path
// verification, line MAC check, OTP decryption — runs through the
// controller's scratch buffers and performs zero heap allocations
// (TestReadWriteZeroAlloc), matching the hardware data path it models.
//mmt:hotpath
func (c *Controller) ReadInto(r, line int, dst []byte) error {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return ErrDisabled
	}
	c.stats.Reads++
	total, verify := c.chargePath(r, line, 0)
	c.recordAccess(trace.OpLocalRead, total, verify)
	if err := st.tr.VerifyPath(st.eng, st.guaddr, line); err != nil {
		c.probe.Event(trace.EvIntegrityFail, c.clock.Now(), st.guaddr, "read: tree path")
		return err
	}
	ct := c.mem.LineView(c.lineAddr(r, line))
	ctr := st.tr.LeafCounter(line)
	padBase, macBase := st.lineBases(line, &c.scr)
	// Constant-time compare: the stored line MAC is untrusted (meta-zone)
	// and a variable-time == would leak matching tag bytes to a prober.
	if !crypt.TagEqual(st.eng.LineHash(ct, &c.scr)^st.lineMaskFor(line, macBase, ctr, &c.scr), st.lineMACs[line]) {
		c.probe.Event(trace.EvIntegrityFail, c.clock.Now(), st.guaddr, "read: data line MAC")
		return fmt.Errorf("%w: data line %d", ErrIntegrity, line)
	}
	crypt.XORLine(dst, ct, st.linePadFor(line, padBase, ctr, &c.scr))
	return nil
}

// Write verifies the path, advances the counters and stores the encrypted
// line. Counter overflow triggers the re-encryption of sibling lines
// (§V-A2's global-counter exhaustion procedure).
//mmt:hotpath
func (c *Controller) Write(r, line int, plaintext []byte) error {
	st := c.region(r)
	switch st.mode {
	case ModeDisabled:
		return ErrDisabled
	case ModeReadOnly:
		return ErrReadOnly
	}
	c.stats.Writes++
	// Verify-before-write: the tree engine "checks data integrity before
	// writing".
	if err := st.tr.VerifyPath(st.eng, st.guaddr, line); err != nil {
		c.probe.Event(trace.EvIntegrityFail, c.clock.Now(), st.guaddr, "write: tree path")
		return err
	}
	res := st.tr.Update(st.eng, st.guaddr, line)
	total, verify := c.chargePath(r, line, res.NodesTouched)
	c.recordAccess(trace.OpLocalWrite, total, verify)

	padBase, macBase := st.lineBases(line, &c.scr)
	ct := c.lineBuf[:]
	crypt.XORLine(ct, plaintext, st.linePadFor(line, padBase, res.LeafCounter, &c.scr))
	c.mem.WriteLine(c.lineAddr(r, line), ct)
	st.lineMACs[line] = st.eng.LineHash(ct, &c.scr) ^ st.lineMaskFor(line, macBase, res.LeafCounter, &c.scr)
	st.markLine(line)

	for _, ln := range res.ReencryptLines {
		if err := c.reencryptLine(st, r, ln); err != nil {
			return err
		}
	}
	return nil
}

// reencryptLine re-encrypts sibling line ln after a leaf counter overflow
// reset its counter. The overflow set the sibling's local counter to zero
// and bumped the shared global, so its previous effective counter was
// (global-1)<<bits | oldLocal for some oldLocal the tree no longer holds;
// hardware re-encrypts in the same pass that resets the counters, before
// the old values are gone. This software rendition recovers oldLocal by
// checking the stored line MAC against each candidate — the local space is
// small by construction.
//
// This is the rare cold path (once per 2^LocalBits writes per line at
// worst); its copies are charged to PhaseReencrypt.
//mmt:coldpath
func (c *Controller) reencryptLine(st *regionState, r, ln int) error {
	a := c.lineAddr(r, ln)
	ct := c.mem.LineView(a)
	newCtr := st.tr.LeafCounter(ln)
	bits := st.tr.Geometry().LocalBits
	if bits == 0 {
		bits = tree.DefaultLocalBits
	}
	base := (newCtr >> bits) - 1 // previous global value
	padBase, macBase := st.lineBases(ln, &c.scr)
	// The stored tag is LineHash(ct) ^ mask(counter) and the hash does not
	// depend on the candidate counter, so hash once and probe each
	// candidate with a single AES mask — same purity argument as the hot
	// path's lineMaskFor.
	h := st.eng.LineHash(ct, &c.scr)
	var pt [mem.LineSize]byte
	found := false
	for local := uint64(0); local < 1<<bits; local++ {
		old := base<<bits | local
		// Constant-time compare even in this recovery search: each probe
		// tests an attacker-influenceable stored MAC.
		if crypt.TagEqual(h^st.eng.MaskFromBase(macBase, old, &c.scr), st.lineMACs[ln]) {
			st.eng.DecryptLineFromBase(padBase, old, ct, pt[:], &c.scr)
			found = true
			break
		}
	}
	if !found {
		// Integrity was already verified on the path; reaching here means
		// the sibling was tampered with between checks.
		c.probe.Event(trace.EvIntegrityFail, c.clock.Now(), st.guaddr, "overflow: sibling unrecoverable")
		return fmt.Errorf("%w: sibling line %d unrecoverable during overflow re-encryption", ErrIntegrity, ln)
	}
	nct := c.lineBuf[:] // Write's own ciphertext already hit memory; safe to reuse
	st.eng.EncryptLineFromBase(padBase, newCtr, pt[:], nct, &c.scr)
	c.mem.WriteLine(a, nct)
	st.lineMACs[ln] = st.eng.LineHash(nct, &c.scr) ^ st.lineMaskFor(ln, macBase, newCtr, &c.scr)
	st.markLine(ln)
	c.stats.ReencryptedLines++
	c.probe.Count(trace.CtrReencryptLines, 1)
	c.probe.RecordOp(trace.OpReencrypt, c.prof.DRAMAccess+c.prof.AESLatency)
	c.stats.Cycles += c.prof.DRAMAccess + c.prof.AESLatency
	c.probe.Charge(c.clock, trace.PhaseReencrypt, c.prof.DRAMAccess+c.prof.AESLatency)
	return nil
}

// Access is the timing-only path used by trace-driven experiments
// (Figure 11): it moves the node cache and cycle counters exactly like a
// real access but skips cryptography and data movement, so traces of
// millions of accesses stay fast. Region state is not consulted.
//
// Writes additionally pay a per-level update charge: the write path
// increments a counter and recomputes a MAC at every level and enqueues
// the dirty nodes for write-back (§V-A2), so deeper trees spend more
// write-queue occupancy per store.
//mmt:hotpath
func (c *Controller) Access(r, line int, write bool) {
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	total, verify := c.chargePath(r, line, 0)
	if write {
		cost := sim.Cycles(c.geo.Levels()) * writeUpdatePerLevel
		c.probe.Count(trace.CtrMACUpdates, uint64(c.geo.Levels()))
		c.stats.Cycles += cost
		c.probe.Charge(c.clock, trace.PhaseTreeUpdate, cost)
		c.recordAccess(trace.OpLocalWrite, total+cost, verify)
	} else {
		c.recordAccess(trace.OpLocalRead, total, verify)
	}
}

// AccessUnprotected models a baseline (no-MMT) memory access: one DRAM
// access, no tree traffic. Used as the denominator of Figure 11.
func (c *Controller) AccessUnprotected() {
	c.stats.DataAccesses++
	c.stats.Cycles += c.prof.DRAMAccess
	c.probe.Charge(c.clock, trace.PhaseData, c.prof.DRAMAccess)
}

// BumpRootCounter advances region r's root counter by one (the delegation
// engine's pre-seal bump). The region must have a live MMT.
func (c *Controller) BumpRootCounter(r int) error {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return ErrDisabled
	}
	st.tr.BumpRootCounter(st.eng, st.guaddr)
	return nil
}

// Crypto returns region r's key-derived crypto engine so the MMT closure
// delegation engine (package core) can seal and unseal the root.
func (c *Controller) Crypto(r int) (*crypt.Engine, error) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return nil, ErrDisabled
	}
	return st.eng, nil
}

// Export captures region r's transferable state: the serialized tree
// nodes, the raw ciphertext, the line MACs and the root counter. Package
// core wraps this into an MMT closure. Export requires a live MMT.
func (c *Controller) Export(r int) (treeBytes, data []byte, lineMACs []uint64, rootCounter, guaddr uint64, err error) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return nil, nil, nil, 0, 0, ErrDisabled
	}
	data = append([]byte(nil), c.mem.RegionData(r)...)
	return st.tr.Serialize(), data, append([]uint64(nil), st.lineMACs...), st.tr.RootCounter(), st.guaddr, nil
}

// Install adopts a transferred MMT into region r: deserializes the tree,
// installs the root counter, verifies every node MAC and every line MAC
// under key/guaddr, and only then enables the region. Any integrity
// failure leaves the region disabled. mode is the resulting enforcement
// mode (read-write for ownership transfer, read-only for ownership copy).
func (c *Controller) Install(r int, key crypt.Key, guaddr, rootCounter uint64, treeBytes, data []byte, lineMACs []uint64, mode Mode) error {
	st := c.region(r)
	if st.mode != ModeDisabled {
		return ErrBusy
	}
	if mode == ModeDisabled {
		return fmt.Errorf("engine: install with disabled mode")
	}
	if len(data) != c.geo.DataSize() {
		return fmt.Errorf("engine: closure data %d bytes, want %d", len(data), c.geo.DataSize())
	}
	if len(lineMACs) != c.geo.Lines() {
		return fmt.Errorf("engine: closure has %d line MACs, want %d", len(lineMACs), c.geo.Lines())
	}
	eng := crypt.NewEngine(key)
	tr, err := tree.Deserialize(c.geo, treeBytes)
	if err != nil {
		return err
	}
	tr.SetTrace(c.probe)
	tr.SetRootCounter(rootCounter)
	if err := tr.VerifyAll(eng, guaddr); err != nil {
		return err
	}
	for line := 0; line < c.geo.Lines(); line++ {
		ct := data[line*mem.LineSize : (line+1)*mem.LineSize]
		tw := crypt.Tweak{GUAddr: guaddr, Line: uint32(line), Counter: tr.LeafCounter(line)}
		// Constant-time compare: closure MACs arrive from the network.
		// The Buf variant keeps this whole-region sweep allocation-free.
		if !crypt.TagEqual(eng.LineMACBuf(tw, ct, &c.scr), lineMACs[line]) {
			return fmt.Errorf("%w: transferred data line %d", ErrIntegrity, line)
		}
	}
	c.mem.Write(c.mem.RegionBase(r), data)
	*st = regionState{mode: mode, eng: eng, tr: tr, guaddr: guaddr, lineMACs: append([]uint64(nil), lineMACs...),
		dirtyLines: make([]uint64, (c.geo.Lines()+63)/64)}
	st.initPlanes(c.geo.Lines())
	tr.MarkAllDirty()
	for line := range c.geo.Lines() {
		st.markLine(line) // transferred contents have never been checkpointed here
	}
	c.mem.SetRegionKind(r, mem.KindSecure)
	c.cache.invalidateRegion(r)
	// Install is functional verification (tree + line MACs) and advances
	// no clock, so its causal span is a zero-duration, zero-cycle marker
	// under the accept span — it pins *where* the install happened, not a
	// cost.
	c.probe.CausalSpan(c.causal, trace.PhaseMAC, c.clock.Now(), c.clock.Now(), 0)
	return nil
}

// FlushMeta serializes region r's tree nodes and line MACs into the
// memory's meta-zone, modelling the untrusted DRAM copy of the metadata.
func (c *Controller) FlushMeta(r int) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return
	}
	meta := c.mem.MetaRegion(r)
	blob := st.tr.Serialize()
	n := copy(meta, blob)
	for i, m := range st.lineMACs {
		binary.LittleEndian.PutUint64(meta[n+i*8:], m)
	}
}

// LoadMeta re-reads region r's metadata from the meta-zone, replacing the
// controller's in-core copies. A physical attacker who rewrote the
// meta-zone is then caught by the next Read/Write verification.
func (c *Controller) LoadMeta(r int) error {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return ErrDisabled
	}
	meta := c.mem.MetaRegion(r)
	tr, err := tree.Deserialize(c.geo, meta[:c.geo.NodesSize()])
	if err != nil {
		return err
	}
	tr.SetTrace(c.probe)
	tr.SetRootCounter(st.tr.RootCounter()) // root counter stays in SoC
	st.tr = tr
	off := c.geo.NodesSize()
	for i := range st.lineMACs {
		st.lineMACs[i] = binary.LittleEndian.Uint64(meta[off+i*8:])
	}
	c.cache.invalidateRegion(r)
	return nil
}

// RestoreStats overwrites the activity counters; snapshot recovery uses it
// so a reloaded cluster reports the same cumulative figures it saved.
func (c *Controller) RestoreStats(s Stats) { c.stats = s }

// RegionDirty reports whether region r has uncheckpointed state: dirty
// tree nodes or dirty data lines since the last ClearRegionDirty.
func (c *Controller) RegionDirty(r int) bool {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return false
	}
	if st.tr.DirtyCount() > 0 {
		return true
	}
	for _, w := range st.dirtyLines {
		if w != 0 {
			return true
		}
	}
	return false
}

// DirtyLines calls fn for every dirty data line of region r in ascending
// order — the deterministic enumeration the checkpoint stream relies on.
func (c *Controller) DirtyLines(r int, fn func(line int)) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return
	}
	for w, word := range st.dirtyLines {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// ClearRegionDirty resets region r's dirty-node and dirty-line tracking;
// the store layer calls it once the commit covering them is durable.
func (c *Controller) ClearRegionDirty(r int) {
	st := c.region(r)
	if st.mode == ModeDisabled {
		return
	}
	st.tr.ClearDirty()
	for i := range st.dirtyLines {
		st.dirtyLines[i] = 0
	}
}

// LineState exposes region r's stored ciphertext (a view, valid until the
// next write) and line MAC for one line — the unit of the checkpoint
// stream's data-line records.
func (c *Controller) LineState(r, line int) (ciphertext []byte, mac uint64) {
	st := c.region(r)
	return c.mem.LineView(c.lineAddr(r, line)), st.lineMACs[line]
}

// LineSize re-exports the protected line granularity for callers that
// drive the controller without importing the memory model.
const LineSize = mem.LineSize
