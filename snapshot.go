package mmt

// This file is the tentpole of the persistence surface: a canonical
// binary model of a quiescent cluster ("mmt-snap/v1"), Save/Load over
// any io.Writer/io.Reader, and the mmt-store/v1 checkpoint path
// (WithStore + Checkpoint + Open) that streams dirty deltas between full
// base snapshots under the two-file crash-consistency protocol.
//
// The integrity design: the snapshot hash is SHA-256 over the full
// canonical encoding of the model. Save appends it as a trailer; the
// store pins it in each commit record. Every reload rebuilds the model
// (base + deltas), restores the cluster through the normal cryptographic
// verification paths (certificates and reports re-verified, every tree
// node and line MAC re-checked by Controller.Install), then re-encodes
// the restored cluster and requires the hash to match — a reload is
// byte-for-byte the state that was saved, or it is an error.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"mmt/internal/attest"
	"mmt/internal/core"
	"mmt/internal/enclave"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/mem"
	"mmt/internal/monitor"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/store"
	"mmt/internal/tree"
)

// snapMagic tags the canonical snapshot encoding.
const snapMagic = "mmt-snap/v1\x00"

// Persistence errors.
var (
	// ErrNotQuiescent: delegation traffic is in flight; pump or complete
	// it before saving (a consistent snapshot needs every MMT settled).
	ErrNotQuiescent = monitor.ErrNotQuiescent
	// ErrNoStore: Checkpoint on a cluster built without WithStore.
	ErrNoStore = errors.New("mmt: no checkpoint store attached (build the cluster with WithStore)")
	// ErrNoSnapshot: Open on a store directory with no committed state.
	ErrNoSnapshot = errors.New("mmt: store holds no committed snapshot")
	// ErrBadSnapshot: the snapshot bytes are malformed or fail their hash.
	ErrBadSnapshot = errors.New("mmt: malformed snapshot")
)

// Checkpoint record types inside an mmt-store/v1 data file.
const (
	recBase    store.RecordType = 1 // full canonical model blob
	recMachine store.RecordType = 2 // clock + stats patch for one machine
	recRoot    store.RecordType = 3 // root-counter patch for one region
	recNode    store.RecordType = 4 // one serialized tree node
	recLine    store.RecordType = 5 // one data line (ciphertext + MAC)
)

// ---------------------------------------------------------------------------
// The model: a plain-struct image of everything a cluster persists.

type snapModel struct {
	treeLevels int
	regions    int
	netLatency sim.Time
	profile    *sim.Profile
	mfrKey     []byte
	authority  *attest.AuthorityState
	machines   []*machineModel
	links      []linkModel
}

type machineModel struct {
	name     string
	keyDER   []byte
	cert     attest.Certificate
	clockNow sim.Time
	stats    engine.Stats
	mon      *monitor.Snapshot
	regions  []*regionModel
}

type regionModel struct {
	region      int
	rootCounter uint64
	tree        []byte
	data        []byte
	lineMACs    []uint64
}

type linkModel struct {
	id                 string
	machineA, machineB string
	enclaveA, enclaveB monitor.EnclaveID
}

func (m *snapModel) machine(name string) *machineModel {
	for _, mm := range m.machines {
		if mm.name == name {
			return mm
		}
	}
	return nil
}

func (m *machineModel) regionModel(r int) *regionModel {
	for _, rm := range m.regions {
		if rm.region == r {
			return rm
		}
	}
	return nil
}

// buildModel captures the cluster into a model. It requires quiescence:
// nothing in flight on the interconnect and every monitor at a settled
// delegation state.
func (c *Cluster) buildModel() (*snapModel, error) {
	if n := c.net.PendingTotal(); n != 0 {
		return nil, fmt.Errorf("%w (%d messages on the interconnect)", ErrNotQuiescent, n)
	}
	mfrKey, err := c.mfr.MarshalKey()
	if err != nil {
		return nil, err
	}
	auth, err := c.authority.MarshalState()
	if err != nil {
		return nil, err
	}
	m := &snapModel{
		treeLevels: c.set.treeLevels,
		regions:    c.set.regions,
		netLatency: c.set.netLatency,
		profile:    c.set.profile,
		mfrKey:     mfrKey,
		authority:  auth,
	}
	for _, name := range c.machineOrder {
		mach := c.machines[name]
		keyDER, err := mach.ident.MarshalKey()
		if err != nil {
			return nil, err
		}
		snap, err := mach.mon.Snapshot()
		if err != nil {
			return nil, err
		}
		ctl := mach.mon.Node().Controller()
		mm := &machineModel{
			name:     name,
			keyDER:   keyDER,
			cert:     mach.ident.Cert,
			clockNow: mach.Clock().Now(),
			stats:    ctl.Stats(),
			mon:      snap,
		}
		for r := 0; r < c.set.regions; r++ {
			if ctl.Mode(r) == engine.ModeDisabled {
				continue
			}
			treeBytes, data, lineMACs, rootCounter, _, err := ctl.Export(r)
			if err != nil {
				return nil, err
			}
			mm.regions = append(mm.regions, &regionModel{
				region: r, rootCounter: rootCounter,
				tree: treeBytes, data: data, lineMACs: lineMACs,
			})
		}
		m.machines = append(m.machines, mm)
	}
	for _, id := range c.linkOrder {
		l := c.links[id]
		m.links = append(m.links, linkModel{
			id:       l.id,
			machineA: l.a.machine.name, enclaveA: l.a.id,
			machineB: l.b.machine.name, enclaveB: l.b.id,
		})
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Canonical encoding. Every integer is little-endian and fixed-width,
// every float is its IEEE-754 bit pattern, every slice is length-prefixed
// and emitted in a deterministic order — so save→load→save is
// byte-identical and the SHA-256 over the blob is a faithful state hash.

type snapWriter struct{ buf []byte }

func (w *snapWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *snapWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *snapWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *snapWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *snapWriter) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *snapWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *snapWriter) str(s string) { w.bytes([]byte(s)) }

type snapReader struct {
	buf []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("truncated at offset %d (need %d bytes)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *snapReader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool at offset %d", r.off-1)
		return false
	}
}
func (r *snapReader) bytes() []byte {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
func (r *snapReader) str() string { return string(r.bytes()) }

// count reads a length prefix and bounds it: no field of a well-formed
// snapshot has more elements than remaining bytes.
func (r *snapReader) count() int {
	n := int(r.u32())
	if r.err == nil && n > len(r.buf)-r.off {
		r.fail("implausible count %d at offset %d", n, r.off-4)
		return 0
	}
	return n
}

func encodeModel(m *snapModel) []byte {
	w := &snapWriter{}
	w.buf = append(w.buf, snapMagic...)
	w.u32(uint32(m.treeLevels))
	w.u32(uint32(m.regions))
	w.f64(float64(m.netLatency))
	encodeProfile(w, m.profile)
	w.bytes(m.mfrKey)
	w.bytes(m.authority.KeyDER)
	w.u32(uint32(len(m.authority.Policy)))
	for _, p := range m.authority.Policy {
		w.buf = append(w.buf, p[:]...)
	}
	w.u32(uint32(m.authority.NextID))
	w.u32(uint32(len(m.machines)))
	for _, mm := range m.machines {
		encodeMachine(w, mm)
	}
	w.u32(uint32(len(m.links)))
	for _, l := range m.links {
		w.str(l.id)
		w.str(l.machineA)
		w.u32(uint32(l.enclaveA))
		w.str(l.machineB)
		w.u32(uint32(l.enclaveB))
	}
	return w.buf
}

func decodeModel(blob []byte) (*snapModel, error) {
	if len(blob) < len(snapMagic) || string(blob[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic (want %q)", ErrBadSnapshot, snapMagic)
	}
	r := &snapReader{buf: blob, off: len(snapMagic)}
	m := &snapModel{
		treeLevels: int(r.u32()),
		regions:    int(r.u32()),
		netLatency: sim.Time(r.f64()),
	}
	m.profile = decodeProfile(r)
	m.mfrKey = r.bytes()
	auth := &attest.AuthorityState{KeyDER: r.bytes()}
	for range r.count() {
		var meas attest.Measurement
		copy(meas[:], r.take(len(meas)))
		auth.Policy = append(auth.Policy, meas)
	}
	auth.NextID = forest.NodeID(r.u32())
	m.authority = auth
	for range r.count() {
		m.machines = append(m.machines, decodeMachine(r))
	}
	for range r.count() {
		m.links = append(m.links, linkModel{
			id:       r.str(),
			machineA: r.str(), enclaveA: monitor.EnclaveID(r.u32()),
			machineB: r.str(), enclaveB: monitor.EnclaveID(r.u32()),
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(r.buf)-r.off)
	}
	return m, nil
}

func encodeProfile(w *snapWriter, p *sim.Profile) {
	w.str(p.Name)
	w.f64(p.FreqHz)
	w.f64(float64(p.EncryptSetup))
	w.f64(p.EncryptPerByte)
	w.f64(float64(p.DecryptSetup))
	w.f64(p.DecryptPerByte)
	pts := p.Memcpy.Points()
	w.u32(uint32(len(pts)))
	for _, pt := range pts {
		w.u64(uint64(pt.Size))
		w.f64(pt.PerByte)
	}
	w.f64(float64(p.MemcpySetup))
	w.f64(float64(p.RemoteWriteSetup))
	w.f64(p.RemoteWritePerByte)
	w.f64(float64(p.DelegationFixed))
	w.f64(float64(p.NetLatency))
	w.f64(float64(p.DRAMAccess))
	w.f64(float64(p.AESLatency))
	w.f64(float64(p.MACLatency))
	w.u64(uint64(p.MMTCacheBytes))
	w.u64(uint64(p.RootTableSoC))
	w.u64(uint64(p.SecureMemory))
}

func decodeProfile(r *snapReader) *sim.Profile {
	p := &sim.Profile{Name: r.str(), FreqHz: r.f64()}
	p.EncryptSetup = sim.Cycles(r.f64())
	p.EncryptPerByte = r.f64()
	p.DecryptSetup = sim.Cycles(r.f64())
	p.DecryptPerByte = r.f64()
	n := r.count()
	pts := make([]sim.CurvePoint, 0, n)
	for range n {
		pts = append(pts, sim.CurvePoint{Size: int(r.u64()), PerByte: r.f64()})
	}
	p.MemcpySetup = sim.Cycles(r.f64())
	p.RemoteWriteSetup = sim.Cycles(r.f64())
	p.RemoteWritePerByte = r.f64()
	p.DelegationFixed = sim.Cycles(r.f64())
	p.NetLatency = sim.Time(r.f64())
	p.DRAMAccess = sim.Cycles(r.f64())
	p.AESLatency = sim.Cycles(r.f64())
	p.MACLatency = sim.Cycles(r.f64())
	p.MMTCacheBytes = int(r.u64())
	p.RootTableSoC = int(r.u64())
	p.SecureMemory = int(r.u64())
	if r.err != nil {
		return p
	}
	c, err := sim.BuildCurve(pts...)
	if err != nil {
		r.fail("profile memcpy curve: %v", err)
		return p
	}
	p.Memcpy = c
	return p
}

func encodeMachine(w *snapWriter, m *machineModel) {
	w.str(m.name)
	w.bytes(m.keyDER)
	w.str(m.cert.Subject)
	w.bytes(m.cert.PublicKey)
	w.bytes(m.cert.Signature)
	w.f64(float64(m.clockNow))
	encodeStats(w, m.stats)
	encodeMonitor(w, m.mon)
	w.u32(uint32(len(m.regions)))
	for _, rm := range m.regions {
		w.u32(uint32(rm.region))
		w.u64(rm.rootCounter)
		w.bytes(rm.tree)
		w.bytes(rm.data)
		w.u32(uint32(len(rm.lineMACs)))
		for _, mac := range rm.lineMACs {
			w.u64(mac)
		}
	}
}

func decodeMachine(r *snapReader) *machineModel {
	m := &machineModel{name: r.str(), keyDER: r.bytes()}
	m.cert = attest.Certificate{Subject: r.str(), PublicKey: r.bytes(), Signature: r.bytes()}
	m.clockNow = sim.Time(r.f64())
	m.stats = decodeStats(r)
	m.mon = decodeMonitor(r)
	for range r.count() {
		rm := &regionModel{region: int(r.u32()), rootCounter: r.u64(), tree: r.bytes(), data: r.bytes()}
		for range r.count() {
			rm.lineMACs = append(rm.lineMACs, r.u64())
		}
		m.regions = append(m.regions, rm)
	}
	return m
}

func encodeStats(w *snapWriter, s engine.Stats) {
	w.u64(s.Reads)
	w.u64(s.Writes)
	w.u64(s.NodeHits)
	w.u64(s.NodeMisses)
	w.u64(s.RootMounts)
	w.u64(s.DataAccesses)
	w.u64(s.ReencryptedLines)
	w.f64(float64(s.Cycles))
}

func decodeStats(r *snapReader) engine.Stats {
	return engine.Stats{
		Reads: r.u64(), Writes: r.u64(),
		NodeHits: r.u64(), NodeMisses: r.u64(),
		RootMounts: r.u64(), DataAccesses: r.u64(),
		ReencryptedLines: r.u64(), Cycles: sim.Cycles(r.f64()),
	}
}

func encodeMonitor(w *snapWriter, s *monitor.Snapshot) {
	w.u32(uint32(s.NodeID))
	w.u32(uint32(s.Report.NodeID))
	w.str(s.Report.Subject)
	w.buf = append(w.buf, s.Report.Measurement[:]...)
	w.bytes(s.Report.MachinePublicKey)
	w.bytes(s.Report.Signature)
	w.u32(uint32(s.NextEnclave))
	w.u64(uint64(s.NextCap))
	w.u64(s.AllocNext)
	w.u32(uint32(len(s.Pool)))
	for _, r := range s.Pool {
		w.u32(uint32(r))
	}
	w.u32(uint32(len(s.Enclaves)))
	for _, e := range s.Enclaves {
		w.u32(uint32(e.ID))
		w.str(e.Name)
		w.buf = append(w.buf, e.Measurement[:]...)
		w.u32(uint32(len(e.Caps)))
		for _, c := range e.Caps {
			w.u64(uint64(c))
		}
	}
	w.u32(uint32(len(s.PMOs)))
	for _, p := range s.PMOs {
		w.u64(uint64(p.Cap))
		w.u32(uint32(p.Region))
		w.u32(uint32(p.Owner))
	}
	w.u32(uint32(len(s.MMTs)))
	for _, m := range s.MMTs {
		w.u32(uint32(m.Region))
		w.u8(uint8(m.State))
		w.buf = append(w.buf, m.Key[:]...)
		w.u64(m.GUAddr)
		w.u8(uint8(m.Mode))
		w.boolean(m.ReadOnly)
	}
	w.u32(uint32(len(s.Conns)))
	for _, c := range s.Conns {
		w.str(c.ID)
		w.u32(uint32(c.Local))
		w.str(c.PeerMonitor)
		w.u32(uint32(c.PeerEnclave))
		w.buf = append(w.buf, c.Key[:]...)
		w.u64(c.LastCounter)
		w.u64(c.LastGUAddr)
		w.u64(uint64(c.RecvCap))
		w.u32(uint32(len(c.Received)))
		for _, cap := range c.Received {
			w.u64(uint64(cap))
		}
		w.u64(uint64(c.Acked))
	}
}

func decodeMonitor(r *snapReader) *monitor.Snapshot {
	s := &monitor.Snapshot{NodeID: forest.NodeID(r.u32())}
	rep := &attest.Report{NodeID: forest.NodeID(r.u32()), Subject: r.str()}
	copy(rep.Measurement[:], r.take(len(rep.Measurement)))
	rep.MachinePublicKey = r.bytes()
	rep.Signature = r.bytes()
	s.Report = rep
	s.NextEnclave = monitor.EnclaveID(r.u32())
	s.NextCap = monitor.CapID(r.u64())
	s.AllocNext = r.u64()
	for range r.count() {
		s.Pool = append(s.Pool, int(r.u32()))
	}
	for range r.count() {
		e := monitor.EnclaveRec{ID: monitor.EnclaveID(r.u32()), Name: r.str()}
		copy(e.Measurement[:], r.take(len(e.Measurement)))
		for range r.count() {
			e.Caps = append(e.Caps, monitor.CapID(r.u64()))
		}
		s.Enclaves = append(s.Enclaves, e)
	}
	for range r.count() {
		s.PMOs = append(s.PMOs, monitor.PMORec{
			Cap: monitor.CapID(r.u64()), Region: int(r.u32()), Owner: monitor.EnclaveID(r.u32()),
		})
	}
	for range r.count() {
		m := monitor.MMTRec{Region: int(r.u32()), State: core.State(r.u8())}
		copy(m.Key[:], r.take(len(m.Key)))
		m.GUAddr = r.u64()
		m.Mode = core.TransferMode(r.u8())
		m.ReadOnly = r.boolean()
		s.MMTs = append(s.MMTs, m)
	}
	for range r.count() {
		c := monitor.ConnRec{ID: r.str(), Local: monitor.EnclaveID(r.u32()), PeerMonitor: r.str(), PeerEnclave: monitor.EnclaveID(r.u32())}
		copy(c.Key[:], r.take(len(c.Key)))
		c.LastCounter = r.u64()
		c.LastGUAddr = r.u64()
		c.RecvCap = monitor.CapID(r.u64())
		for range r.count() {
			c.Received = append(c.Received, monitor.CapID(r.u64()))
		}
		c.Acked = int(r.u64())
		s.Conns = append(s.Conns, c)
	}
	return s
}

// ---------------------------------------------------------------------------
// Restore: model -> running cluster, through the verification paths.

// restoreCluster rebuilds a cluster from a model, then re-encodes the
// result and requires its hash to equal wantHash — the verified-reload
// contract. Structural options in s were already rejected by the caller;
// trace/debug settings apply to the restored cluster.
func restoreCluster(m *snapModel, s settings, wantHash [32]byte) (*Cluster, error) {
	s.profile = m.profile
	s.treeLevels = m.treeLevels
	s.regions = m.regions
	s.netLatency = m.netLatency
	geo := tree.ForLevels(s.treeLevels)
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	mfr, err := attest.RestoreManufacturer(m.mfrKey)
	if err != nil {
		return nil, err
	}
	authority, err := attest.RestoreAuthority(mfr.PublicKey(), m.authority)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		set:         s,
		geometry:    geo,
		mfr:         mfr,
		authority:   authority,
		measurement: attest.MeasureSoftware([]byte("mmt-monitor-v1")),
		net:         netsim.NewNetwork(s.netLatency),
		machines:    make(map[string]*Machine),
		links:       make(map[string]*Link),
		needBase:    true,
	}
	if s.debugAddr != "" {
		dbg, err := startDebugServer(s.debugAddr, s.trace)
		if err != nil {
			return nil, err
		}
		c.debug = dbg
	}
	fail := func(err error) (*Cluster, error) {
		c.closeDebug()
		return nil, err
	}
	for _, mm := range m.machines {
		mach, err := c.restoreMachine(mm)
		if err != nil {
			return fail(fmt.Errorf("mmt: restoring machine %q: %w", mm.name, err))
		}
		c.machines[mm.name] = mach
		c.machineOrder = append(c.machineOrder, mm.name)
	}
	for _, lm := range m.links {
		a, err := c.restoredEnclave(lm.machineA, lm.enclaveA)
		if err != nil {
			return fail(fmt.Errorf("mmt: restoring link %s: %w", lm.id, err))
		}
		b, err := c.restoredEnclave(lm.machineB, lm.enclaveB)
		if err != nil {
			return fail(fmt.Errorf("mmt: restoring link %s: %w", lm.id, err))
		}
		l := &Link{cluster: c, id: lm.id, a: a, b: b}
		c.links[lm.id] = l
		c.linkOrder = append(c.linkOrder, lm.id)
	}

	// The verified-reload check: the restored cluster must re-encode to
	// exactly the hashed bytes. Any drift — a patch applied wrong, a
	// record lost, nondeterminism in the encoding — fails the load.
	again, err := c.buildModel()
	if err != nil {
		return fail(fmt.Errorf("mmt: re-snapshotting restored cluster: %w", err))
	}
	if got := sha256.Sum256(encodeModel(again)); got != wantHash {
		return fail(fmt.Errorf("%w: restored state hashes to %x, snapshot pinned %x",
			ErrBadSnapshot, got, wantHash))
	}
	return c, nil
}

// restoreMachine rebuilds one machine: identity re-verified, every live
// region cryptographically re-installed, monitor bookkeeping reattached,
// enclave handles adopted in id order.
func (c *Cluster) restoreMachine(mm *machineModel) (*Machine, error) {
	ident, err := attest.RestoreMachine(c.mfr.PublicKey(), mm.name, mm.keyDER, mm.cert)
	if err != nil {
		return nil, err
	}
	pm := mem.New(mem.Config{
		Size:          c.set.regions * c.geometry.DataSize(),
		RegionSize:    c.geometry.DataSize(),
		MetaPerRegion: c.geometry.MetaSize(),
	})
	ctl, err := engine.New(pm, c.geometry, nil, c.set.profile)
	if err != nil {
		return nil, err
	}
	ctl.SetTrace(c.set.trace.Probe(mm.name))

	// Region state first (Controller.Install verifies every node and line
	// MAC under the persisted key before enabling anything), so the
	// monitor's RestoreMMT finds live regions where its records say.
	for _, rm := range mm.regions {
		rec, ok := mmtRecFor(mm.mon, rm.region)
		if !ok {
			return nil, fmt.Errorf("region %d has controller state but no MMT record", rm.region)
		}
		if rec.State != core.StateValid {
			return nil, fmt.Errorf("region %d: controller state with MMT in state %v", rm.region, rec.State)
		}
		mode := engine.ModeReadWrite
		if rec.ReadOnly {
			mode = engine.ModeReadOnly
		}
		if err := ctl.Install(rm.region, rec.Key, rec.GUAddr, rm.rootCounter, rm.tree, rm.data, rm.lineMACs, mode); err != nil {
			return nil, fmt.Errorf("region %d: %w", rm.region, err)
		}
	}
	ctl.Clock().SetNow(mm.clockNow)
	ctl.RestoreStats(mm.stats)

	mon := monitor.New(ident, c.measurement, c.authority.PublicKey(), ctl)
	if err := mon.Restore(mm.mon); err != nil {
		return nil, err
	}
	if err := mon.AttachNetwork(c.net, mm.name); err != nil {
		return nil, err
	}
	m := &Machine{name: mm.name, cluster: c, ident: ident, mon: mon, rt: enclave.NewRuntime(mon)}
	for _, rec := range mm.mon.Enclaves {
		m.enclaves = append(m.enclaves, &Enclave{machine: m, name: rec.Name, id: rec.ID, rt: m.rt.Adopt(rec.ID)})
	}
	return m, nil
}

func mmtRecFor(s *monitor.Snapshot, region int) (monitor.MMTRec, bool) {
	for _, rec := range s.MMTs {
		if rec.Region == region {
			return rec, true
		}
	}
	return monitor.MMTRec{}, false
}

func (c *Cluster) restoredEnclave(machine string, id monitor.EnclaveID) (*Enclave, error) {
	m, ok := c.machines[machine]
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", machine)
	}
	for _, e := range m.enclaves {
		if e.id == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("no enclave %d on %q", id, machine)
}

// ---------------------------------------------------------------------------
// Save / Load: one-shot portable snapshots.

// Save writes a verified snapshot of the quiescent cluster to w: the
// canonical mmt-snap/v1 blob followed by its SHA-256. The cluster keeps
// running; Save does not mutate simulated state. The returned Manifest
// describes what was saved (mmt-tracecheck validates its JSON form).
func (c *Cluster) Save(w io.Writer) (*Manifest, error) {
	m, err := c.buildModel()
	if err != nil {
		return nil, err
	}
	blob := encodeModel(m)
	hash := sha256.Sum256(blob)
	if _, err := w.Write(blob); err != nil {
		return nil, err
	}
	if _, err := w.Write(hash[:]); err != nil {
		return nil, err
	}
	return manifestFor(m, 0, hash, len(blob)+len(hash)), nil
}

// Load rebuilds a cluster from a Save stream — in this process or any
// other. The snapshot is authoritative for structure: WithProfile,
// WithTreeLevels, WithRegions and WithNetLatency are rejected here;
// WithTracing, WithDebugServer and WithStore apply to the restored
// cluster. Every certificate, attestation report, tree node and line MAC
// is re-verified, and the restored cluster must re-encode to the exact
// hash the stream pinned.
func Load(r io.Reader, opts ...Option) (*Cluster, error) {
	s, err := applySettings(opts)
	if err != nil {
		return nil, err
	}
	if s.set&structuralSettings != 0 {
		return nil, errors.New("mmt: Load: the snapshot pins profile, tree levels, regions and net latency; drop the structural options")
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than magic + hash", ErrBadSnapshot, len(data))
	}
	blob, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	var want [32]byte
	copy(want[:], trailer)
	if got := sha256.Sum256(blob); got != want {
		return nil, fmt.Errorf("%w: blob hashes to %x, trailer says %x", ErrBadSnapshot, got, want)
	}
	m, err := decodeModel(blob)
	if err != nil {
		return nil, err
	}
	storePath := s.storePath
	s.storePath = "" // the store is attached below, after restore succeeds
	c, err := restoreCluster(m, s, want)
	if err != nil {
		return nil, err
	}
	if storePath != "" {
		st, err := store.Open(store.Dir{Path: storePath})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.set.storePath = storePath
		c.ckpt = st
		c.needBase = true
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// The checkpoint store: WithStore + Checkpoint + Open.

// Checkpoint streams the cluster's state into the attached store and
// commits it crash-consistently: after a structural change (machines,
// links, delegations) a full base snapshot, otherwise just the dirty
// deltas — per-machine clocks and stats, changed tree nodes, changed
// data lines — batched into sequential writes. On return the committed
// state is durable: a crash at any later point recovers to it (or to a
// newer commit), never to a torn hybrid. Requires quiescence, like Save.
func (c *Cluster) Checkpoint() error {
	if c.ckpt == nil {
		return ErrNoStore
	}
	// The full model is always built: deltas bound disk I/O, not hash
	// computation — the commit record pins the hash of the whole state.
	m, err := c.buildModel()
	if err != nil {
		return err
	}
	blob := encodeModel(m)
	hash := sha256.Sum256(blob)
	if c.needBase {
		if err := c.ckpt.Append(store.Record{Type: recBase, Payload: blob}); err != nil {
			return err
		}
	} else if err := c.appendDeltas(m); err != nil {
		return err
	}
	if _, err := c.ckpt.Commit(hash); err != nil {
		return err
	}
	// Only after the commit is durable do the dirty bits clear — a failed
	// commit leaves them set, so the next attempt re-streams everything.
	c.needBase = false
	for _, name := range c.machineOrder {
		ctl := c.machines[name].mon.Node().Controller()
		for r := 0; r < c.set.regions; r++ {
			ctl.ClearRegionDirty(r)
		}
	}
	return nil
}

// appendDeltas stages the dirty state as patch records. Structural facts
// (membership, links, capability tables) are covered by the base the
// deltas patch: every structural mutation sets needBase, so a delta
// commit only ever carries clock/stats movement and data-path writes.
func (c *Cluster) appendDeltas(m *snapModel) error {
	for _, name := range c.machineOrder {
		mach := c.machines[name]
		ctl := mach.mon.Node().Controller()
		mm := m.machine(name)
		w := &snapWriter{}
		w.str(name)
		w.f64(float64(mm.clockNow))
		encodeStats(w, mm.stats)
		if err := c.ckpt.Append(store.Record{Type: recMachine, Payload: w.buf}); err != nil {
			return err
		}
		for r := 0; r < c.set.regions; r++ {
			if ctl.Mode(r) == engine.ModeDisabled {
				continue
			}
			rm := mm.regionModel(r)
			rw := &snapWriter{}
			rw.str(name)
			rw.u32(uint32(r))
			rw.u64(rm.rootCounter)
			if err := c.ckpt.Append(store.Record{Type: recRoot, Payload: rw.buf}); err != nil {
				return err
			}
			if !ctl.RegionDirty(r) {
				continue
			}
			tr := ctl.Tree(r)
			var nodeErr error
			var nodeBuf []byte // scratch: nw.bytes copies, so one buffer serves every dirty node
			tr.DirtyNodes(func(level, index int) {
				if nodeErr != nil {
					return
				}
				nw := &snapWriter{}
				nw.str(name)
				nw.u32(uint32(r))
				nw.u32(uint32(level))
				nw.u32(uint32(index))
				nodeBuf = tr.AppendNode(nodeBuf[:0], level, index)
				nw.bytes(nodeBuf)
				nodeErr = c.ckpt.Append(store.Record{Type: recNode, Payload: nw.buf})
			})
			if nodeErr != nil {
				return nodeErr
			}
			var lineErr error
			ctl.DirtyLines(r, func(line int) {
				if lineErr != nil {
					return
				}
				ct, mac := ctl.LineState(r, line)
				lw := &snapWriter{}
				lw.str(name)
				lw.u32(uint32(r))
				lw.u32(uint32(line))
				lw.bytes(ct)
				lw.u64(mac)
				lineErr = c.ckpt.Append(store.Record{Type: recLine, Payload: lw.buf})
			})
			if lineErr != nil {
				return lineErr
			}
		}
	}
	return nil
}

// replayRecords folds a committed record log into the model it encodes:
// the latest base, patched by every delta after it. Patches are absolute
// state (idempotent), so replaying a log twice gives the same model.
func replayRecords(recs []store.Record, geo tree.Geometry) (*snapModel, error) {
	var m *snapModel
	machineOf := func(r *snapReader) (*machineModel, error) {
		if m == nil {
			return nil, fmt.Errorf("%w: delta record before any base snapshot", ErrBadSnapshot)
		}
		name := r.str()
		mm := m.machine(name)
		if mm == nil {
			return nil, fmt.Errorf("%w: delta for unknown machine %q", ErrBadSnapshot, name)
		}
		return mm, nil
	}
	regionOf := func(mm *machineModel, r *snapReader) (*regionModel, error) {
		region := int(r.u32())
		rm := mm.regionModel(region)
		if rm == nil {
			return nil, fmt.Errorf("%w: delta for region %d outside the base snapshot of %q", ErrBadSnapshot, region, mm.name)
		}
		return rm, nil
	}
	for i, rec := range recs {
		switch rec.Type {
		case recBase:
			base, err := decodeModel(rec.Payload)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			m = base
		case recMachine:
			r := &snapReader{buf: rec.Payload}
			mm, err := machineOf(r)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			mm.clockNow = sim.Time(r.f64())
			mm.stats = decodeStats(r)
			if r.err != nil {
				return nil, fmt.Errorf("record %d: %w", i, r.err)
			}
		case recRoot:
			r := &snapReader{buf: rec.Payload}
			mm, err := machineOf(r)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			rm, err := regionOf(mm, r)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			rm.rootCounter = r.u64()
			if r.err != nil {
				return nil, fmt.Errorf("record %d: %w", i, r.err)
			}
		case recNode:
			r := &snapReader{buf: rec.Payload}
			mm, err := machineOf(r)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			rm, err := regionOf(mm, r)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			level, index := int(r.u32()), int(r.u32())
			node := r.bytes()
			if r.err != nil {
				return nil, fmt.Errorf("record %d: %w", i, r.err)
			}
			if level < 0 || level >= geo.Levels() || index < 0 || index >= geo.NodesAtLevel(level) ||
				len(node) != geo.NodeSize(level) {
				return nil, fmt.Errorf("%w: record %d patches node (%d,%d) with %d bytes", ErrBadSnapshot, i, level, index, len(node))
			}
			off := geo.NodeOffset(level, index)
			if off+len(node) > len(rm.tree) {
				return nil, fmt.Errorf("%w: record %d node patch outside serialized tree", ErrBadSnapshot, i)
			}
			copy(rm.tree[off:], node)
		case recLine:
			r := &snapReader{buf: rec.Payload}
			mm, err := machineOf(r)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			rm, err := regionOf(mm, r)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i, err)
			}
			line := int(r.u32())
			ct := r.bytes()
			mac := r.u64()
			if r.err != nil {
				return nil, fmt.Errorf("record %d: %w", i, r.err)
			}
			if line < 0 || line >= len(rm.lineMACs) || len(ct) != engine.LineSize ||
				(line+1)*engine.LineSize > len(rm.data) {
				return nil, fmt.Errorf("%w: record %d patches line %d with %d bytes", ErrBadSnapshot, i, line, len(ct))
			}
			copy(rm.data[line*engine.LineSize:], ct)
			rm.lineMACs[line] = mac
		default:
			return nil, fmt.Errorf("%w: record %d has unknown type %d", ErrBadSnapshot, i, rec.Type)
		}
	}
	if m == nil {
		return nil, fmt.Errorf("%w: log holds no base snapshot", ErrBadSnapshot)
	}
	return m, nil
}

// Open resumes a cluster from the last committed state of a WithStore
// directory: recover the commit record, replay base + deltas, restore
// with full re-verification, and keep checkpointing into the same store.
// A store that never committed returns ErrNoSnapshot. Structural options
// are rejected as in Load; WithStore is implied by path and rejected too.
func Open(path string, opts ...Option) (*Cluster, error) {
	s, err := applySettings(opts)
	if err != nil {
		return nil, err
	}
	if s.set&structuralSettings != 0 {
		return nil, errors.New("mmt: Open: the snapshot pins profile, tree levels, regions and net latency; drop the structural options")
	}
	if s.set&setStore != 0 {
		return nil, errors.New("mmt: Open: the path argument names the store; drop WithStore")
	}
	st, err := store.Open(store.Dir{Path: path})
	if err != nil {
		return nil, err
	}
	c, err := openFromStore(st, s)
	if err != nil {
		st.Close()
		return nil, err
	}
	c.set.storePath = path
	return c, nil
}

// openFromStore resumes from an already-open store (shared by Open and
// the in-memory crash tests).
func openFromStore(st *store.Store, s settings) (*Cluster, error) {
	if !st.HasCommit() {
		return nil, ErrNoSnapshot
	}
	cr, err := st.Committed()
	if err != nil {
		return nil, err
	}
	recs, err := st.CommittedRecords()
	if err != nil {
		return nil, err
	}
	// The geometry needed to interpret node patches comes from the base
	// record inside the log itself.
	var geoLevels int
	for _, rec := range recs {
		if rec.Type == recBase {
			base, err := decodeModel(rec.Payload)
			if err != nil {
				return nil, err
			}
			geoLevels = base.treeLevels
		}
	}
	if geoLevels == 0 {
		return nil, fmt.Errorf("%w: log holds no base snapshot", ErrBadSnapshot)
	}
	geo := tree.ForLevels(geoLevels)
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	m, err := replayRecords(recs, geo)
	if err != nil {
		return nil, err
	}
	c, err := restoreCluster(m, s, cr.RootHash)
	if err != nil {
		return nil, err
	}
	c.ckpt = st
	c.needBase = true // the first commit after resume re-bases the log
	return c, nil
}

// ---------------------------------------------------------------------------
// Manifest: the human/CI-facing description of a snapshot.

// Manifest describes one saved snapshot or store commit. Its JSON form
// (WriteJSON) carries schema "mmt-manifest/v1" and validates with
// cmd/mmt-tracecheck.
type Manifest struct {
	Schema string `json:"schema"`
	// Epoch is the store commit epoch (0 for a direct Save).
	Epoch uint64 `json:"epoch"`
	// RootHash is the hex SHA-256 of the canonical snapshot blob.
	RootHash string `json:"root_hash"`
	// SnapshotBytes is the encoded size (blob + hash trailer for Save;
	// base blob size for store commits).
	SnapshotBytes int    `json:"snapshot_bytes"`
	TreeLevels    int    `json:"tree_levels"`
	Regions       int    `json:"regions"`
	Profile       string `json:"profile"`
	Machines      []ManifestMachine `json:"machines"`
	Links         []string          `json:"links"`
}

// ManifestMachine is one machine's row in a Manifest.
type ManifestMachine struct {
	Name        string  `json:"name"`
	NodeID      uint16  `json:"node_id"`
	Clock       float64 `json:"clock_seconds"`
	LiveRegions int     `json:"live_regions"`
}

func manifestFor(m *snapModel, epoch uint64, hash [32]byte, size int) *Manifest {
	mf := &Manifest{
		Schema:        "mmt-manifest/v1",
		Epoch:         epoch,
		RootHash:      hex.EncodeToString(hash[:]),
		SnapshotBytes: size,
		TreeLevels:    m.treeLevels,
		Regions:       m.regions,
		Profile:       m.profile.Name,
		Machines:      []ManifestMachine{},
		Links:         []string{},
	}
	for _, mm := range m.machines {
		mf.Machines = append(mf.Machines, ManifestMachine{
			Name:        mm.name,
			NodeID:      uint16(mm.mon.NodeID),
			Clock:       float64(mm.clockNow),
			LiveRegions: len(mm.regions),
		})
	}
	for _, l := range m.links {
		mf.Links = append(mf.Links, l.id)
	}
	return mf
}

// Manifest describes the cluster's current state as Save would snapshot
// it (Epoch reflects the attached store's committed epoch, 0 without a
// store). Requires quiescence.
func (c *Cluster) Manifest() (*Manifest, error) {
	m, err := c.buildModel()
	if err != nil {
		return nil, err
	}
	blob := encodeModel(m)
	hash := sha256.Sum256(blob)
	var epoch uint64
	if c.ckpt != nil {
		epoch = c.ckpt.Epoch()
	}
	return manifestFor(m, epoch, hash, len(blob)+sha256.Size), nil
}

// WriteJSON renders the manifest as indented mmt-manifest/v1 JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
