package mapreduce

import (
	"fmt"

	"mmt/internal/channel"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/mem"
	"mmt/internal/netsim"
	"mmt/internal/par"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// Mode selects the shuffle protection scheme (the three configurations of
// Figure 13).
type Mode int

const (
	// Baseline shuffles over unprotected remote writes.
	Baseline Mode = iota
	// SecureChannel shuffles over software AES-GCM.
	SecureChannel
	// MMT shuffles over MMT closure delegation.
	MMT
)

func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case SecureChannel:
		return "secure-channel"
	case MMT:
		return "mmt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config sizes one MapReduce job.
type Config struct {
	Mappers  int
	Reducers int
	Mode     Mode
	// Profile is the node cost model (cloned per machine so clocks stay
	// independent).
	Profile *sim.Profile
	// Geometry is the MMT tree shape (MMT mode only).
	Geometry tree.Geometry
	// PoolRegions is the buffer-region pool per delegation channel (MMT
	// mode only). It must cover the chunks of one partition in flight.
	PoolRegions int
	// MapCyclesPerByte and ReduceCyclesPerKV model the compute phases;
	// Figure 13a sweeps these to set the communication fraction.
	MapCyclesPerByte  float64
	ReduceCyclesPerKV float64
	// Combiner, when set, folds each mapper's partition locally before the
	// shuffle (the classic combiner optimization): values of equal keys
	// are pre-reduced, shrinking the intermediate transfer.
	Combiner Reducer
	// NetLatency is the interconnect one-way propagation delay.
	NetLatency sim.Time
	// Trace, when non-nil, collects per-machine phase cycles, counters and
	// spans for the whole job (one trace process per simulated host).
	Trace *trace.Sink
	// Workers caps the host goroutines used for machine construction and
	// the pure compute halves of the map and reduce epochs. <= 1 (the
	// default) runs the job entirely on the calling goroutine. The result
	// — outputs, simulated times, trace bytes — is identical at any
	// setting: all clock, trace and network effects are applied serially
	// in machine order.
	Workers int
}

// workers reports the effective fan-out width (always >= 1).
func (c Config) workers() int {
	if c.Workers > 1 {
		return c.Workers
	}
	return 1
}

func (c Config) validate() error {
	switch {
	case c.Mappers < 1 || c.Reducers < 1:
		return fmt.Errorf("mapreduce: need at least one mapper and one reducer")
	case c.Profile == nil:
		return fmt.Errorf("mapreduce: nil profile")
	case c.Mode == MMT && c.Geometry.Validate() != nil:
		return fmt.Errorf("mapreduce: MMT mode needs a valid geometry")
	}
	return nil
}

// Result is the outcome of one job.
type Result struct {
	// Elapsed is the makespan: the latest simulated clock across machines.
	Elapsed sim.Time
	// Output is the final reduced key-value map.
	Output map[string]int64
	// ShuffleBytes counts intermediate bytes crossing machines.
	ShuffleBytes int
	// CommCycles aggregates channel costs across all machines.
	CommCycles sim.Cycles
	// MapTime and ReduceTime are per-machine finish times.
	MapTime    []sim.Time
	ReduceTime []sim.Time
}

// machine is one simulated host.
type machine struct {
	name  string
	clock *sim.Clock
	node  *core.Node   // MMT mode only
	probe *trace.Probe // nil = tracing disabled
	// nextRegion hands out disjoint region ranges to this machine's
	// delegation channels.
	nextRegion int
}

// newMachine builds one host. The trace probe is passed in rather than
// registered here so that machines can be constructed in parallel:
// Sink.Probe mutates the shared sink, so Run registers all probes
// serially first.
func newMachine(cfg Config, name string, id int, channels int, probe *trace.Probe) (*machine, error) {
	m := &machine{name: name, clock: sim.NewClock(cfg.Profile.FreqHz), probe: probe}
	if cfg.Mode != MMT {
		return m, nil
	}
	regions := channels * cfg.PoolRegions
	if regions < 1 {
		regions = 1
	}
	pm := mem.New(mem.Config{
		Size:          regions * cfg.Geometry.DataSize(),
		RegionSize:    cfg.Geometry.DataSize(),
		MetaPerRegion: cfg.Geometry.MetaSize(),
	})
	ctl, err := engine.New(pm, cfg.Geometry, m.clock, cfg.Profile)
	if err != nil {
		return nil, err
	}
	ctl.SetTrace(m.probe)
	m.node = core.NewNode(forest.NodeID(id), ctl)
	return m, nil
}

// takeRegions reserves n regions for one channel.
func (m *machine) takeRegions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = m.nextRegion
		m.nextRegion++
	}
	return out
}

// link wires one direction of a mapper<->reducer pair: a dedicated
// endpoint pair (QP-like), returning the transports for each side.
func link(cfg Config, net *netsim.Network, a, b *machine, tag string) (channel.Transport, channel.Transport, error) {
	nameA := a.name + "/" + tag
	nameB := b.name + "/" + tag
	epA, err := net.Attach(nameA, a.clock)
	if err != nil {
		return nil, nil, err
	}
	epB, err := net.Attach(nameB, b.clock)
	if err != nil {
		return nil, nil, err
	}
	// Endpoint and channel activity both land under the owning machine's
	// trace process, so a host's wire bytes and channel cycles aggregate.
	epA.SetTrace(a.probe)
	epB.SetTrace(b.probe)
	key := crypt.KeyFromBytes([]byte("mr/" + tag))
	switch cfg.Mode {
	case Baseline:
		nsA := channel.NewNonSecure(epA, nameB, cfg.Profile)
		nsB := channel.NewNonSecure(epB, nameA, cfg.Profile)
		nsA.SetTrace(a.probe)
		nsB.SetTrace(b.probe)
		return nsA, nsB, nil
	case SecureChannel:
		scA, err := channel.NewSecure(epA, nameB, cfg.Profile, key)
		if err != nil {
			return nil, nil, err
		}
		scB, err := channel.NewSecure(epB, nameA, cfg.Profile, key)
		if err != nil {
			return nil, nil, err
		}
		scA.SetTrace(a.probe)
		scB.SetTrace(b.probe)
		return scA, scB, nil
	case MMT:
		connA := core.NewConn(key, 0)
		connB := core.NewConn(key, 0)
		da := channel.NewDelegation(epA, nameB, cfg.Profile, a.node, connA, a.takeRegions(cfg.PoolRegions))
		db := channel.NewDelegation(epB, nameA, cfg.Profile, b.node, connB, b.takeRegions(cfg.PoolRegions))
		da.SetTrace(a.probe)
		db.SetTrace(b.probe)
		return channel.AsTransport(da), channel.AsTransport(db), nil
	default:
		return nil, nil, fmt.Errorf("mapreduce: unknown mode %v", cfg.Mode)
	}
}

// statser lets Run aggregate channel costs regardless of transport type.
type statser interface{ Stats() channel.Stats }

// Run executes a full job: split, map, shuffle, reduce.
func Run(cfg Config, input []byte, mapf Mapper, redf Reducer) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PoolRegions == 0 {
		cfg.PoolRegions = 4
	}
	net := netsim.NewNetwork(cfg.NetLatency)

	// Machine construction fans out across workers: in MMT mode each host
	// builds a full engine (trees, pools), which dominates small-job setup.
	// Probes register serially first — Sink.Probe mutates the shared sink —
	// so process order in the trace matches the serial run.
	type mdesc struct {
		name     string
		id       int
		channels int
		probe    *trace.Probe
	}
	descs := make([]mdesc, 0, cfg.Mappers+cfg.Reducers)
	for i := 0; i < cfg.Mappers; i++ {
		descs = append(descs, mdesc{fmt.Sprintf("mapper-%d", i), 1 + i, cfg.Reducers, nil})
	}
	for j := 0; j < cfg.Reducers; j++ {
		descs = append(descs, mdesc{fmt.Sprintf("reducer-%d", j), 1 + cfg.Mappers + j, cfg.Mappers, nil})
	}
	for i := range descs {
		descs[i].probe = cfg.Trace.Probe(descs[i].name)
	}
	machines, err := par.Map(cfg.workers(), descs, func(_ int, d mdesc) (*machine, error) {
		return newMachine(cfg, d.name, d.id, d.channels, d.probe)
	})
	if err != nil {
		return nil, err
	}
	mappers := machines[:cfg.Mappers]
	reducers := machines[cfg.Mappers:]

	// All-to-all links: sendside[m][j] on the mapper, recvside[j][m] on the
	// reducer.
	sendSide := make([][]channel.Transport, cfg.Mappers)
	recvSide := make([][]channel.Transport, cfg.Reducers)
	for j := range recvSide {
		recvSide[j] = make([]channel.Transport, cfg.Mappers)
	}
	var allTransports []channel.Transport
	for i := range mappers {
		sendSide[i] = make([]channel.Transport, cfg.Reducers)
		for j := range reducers {
			a, b, err := link(cfg, net, mappers[i], reducers[j], fmt.Sprintf("m%dr%d", i, j))
			if err != nil {
				return nil, err
			}
			sendSide[i][j] = a
			recvSide[j][i] = b
			allTransports = append(allTransports, a, b)
		}
	}

	res := &Result{Output: make(map[string]int64)}

	// Map phase. The epoch splits in two: the pure compute half (run the
	// map function, partition, combine, encode) fans out across workers —
	// it touches only the mapper's own chunk — while the effect half
	// (cycle charges, trace spans, shuffle sends through the shared
	// network) replays serially in mapper order, reproducing the serial
	// schedule exactly.
	chunks := splitInput(input, cfg.Mappers)
	type mapOut struct {
		payloads [][]byte // encoded partition per reducer
		rawLens  []int    // pre-combine KV counts (combiner cost model)
	}
	mapOuts, err := par.Map(cfg.workers(), chunks, func(_ int, chunk []byte) (mapOut, error) {
		parts := make([][]KV, cfg.Reducers)
		mapf(chunk, func(k string, v int64) {
			p := partitionOf(k, cfg.Reducers)
			parts[p] = append(parts[p], KV{Key: k, Value: v})
		})
		out := mapOut{payloads: make([][]byte, cfg.Reducers), rawLens: make([]int, cfg.Reducers)}
		for j, part := range parts {
			out.rawLens[j] = len(part)
			if cfg.Combiner != nil {
				part = combine(part, cfg.Combiner)
			}
			out.payloads[j] = encodeKVs(part)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range mappers {
		mapSpan := m.probe.Begin(trace.PhaseApp, m.clock.Now())
		mapCost := sim.Cycles(float64(len(chunks[i])) * cfg.MapCyclesPerByte)
		m.probe.Charge(m.clock, trace.PhaseApp, mapCost)
		mapSpan.End(m.clock.Now())
		for j := range reducers {
			if cfg.Combiner != nil {
				combineCost := sim.Cycles(float64(mapOuts[i].rawLens[j]) * cfg.ReduceCyclesPerKV / 2)
				m.probe.Charge(m.clock, trace.PhaseApp, combineCost)
			}
			payload := mapOuts[i].payloads[j]
			res.ShuffleBytes += len(payload)
			if err := sendSide[i][j].Send(payload); err != nil {
				return nil, fmt.Errorf("mapper %d -> reducer %d: %w", i, j, err)
			}
		}
		res.MapTime = append(res.MapTime, m.clock.Now())
	}

	// Reduce phase, split like the map phase: receives go first, serially
	// in reducer order (they advance clocks and move messages through the
	// shared network); the pure fold — decode, merge, sort, reduce — fans
	// out across workers; the cycle charges, spans and output merge replay
	// serially in reducer order.
	received := make([][][]byte, cfg.Reducers)
	for j := range reducers {
		received[j] = make([][]byte, cfg.Mappers)
		for i := range mappers {
			payload, err := recvSide[j][i].Recv()
			if err != nil {
				return nil, fmt.Errorf("reducer %d <- mapper %d: %w", j, i, err)
			}
			received[j][i] = payload
		}
	}
	type redOut struct {
		pairs int
		keys  []string // sorted
		vals  map[string]int64
	}
	redOuts, err := par.Map(cfg.workers(), received, func(_ int, payloads [][]byte) (redOut, error) {
		byKey := make(map[string][]int64)
		out := redOut{vals: make(map[string]int64)}
		for _, payload := range payloads {
			kvs, err := decodeKVs(payload)
			if err != nil {
				return redOut{}, err
			}
			for _, kv := range kvs {
				byKey[kv.Key] = append(byKey[kv.Key], kv.Value)
				out.pairs++
			}
		}
		out.keys = sortedKeys(byKey)
		for _, k := range out.keys {
			out.vals[k] = redf(k, byKey[k])
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for j, r := range reducers {
		redSpan := r.probe.Begin(trace.PhaseApp, r.clock.Now())
		redCost := sim.Cycles(float64(redOuts[j].pairs) * cfg.ReduceCyclesPerKV)
		r.probe.Charge(r.clock, trace.PhaseApp, redCost)
		redSpan.End(r.clock.Now())
		for _, k := range redOuts[j].keys {
			res.Output[k] = redOuts[j].vals[k]
		}
		res.ReduceTime = append(res.ReduceTime, r.clock.Now())
	}

	// Makespan and aggregate comm costs.
	for _, m := range append(append([]*machine(nil), mappers...), reducers...) {
		if m.clock.Now() > res.Elapsed {
			res.Elapsed = m.clock.Now()
		}
	}
	for _, tr := range allTransports {
		if s, ok := tr.(statser); ok {
			res.CommCycles += s.Stats().Total()
		}
	}
	return res, nil
}
