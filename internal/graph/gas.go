// Package graph implements the distributed Gather-Apply-Scatter engine of
// §VI-C2: a partitioned graph across simulated machines where each GAS
// iteration runs gather, apply, scatter, plus the paper's added
// remote-transfer phase that ships cross-machine messages through one of
// the three transfer channels. PageRank is the bundled apply function.
//
// Buffering follows Figure 14a: each machine keeps a scatter buffer per
// peer; at the remote-transfer phase the buffer is flushed (one message per
// peer per iteration) into the peer's gather buffer, so the gather phase
// always starts with all remote messages locally resident.
package graph

import (
	"encoding/binary"
	"fmt"
	"math"

	"mmt/internal/channel"
	"mmt/internal/core"
	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/forest"
	"mmt/internal/mem"
	"mmt/internal/netsim"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

// Mode mirrors mapreduce.Mode for the three channel schemes.
type Mode int

const (
	// NonSecure runs with the MMT engine disabled (Figure 14's
	// "Non-secure").
	NonSecure Mode = iota
	// SecureChannel protects remote transfers with AES-GCM.
	SecureChannel
	// MMT uses closure delegation for remote transfers.
	MMT
)

func (m Mode) String() string {
	switch m {
	case NonSecure:
		return "non-secure"
	case SecureChannel:
		return "secure-channel"
	case MMT:
		return "mmt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config sizes a GAS run.
type Config struct {
	Machines int
	Mode     Mode
	Profile  *sim.Profile
	Geometry tree.Geometry // MMT mode only
	// PoolRegions is the per-channel delegation buffer pool.
	PoolRegions int
	// GatherCycles, ApplyCycles, ScatterCycles model per-edge/per-vertex
	// compute.
	GatherCyclesPerMsg   float64
	ApplyCyclesPerVertex float64
	ScatterCyclesPerEdge float64
	NetLatency           sim.Time
	// Iterations caps the GAS loop.
	Iterations int
	// Damping is the PageRank damping factor (0.85 if zero).
	Damping float64
	// Epsilon, when positive, stops early once the L1 rank delta of an
	// iteration falls below it (convergence-based termination).
	Epsilon float64
	// Trace, when non-nil, receives each machine's compute charges as
	// app-compute phase cycles (probe "gas-m<i>"). Nil disables tracing
	// with no overhead.
	Trace *trace.Sink
}

// PhaseBreakdown records where one machine's cycles went — the Figure 14b
// phase split.
type PhaseBreakdown struct {
	Gather, Apply, Scatter, RemoteTransfer sim.Cycles
}

// Total sums the phases.
func (p PhaseBreakdown) Total() sim.Cycles {
	return p.Gather + p.Apply + p.Scatter + p.RemoteTransfer
}

// Result is the outcome of one PageRank run.
type Result struct {
	Ranks   []float64
	Elapsed sim.Time
	// Breakdown aggregates phase cycles across machines.
	Breakdown PhaseBreakdown
	// CrossEdges is the cross-machine edge count (message volume driver).
	CrossEdges int
	// Iterations is the number of GAS iterations actually executed (may be
	// below the cap when Epsilon converges early).
	Iterations int
}

// vertexMsg is one scatter message: rank mass pushed along an edge.
type vertexMsg struct {
	Dst  int32
	Mass float64
}

func encodeMsgs(msgs []vertexMsg) []byte {
	out := make([]byte, 4+12*len(msgs))
	binary.LittleEndian.PutUint32(out, uint32(len(msgs)))
	off := 4
	for _, m := range msgs {
		binary.LittleEndian.PutUint32(out[off:], uint32(m.Dst))
		binary.LittleEndian.PutUint64(out[off+4:], math.Float64bits(m.Mass))
		off += 12
	}
	return out
}

func decodeMsgs(b []byte) ([]vertexMsg, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("graph: short message block")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) != 4+12*n {
		return nil, fmt.Errorf("graph: message block %d bytes for %d messages", len(b), n)
	}
	msgs := make([]vertexMsg, n)
	for i := range msgs {
		off := 4 + 12*i
		msgs[i] = vertexMsg{
			Dst:  int32(binary.LittleEndian.Uint32(b[off:])),
			Mass: math.Float64frombits(binary.LittleEndian.Uint64(b[off+4:])),
		}
	}
	return msgs, nil
}

// machine is one GAS worker.
type machine struct {
	id        int
	clock     *sim.Clock
	node      *core.Node
	probe     *trace.Probe
	sendTo    map[int]channel.Transport
	recvFrom  map[int]channel.Transport
	breakdown PhaseBreakdown
	next      int // region allocator
}

func (m *machine) takeRegions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = m.next
		m.next++
	}
	return out
}

// PageRank runs the damped PageRank algorithm for cfg.Iterations over g,
// partitioned across cfg.Machines machines.
func PageRank(cfg Config, g *workload.Graph) (*Result, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("graph: need at least one machine")
	}
	if cfg.Profile == nil {
		return nil, fmt.Errorf("graph: nil profile")
	}
	if cfg.Iterations < 1 {
		cfg.Iterations = 1
	}
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.PoolRegions == 0 {
		cfg.PoolRegions = 4
	}
	owner, cross := g.Partition(cfg.Machines)
	net := netsim.NewNetwork(cfg.NetLatency)

	// Build machines.
	machines := make([]*machine, cfg.Machines)
	for i := range machines {
		m := &machine{id: i, clock: sim.NewClock(cfg.Profile.FreqHz),
			probe:  cfg.Trace.Probe(fmt.Sprintf("gas-m%d", i)),
			sendTo: map[int]channel.Transport{}, recvFrom: map[int]channel.Transport{}}
		if cfg.Mode == MMT {
			peers := cfg.Machines - 1
			regions := 2 * peers * cfg.PoolRegions
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
			m.node = core.NewNode(forest.NodeID(i+1), ctl)
		}
		machines[i] = m
	}

	// Pairwise links (both directions on distinct endpoints).
	for i := 0; i < cfg.Machines; i++ {
		for j := i + 1; j < cfg.Machines; j++ {
			for _, dir := range [][2]int{{i, j}, {j, i}} {
				src, dst := machines[dir[0]], machines[dir[1]]
				tag := fmt.Sprintf("g%d-%d", dir[0], dir[1])
				epS, err := net.Attach(tag+"/s", src.clock)
				if err != nil {
					return nil, err
				}
				epD, err := net.Attach(tag+"/d", dst.clock)
				if err != nil {
					return nil, err
				}
				key := crypt.KeyFromBytes([]byte(tag))
				switch cfg.Mode {
				case NonSecure:
					src.sendTo[dst.id] = channel.NewNonSecure(epS, tag+"/d", cfg.Profile)
					dst.recvFrom[src.id] = channel.NewNonSecure(epD, tag+"/s", cfg.Profile)
				case SecureChannel:
					sc, err := channel.NewSecure(epS, tag+"/d", cfg.Profile, key)
					if err != nil {
						return nil, err
					}
					rc, err := channel.NewSecure(epD, tag+"/s", cfg.Profile, key)
					if err != nil {
						return nil, err
					}
					src.sendTo[dst.id] = sc
					dst.recvFrom[src.id] = rc
				case MMT:
					src.sendTo[dst.id] = channel.AsTransport(channel.NewDelegation(
						epS, tag+"/d", cfg.Profile, src.node, core.NewConn(key, 0), src.takeRegions(cfg.PoolRegions)))
					dst.recvFrom[src.id] = channel.AsTransport(channel.NewDelegation(
						epD, tag+"/s", cfg.Profile, dst.node, core.NewConn(key, 0), dst.takeRegions(cfg.PoolRegions)))
				}
			}
		}
	}

	// Per-machine edge lists and out-degrees.
	outDeg := make([]int, g.N)
	for _, e := range g.Edges {
		outDeg[e[0]]++
	}
	localEdges := make([][][2]int32, cfg.Machines)
	for _, e := range g.Edges {
		localEdges[owner[e[0]]] = append(localEdges[owner[e[0]]], e)
	}

	ranks := make([]float64, g.N)
	for v := range ranks {
		ranks[v] = 1.0 / float64(g.N)
	}
	incoming := make([]float64, g.N)

	chargePhase := func(m *machine, bucket *sim.Cycles, before sim.Time) {
		delta := sim.TimeToCycles(m.clock.Now()-before, cfg.Profile.FreqHz)
		*bucket += delta
	}

	iterationsRun := 0
	for iter := 0; iter < cfg.Iterations; iter++ {
		iterationsRun++
		// Scatter: each machine pushes rank mass along its out-edges,
		// buffering cross-machine messages per destination machine.
		outbox := make([]map[int][]vertexMsg, cfg.Machines)
		for mi, m := range machines {
			start := m.clock.Now()
			outbox[mi] = map[int][]vertexMsg{}
			for _, e := range localEdges[mi] {
				src, dst := int(e[0]), int(e[1])
				mass := ranks[src] / float64(outDeg[src])
				if owner[dst] == mi {
					incoming[dst] += mass
				} else {
					outbox[mi][owner[dst]] = append(outbox[mi][owner[dst]], vertexMsg{Dst: int32(dst), Mass: mass})
				}
			}
			cost := sim.Cycles(float64(len(localEdges[mi])) * cfg.ScatterCyclesPerEdge)
			m.probe.Charge(m.clock, trace.PhaseApp, cost)
			chargePhase(m, &m.breakdown.Scatter, start)
		}

		// Remote-transfer: flush scatter buffers to peers' gather buffers.
		for mi, m := range machines {
			start := m.clock.Now()
			for peer := 0; peer < cfg.Machines; peer++ {
				if peer == mi {
					continue
				}
				if err := m.sendTo[peer].Send(encodeMsgs(outbox[mi][peer])); err != nil {
					return nil, fmt.Errorf("machine %d -> %d: %w", mi, peer, err)
				}
			}
			chargePhase(m, &m.breakdown.RemoteTransfer, start)
		}
		for mi, m := range machines {
			start := m.clock.Now()
			for peer := 0; peer < cfg.Machines; peer++ {
				if peer == mi {
					continue
				}
				payload, err := m.recvFrom[peer].Recv()
				if err != nil {
					return nil, fmt.Errorf("machine %d <- %d: %w", mi, peer, err)
				}
				msgs, err := decodeMsgs(payload)
				if err != nil {
					return nil, err
				}
				for _, msg := range msgs {
					incoming[msg.Dst] += msg.Mass
				}
			}
			chargePhase(m, &m.breakdown.RemoteTransfer, start)
		}

		// Gather + apply: fold incoming mass into new ranks.
		msgsPerMachine := make([]int, cfg.Machines)
		verticesPer := make([]int, cfg.Machines)
		for v := 0; v < g.N; v++ {
			verticesPer[owner[v]]++
			if incoming[v] != 0 {
				msgsPerMachine[owner[v]]++
			}
		}
		delta := 0.0
		for v := 0; v < g.N; v++ {
			next := (1-cfg.Damping)/float64(g.N) + cfg.Damping*incoming[v]
			delta += math.Abs(next - ranks[v])
			ranks[v] = next
			incoming[v] = 0
		}
		for mi, m := range machines {
			start := m.clock.Now()
			gatherCost := sim.Cycles(float64(msgsPerMachine[mi]) * cfg.GatherCyclesPerMsg)
			m.probe.Charge(m.clock, trace.PhaseApp, gatherCost)
			chargePhase(m, &m.breakdown.Gather, start)
			start = m.clock.Now()
			applyCost := sim.Cycles(float64(verticesPer[mi]) * cfg.ApplyCyclesPerVertex)
			m.probe.Charge(m.clock, trace.PhaseApp, applyCost)
			chargePhase(m, &m.breakdown.Apply, start)
		}
		if cfg.Epsilon > 0 && delta < cfg.Epsilon {
			break
		}
	}

	res := &Result{Ranks: ranks, CrossEdges: cross, Iterations: iterationsRun}
	for _, m := range machines {
		if m.clock.Now() > res.Elapsed {
			res.Elapsed = m.clock.Now()
		}
		res.Breakdown.Gather += m.breakdown.Gather
		res.Breakdown.Apply += m.breakdown.Apply
		res.Breakdown.Scatter += m.breakdown.Scatter
		res.Breakdown.RemoteTransfer += m.breakdown.RemoteTransfer
	}
	return res, nil
}
