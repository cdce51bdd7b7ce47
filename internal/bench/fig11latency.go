package bench

import (
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
)

// This file adds a latency-distribution companion to the Figure 11
// throughput sweep: the same protected-read stream measured twice on one
// controller — once idle, once contending with real MMT closure
// delegations — with per-read cycle latencies recorded into the trace
// layer's fixed-bucket histograms. The paper reports only averages; the
// histograms expose what migration traffic does to the read *tail*
// (p99), which averages hide.

// Fig11Latency is the read-latency distribution of the contention
// scenario: one reader's protected reads with and without concurrent
// migration traffic on the same controller.
type Fig11Latency struct {
	// Reads is the measured read count per pass.
	Reads int
	// Migrations is the number of closure delegations interleaved with
	// the busy pass's read stream.
	Migrations int
	// Idle is the read-latency histogram with no competing traffic.
	Idle trace.Histogram
	// Busy is the same read stream with migrations: the delegation
	// producer's writes walk the shared MMT cache, so the reader's tree
	// nodes are evicted and its tail latency inflates.
	Busy trace.Histogram
}

// Scenario shape. The region is one 64 KB granule (1024 lines) so the
// whole experiment stays small; the MMT cache is shrunk until one
// working set fits but reader + producer together do not — the
// contention mechanism of the scenario.
const (
	latBurstInterval  = 64   // reads between migration bursts
	latReaderLines    = 256  // reader working set: a quarter of the region
	latProducerWrites = 128  // producer writes per migration burst
	latPayloadBytes   = 4096 // delegated payload per burst (one closure)
	// Virtual cache-key region indices for the timing-only access
	// streams, distinct from the real buffer regions 0..1.
	latReaderRegion   = 64
	latProducerRegion = 65
)

// latProfile is the scenario's cost model: the Gem5 calibration with the
// MMT cache shrunk to 2 KB. One 16x64 region's full node set is ~2.3 KB,
// so the reader's quarter-region set (~0.6 KB) fits alone but is evicted
// whenever the producer sweeps its whole region. The reader re-warms in
// a handful of misses, well inside one burst interval, which is what
// keeps the busy-pass *median* at the idle cost while the burst misses
// land in the tail.
func latProfile() *sim.Profile {
	prof := sim.Gem5Profile().Clone()
	prof.MMTCacheBytes = 2 << 10
	return prof
}

// fig11Latency runs the scenario and merges its trace (three processes:
// fig11-lat/idle, fig11-lat/busy, fig11-lat/rx) into sink. It returns
// the result plus the scenario's total charged cycles (the phase sum of
// its private sink), which the caller folds into the figure's cycle
// accounting. Runs serially — the two passes share one controller by
// design — so the result is identical at any sweep worker count.
func fig11Latency(reads int, sink *trace.Sink) (*Fig11Latency, sim.Cycles, error) {
	if reads <= 0 {
		reads = 20_000
	}
	geo := tree.Geometry{Arities: []int{16, 64}} // 1024 lines, 64 KB granule
	tb, err := newTestbed(latProfile(), geo, 2)
	if err != nil {
		return nil, 0, err
	}
	ls := trace.NewSink()
	if cfg, ok := sink.SeriesConfigured(); ok {
		if err := ls.EnableSeries(cfg); err != nil {
			return nil, 0, err
		}
	}
	ctl := tb.sender.Controller()

	// Deterministic reader stream over the reader working set.
	readerLine := func(i int) int {
		x := uint32(i)*2654435761 + 12345
		return int(x % latReaderLines)
	}

	// Warm untraced: mount the root, populate the node cache.
	for i := 0; i < latReaderLines; i++ {
		ctl.Access(latReaderRegion, readerLine(i), false)
	}

	// Pass 1: idle. Only the reader touches the controller.
	idle := ls.Probe("fig11-lat/idle")
	ctl.SetTrace(idle)
	if scfg, ok := ls.SeriesConfigured(); ok {
		ctl.Clock().SetWindowHook(scfg.WindowShift, idle.ObserveWindow)
	}
	for i := 0; i < reads; i++ {
		ctl.Access(latReaderRegion, readerLine(i), false)
	}

	// Pass 2: busy. Same read stream, but every burst interval the
	// producer fills an outgoing buffer through the protected write path
	// (sweeping its own region's tree nodes through the shared cache) and
	// delegates a closure to the receiver over the real protocol.
	busy := ls.Probe("fig11-lat/busy")
	rx := ls.Probe("fig11-lat/rx")
	ctl.SetTrace(busy)
	tb.epS.SetTrace(busy)
	tb.deleg.SetTrace(busy)
	tb.receiver.Controller().SetTrace(rx)
	tb.epR.SetTrace(rx)
	tb.delegR.SetTrace(rx)
	// Re-aim the machines' window hooks at the pass-2 processes: each
	// process's samples are deltas of its own accumulators, so switching
	// the sampled process mid-run stays exact per process.
	if scfg, ok := ls.SeriesConfigured(); ok {
		ctl.Clock().SetWindowHook(scfg.WindowShift, busy.ObserveWindow)
		tb.receiver.Controller().Clock().SetWindowHook(scfg.WindowShift, rx.ObserveWindow)
	}

	// Fixed burst interval: the migration (and therefore eviction-miss)
	// fraction of the read stream is the same at any reads count, so the
	// p99 contrast survives both the quick CI runs and full-length sweeps.
	migrations := 0
	for i := 0; i < reads; i++ {
		if i%latBurstInterval == 0 && i > 0 {
			migrations++
			for w := 0; w < latProducerWrites; w++ {
				ctl.Access(latProducerRegion, (w*8)%geo.Lines(), true)
			}
			if err := tb.deleg.Send(payload(latPayloadBytes)); err != nil {
				return nil, 0, err
			}
			got, err := tb.delegR.Recv()
			if err != nil {
				return nil, 0, err
			}
			if err := got.Release(); err != nil {
				return nil, 0, err
			}
		}
		ctl.Access(latReaderRegion, readerLine(i), false)
	}
	if err := tb.deleg.DrainAcks(); err != nil {
		return nil, 0, err
	}

	res := &Fig11Latency{Reads: reads, Migrations: migrations}
	m := ls.Snapshot()
	for i := range m.Procs {
		switch m.Procs[i].Proc {
		case "fig11-lat/idle":
			res.Idle = m.Procs[i].Ops[trace.OpLocalRead]
		case "fig11-lat/busy":
			res.Busy = m.Procs[i].Ops[trace.OpLocalRead]
		}
	}
	total := m.TotalCycles()
	sink.Merge(ls)
	return res, total, nil
}
