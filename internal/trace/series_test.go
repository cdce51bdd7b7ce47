package trace

import (
	"bytes"
	"sync"
	"testing"

	"mmt/internal/sim"
)

// driveWindows advances the clock through n windows, charging a mix of
// counters, fractional phase cycles and op latencies into p each step.
// The fractional charges (0.3 is not dyadic) are the point: they force
// the sampler's exact-delta construction to actually correct rounding.
func driveWindows(clock *sim.Clock, p *Probe, n, stepsPerWindow int, windowCycles uint64) {
	for i := 0; i < n*stepsPerWindow; i++ {
		p.Count(CtrNodeCacheHits, 2)
		p.Count(CtrMACVerifies, 1)
		p.addCycles(PhaseTreeWalk, sim.Cycles(float64(i%7)+0.3))
		p.addCycles(PhaseMAC, 11.7)
		p.RecordOp(OpLocalRead, sim.Cycles(float64(i%13)+0.1))
		clock.Advance(sim.CyclesToTime(sim.Cycles(float64(windowCycles)/float64(stepsPerWindow)), clock.Freq()))
	}
}

// TestSeriesDeltaSumExact is the sampler's core invariant: the evicted
// aggregate plus the retained per-window deltas, summed left to right
// in float64, equal the cumulative accumulator totals EXACTLY — no
// tolerance — even with non-dyadic charges and ring eviction folding
// old deltas into the base. This is what lets mmt-tracecheck verify
// series artifacts with ==.
func TestSeriesDeltaSumExact(t *testing.T) {
	const shift = 10
	s := NewSink()
	if err := s.EnableSeries(SeriesConfig{WindowShift: shift, MaxSamples: 4}); err != nil {
		t.Fatal(err)
	}
	p := s.Probe("alice")
	clock := sim.NewClock(1e9)
	clock.SetWindowHook(shift, p.ObserveWindow)

	// 20 windows against a 4-sample ring: most deltas evict into the base.
	driveWindows(clock, p, 20, 8, 1<<shift)

	v, ok := s.SeriesSnapshot()
	if !ok || len(v.Procs) != 1 {
		t.Fatalf("snapshot: ok=%v procs=%d", ok, len(v.Procs))
	}
	pr := &v.Procs[0]
	if pr.EvictedWindows == 0 {
		t.Fatal("scenario must evict: grow the window count")
	}
	if len(pr.Samples) > v.MaxSamples+1 {
		t.Fatalf("ring bound violated: %d samples > %d+1", len(pr.Samples), v.MaxSamples)
	}

	var sum seriesAccum
	if pr.EvictedWindows > 0 {
		sum.add(&pr.Evicted)
	}
	last := pr.EvictedThrough
	for i := range pr.Samples {
		d := &pr.Samples[i]
		if (i > 0 || pr.EvictedWindows > 0) && d.Window <= last {
			t.Fatalf("sample %d: window %d not after %d", i, d.Window, last)
		}
		last = d.Window
		sum.add(d)
	}
	for c := Counter(0); c < NumCounters; c++ {
		if sum.counters[c] != pr.Totals.Counters[c] {
			t.Errorf("counter %v: deltas sum to %d, totals %d", c, sum.counters[c], pr.Totals.Counters[c])
		}
	}
	for ph := Phase(0); ph < NumPhases; ph++ {
		if sum.cycles[ph] != pr.Totals.Cycles[ph] {
			t.Errorf("phase %v: deltas sum to %v, totals %v (must be bit-exact)", ph, sum.cycles[ph], pr.Totals.Cycles[ph])
		}
	}
	for op := Op(0); int(op) < NumOps; op++ {
		if sum.opCount[op] != pr.Totals.OpCount[op] || sum.opSum[op] != pr.Totals.OpSum[op] {
			t.Errorf("op %v: delta sums (%d, %v) != totals (%d, %v)",
				op, sum.opCount[op], sum.opSum[op], pr.Totals.OpCount[op], pr.Totals.OpSum[op])
		}
	}
	// And the totals match the live accumulators — nothing was lost
	// between the per-window images and the cumulative state.
	m := s.Snapshot()
	if got := pr.Totals.Cycles[PhaseMAC]; got != m.Procs[0].Cycles[PhaseMAC] {
		t.Errorf("series totals %v != accumulator %v", got, m.Procs[0].Cycles[PhaseMAC])
	}
}

// TestSeriesMergeReproducesSerial: sharded sinks (each machine's series
// recorded in its own worker sink, merged serially in input order)
// export byte-identical mmt-series/v1 documents to a single-sink run.
func TestSeriesMergeReproducesSerial(t *testing.T) {
	const shift = 9
	cfg := SeriesConfig{WindowShift: shift, MaxSamples: 8}
	run := func(p *Probe, clock *sim.Clock, seed int) {
		for i := 0; i < 60; i++ {
			p.Count(CtrTreeNodeWalks, uint64(seed))
			p.addCycles(PhaseData, sim.Cycles(float64((i+seed)%5)+0.9))
			p.RecordOp(OpLocalWrite, sim.Cycles(float64(seed)+0.25))
			clock.Advance(sim.CyclesToTime(150, clock.Freq()))
		}
	}

	serial := NewSink()
	if err := serial.EnableSeries(cfg); err != nil {
		t.Fatal(err)
	}
	for seed, name := range []string{"m0", "m1", "m2"} {
		p := serial.Probe(name)
		clock := sim.NewClock(1e9)
		clock.SetWindowHook(shift, p.ObserveWindow)
		run(p, clock, seed+1)
	}

	root := NewSink()
	if err := root.EnableSeries(cfg); err != nil {
		t.Fatal(err)
	}
	for seed, name := range []string{"m0", "m1", "m2"} {
		part := NewSink()
		if err := part.EnableSeries(cfg); err != nil {
			t.Fatal(err)
		}
		p := part.Probe(name)
		clock := sim.NewClock(1e9)
		clock.SetWindowHook(shift, p.ObserveWindow)
		run(p, clock, seed+1)
		root.Merge(part)
	}

	var a, b bytes.Buffer
	if err := serial.WriteSeriesJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteSeriesJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged series differs from serial:\nserial:\n%s\nmerged:\n%s", a.String(), b.String())
	}
}

// TestFlightRecorderFreeze mirrors the package-level mid-run snapshot
// test for the flight recorder: one goroutine records spans while the
// driver fires warn-severity events and observers poison the returned
// copies. Every frozen flight must be a detached, oldest-first copy of
// recent spans; poisoned snapshots must never leak back. Run with -race
// this also proves the recorder's locking discipline.
func TestFlightRecorderFreeze(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			begin := sim.Time(float64(i) * 1e-6)
			p.Span(PhaseTreeWalk, begin, begin+1e-7)
		}
	}()

	for round := 0; round < 200; round++ {
		p.Event(EvReplayReject, sim.Time(float64(round)*1e-6), uint64(round), "stale counter value")
		evs := s.SecEvents()
		for i := range evs {
			ev := &evs[i]
			if ev.Kind.Severity() < SevWarn {
				t.Fatalf("event %d: kind %v below warn made it into this test", i, ev.Kind)
			}
			for j := range ev.Flight {
				fs := &ev.Flight[j]
				if fs.Begin < 0 {
					t.Fatal("poisoned flight span leaked into the ledger")
				}
				if j > 0 && fs.Begin < ev.Flight[j-1].Begin {
					t.Fatalf("event %d: flight not oldest-first: %v after %v", i, fs.Begin, ev.Flight[j-1].Begin)
				}
			}
			// Poison the copy; later snapshots must not see it.
			for j := range ev.Flight {
				ev.Flight[j].Begin = -1
			}
		}
	}
	close(stop)
	wg.Wait()

	// Info-severity events stay lean: no flight freeze.
	p.Event(EvMigrationSend, 0, 0, "routine")
	evs := s.SecEvents()
	last := evs[len(evs)-1]
	if last.Kind != EvMigrationSend || last.Flight != nil {
		t.Fatalf("info event froze a flight: %+v", last)
	}
}

// TestSeriesDisabledZeroAlloc is the MMT008 acceptance contract: with
// tracing on but sampling off, the hot line path — counter bumps, cycle
// charges, op records, clock advances — allocates nothing. Sampling
// must be pay-for-what-you-enable.
func TestSeriesDisabledZeroAlloc(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")
	clock := sim.NewClock(1e9)
	if allocs := testing.AllocsPerRun(1000, func() {
		p.Count(CtrNodeCacheHits, 1)
		p.RecordOp(OpLocalRead, 12)
		p.Charge(clock, PhaseTreeWalk, 64)
	}); allocs != 0 {
		t.Fatalf("sampling-disabled hot path allocates %v per op", allocs)
	}
}

// TestEnableSeriesValidation: bad configs are rejected eagerly and
// reconfiguration with a different shape is refused (retention would
// depend on call timing otherwise, like SetEventCapacity).
func TestEnableSeriesValidation(t *testing.T) {
	s := NewSink()
	if err := s.EnableSeries(SeriesConfig{WindowShift: MaxWindowShift + 1}); err == nil {
		t.Fatal("window shift past MaxWindowShift accepted")
	}
	if _, ok := s.SeriesConfigured(); ok {
		t.Fatal("rejected config switched sampling on")
	}
	// Non-positive ring sizes take the default rather than erroring
	// (the public WithSampling option rejects them eagerly instead).
	if err := s.EnableSeries(SeriesConfig{WindowShift: 12, MaxSamples: -1}); err != nil {
		t.Fatal(err)
	}
	if cfg, ok := s.SeriesConfigured(); !ok || cfg.MaxSamples != DefaultSeriesCap || cfg.WindowShift != 12 {
		t.Fatalf("defaulted ring = %+v, %v", cfg, ok)
	}
	if err := s.EnableSeries(SeriesConfig{WindowShift: 13}); err == nil {
		t.Fatal("reconfiguration with a different window accepted")
	}
	if err := s.EnableSeries(SeriesConfig{WindowShift: 12}); err != nil {
		t.Fatalf("idempotent re-enable refused: %v", err)
	}
	if v, ok := s.SeriesSnapshot(); !ok || v.WindowCycles != 1<<12 {
		t.Fatalf("SeriesSnapshot window = %d, %v", v.WindowCycles, ok)
	}
	// The widest window is accepted and exported as 2^63 cycles.
	wide := NewSink()
	if err := wide.EnableSeries(SeriesConfig{WindowShift: MaxWindowShift}); err != nil {
		t.Fatal(err)
	}
	if v, _ := wide.SeriesSnapshot(); v.WindowCycles != 1<<63 {
		t.Fatalf("widest window exported as %d", v.WindowCycles)
	}
	// Disabled sinks export nothing.
	var buf bytes.Buffer
	if err := NewSink().WriteSeriesJSON(&buf); err == nil {
		t.Fatal("disabled sink exported a series document")
	}
}
