package trace

// series.go is the deterministic time-series layer: a sampler driven by
// the simulated clocks (sim.Clock window hooks) that turns each
// process's monotonic accumulators into bounded rings of per-window
// deltas, plus a per-process flight recorder of the most recent spans.
//
// The delta-sum contract: for every process, the evicted aggregate plus
// the retained samples plus the synthesized tail sum *exactly* (float64
// bit-exact, not approximately) to the end-of-run accumulator totals.
// Each delta d between cumulative images last and cur is constructed so
// that last+d == cur in float64 (see exactDelta); eviction folds deltas
// back into a base image, which by the same identity stays exactly the
// cumulative image at the eviction boundary. A left-to-right sum over
// the exported series therefore telescopes to the final totals with no
// rounding slack, and mmt-tracecheck verifies equality, not tolerance.
//
// Determinism under the parallel runner follows the same discipline as
// the rest of the sink: window indices are derived from simulated
// clocks, so worker sinks record identical samples regardless of worker
// count, and Merge folds per-process series state additively in input
// order. A machine's series lives entirely inside one work unit (the
// mmt-vet tracectx confinement rule), so the destination side of every
// fold is zero and the fold preserves the exact delta-sum contract.

import (
	"fmt"
	"math"

	"mmt/internal/sim"
)

// SeriesSchema identifies the series artifact written by WriteSeriesJSON.
const SeriesSchema = "mmt-series/v1"

// DefaultSeriesCap is the default per-process bound on retained window
// samples. Fixed, not tuned per run, so identical workloads keep
// identical series.
const DefaultSeriesCap = 64

// DefaultFlightCap is the default per-process bound on the flight
// recorder ring of recent spans.
const DefaultFlightCap = 16

// SeriesConfig configures the windowed sampler for a Sink.
type SeriesConfig struct {
	// WindowShift sets the sampling window to 2^WindowShift simulated
	// cycles; the window index is a shift of the cycle count. At most
	// MaxWindowShift.
	WindowShift uint
	// MaxSamples bounds the per-process sample ring; older samples fold
	// into the evicted aggregate. 0 means DefaultSeriesCap.
	MaxSamples int
}

// SeriesSample is one window's accumulator delta (or, for the evicted
// aggregate and totals, a cumulative image in the same shape).
type SeriesSample struct {
	// Window is the sample's window index: cycle range
	// [Window*W, (Window+1)*W) for window size W.
	Window   uint64
	Counters [NumCounters]uint64
	Cycles   [NumPhases]sim.Cycles
	// OpCount/OpSum are the per-operation histogram count and cycle-sum
	// deltas (bucket occupancy is not sampled; the end-of-run histogram
	// export carries the full distribution).
	OpCount [NumOps]uint64
	OpSum   [NumOps]sim.Cycles
}

// seriesAccum is a cumulative accumulator image in sample shape.
type seriesAccum struct {
	counters [NumCounters]uint64
	cycles   [NumPhases]sim.Cycles
	opCount  [NumOps]uint64
	opSum    [NumOps]sim.Cycles
}

func (a *seriesAccum) loadFrom(p *procMetrics) {
	a.counters = p.counters
	a.cycles = p.cycles
	for op := range p.ops {
		a.opCount[op] = p.ops[op].Count
		a.opSum[op] = p.ops[op].Sum
	}
}

// add folds one delta into the image, preserving the exactDelta
// identity: if d was built as the exact delta from this image to some
// cumulative image cur, the result equals cur bit for bit.
func (a *seriesAccum) add(d *SeriesSample) {
	for i := range a.counters {
		a.counters[i] += d.Counters[i]
	}
	for i := range a.cycles {
		a.cycles[i] += d.Cycles[i]
	}
	for i := range a.opCount {
		a.opCount[i] += d.OpCount[i]
		a.opSum[i] += d.OpSum[i]
	}
}

// addAccum folds another cumulative image in (Merge path).
func (a *seriesAccum) addAccum(b *seriesAccum) {
	for i := range a.counters {
		a.counters[i] += b.counters[i]
	}
	for i := range a.cycles {
		a.cycles[i] += b.cycles[i]
	}
	for i := range a.opCount {
		a.opCount[i] += b.opCount[i]
		a.opSum[i] += b.opSum[i]
	}
}

// deltaTo computes the exact delta from a to cur: a sample d with
// a+d == cur fieldwise in float64. changed reports whether any field
// moved.
func (a *seriesAccum) deltaTo(cur *seriesAccum) (SeriesSample, bool) {
	var d SeriesSample
	changed := false
	for i := range cur.counters {
		if n := cur.counters[i] - a.counters[i]; n != 0 {
			d.Counters[i] = n
			changed = true
		}
	}
	for i := range cur.cycles {
		if cur.cycles[i] != a.cycles[i] {
			d.Cycles[i] = exactDelta(a.cycles[i], cur.cycles[i])
			changed = true
		}
	}
	for i := range cur.opCount {
		if n := cur.opCount[i] - a.opCount[i]; n != 0 {
			d.OpCount[i] = n
			changed = true
		}
		if cur.opSum[i] != a.opSum[i] {
			d.OpSum[i] = exactDelta(a.opSum[i], cur.opSum[i])
			changed = true
		}
	}
	return d, changed
}

// exactDelta returns a d with last+d == cur exactly in float64. The
// naive difference is correctly rounded, so the true delta is within
// half an ulp of it and the set of floats d satisfying fl(last+d)==cur
// is a non-empty interval around it; at most a few one-ulp nudges land
// inside.
func exactDelta(last, cur sim.Cycles) sim.Cycles {
	l, c := float64(last), float64(cur)
	d := c - l
	for i := 0; i < 4 && l+d != c; i++ {
		if l+d < c {
			d = math.Nextafter(d, math.Inf(1))
		} else {
			d = math.Nextafter(d, math.Inf(-1))
		}
	}
	return sim.Cycles(d)
}

// procSeries is one process's sampler state.
type procSeries struct {
	// curWindow is the in-progress window index, maintained by the
	// clock hook; security events are stamped with it.
	curWindow uint64
	// sampled/lastLabel track the newest ring sample's window label
	// (strictly increasing across samples).
	sampled   bool
	lastLabel uint64
	// last is the cumulative accumulator image at the newest sample.
	last seriesAccum
	// base is the cumulative image at the eviction boundary: ring
	// overflow folds the oldest sample into it, and the exactDelta
	// identity keeps it bit-exact.
	base        seriesAccum
	baseWindows uint64 // evicted sample count
	baseThrough uint64 // highest evicted window label
	ring        []SeriesSample
	head        int // index of the oldest sample once the ring is full
}

// push appends a delta, folding the oldest sample into base when the
// ring is at its bound.
func (ps *procSeries) push(d SeriesSample, max int) {
	if max <= 0 {
		max = DefaultSeriesCap
	}
	if len(ps.ring) < max {
		ps.ring = append(ps.ring, d)
		return
	}
	old := &ps.ring[ps.head]
	ps.base.add(old)
	ps.baseWindows++
	ps.baseThrough = old.Window
	ps.ring[ps.head] = d
	ps.head++
	if ps.head == len(ps.ring) {
		ps.head = 0
	}
}

// samplesOldestFirst copies the retained ring in window order.
func (ps *procSeries) samplesOldestFirst() []SeriesSample {
	out := make([]SeriesSample, 0, len(ps.ring))
	out = append(out, ps.ring[ps.head:]...)
	out = append(out, ps.ring[:ps.head]...)
	return out
}

// MaxWindowShift bounds SeriesConfig.WindowShift: the widest window is
// 2^63 cycles, the largest power of two a uint64 cycle count can hold.
const MaxWindowShift = 63

// EnableSeries switches on windowed sampling for the sink. It must be
// called before any machine clock advances (changing the window mid-run
// would make samples depend on call timing). Calling it again with the
// same config is a no-op; a different config is an error.
func (s *Sink) EnableSeries(cfg SeriesConfig) error {
	if s == nil {
		return fmt.Errorf("trace: EnableSeries on a nil sink")
	}
	if cfg.WindowShift > MaxWindowShift {
		return fmt.Errorf("trace: series window shift %d exceeds %d", cfg.WindowShift, MaxWindowShift)
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = DefaultSeriesCap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seriesOn && s.seriesCfg != cfg {
		return fmt.Errorf("trace: series sampling already enabled (window=2^%d max=%d)",
			s.seriesCfg.WindowShift, s.seriesCfg.MaxSamples)
	}
	s.seriesOn = true
	s.seriesCfg = cfg
	return nil
}

// SeriesConfigured reports the sampler config and whether sampling is
// enabled. Safe on a nil sink.
func (s *Sink) SeriesConfigured() (SeriesConfig, bool) {
	if s == nil {
		return SeriesConfig{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seriesCfg, s.seriesOn
}

// ObserveWindow is the sim.Clock window-hook target: the clock calls it
// with the index of the window it just entered, and the probe samples
// the delta accumulated since the previous sample, labeled with the
// last *completed* window (window-1). Multi-window jumps produce one
// sample covering the gap; idle windows produce none.
func (p *Probe) ObserveWindow(window uint64) {
	if p == nil {
		return
	}
	p.sink.mu.Lock()
	p.sink.observeWindowLocked(p.proc, window)
	p.sink.mu.Unlock()
}

func (s *Sink) observeWindowLocked(pm *procMetrics, window uint64) {
	if !s.seriesOn || window == 0 {
		return
	}
	ps := pm.series
	if ps == nil {
		ps = &procSeries{}
		pm.series = ps
	}
	if window <= ps.curWindow {
		return
	}
	ps.curWindow = window
	label := window - 1
	if ps.sampled && label <= ps.lastLabel {
		return
	}
	var cur seriesAccum
	cur.loadFrom(pm)
	d, changed := ps.last.deltaTo(&cur)
	if !changed {
		return
	}
	d.Window = label
	ps.push(d, s.seriesCfg.MaxSamples)
	ps.last.add(&d)
	ps.lastLabel = label
	ps.sampled = true
}

// mergeSeriesLocked folds src's sampler state into dst's (both sinks'
// locks held by Merge). When dst has no series state — the invariant
// the parallel runner's work-unit confinement guarantees — the fold is
// a copy and preserves the exact delta-sum contract. Overlapping state
// merges by window label (deltas of equal windows add), which keeps the
// series well-formed but is exact only up to float addition.
func (s *Sink) mergeSeriesLocked(dst, src *procMetrics) {
	ss := src.series
	if ss == nil {
		return
	}
	ds := dst.series
	if ds == nil {
		ds = &procSeries{}
		dst.series = ds
	}
	if !ds.sampled && ds.baseWindows == 0 && ds.curWindow == 0 && len(ds.ring) == 0 {
		ds.curWindow = ss.curWindow
		ds.sampled = ss.sampled
		ds.lastLabel = ss.lastLabel
		ds.last = ss.last
		ds.base = ss.base
		ds.baseWindows = ss.baseWindows
		ds.baseThrough = ss.baseThrough
		ds.ring = ss.samplesOldestFirst()
		ds.head = 0
		return
	}
	merged := mergeByWindow(ds.samplesOldestFirst(), ss.samplesOldestFirst())
	ds.base.addAccum(&ss.base)
	ds.baseWindows += ss.baseWindows
	if ss.baseThrough > ds.baseThrough {
		ds.baseThrough = ss.baseThrough
	}
	max := s.seriesCfg.MaxSamples
	if max <= 0 {
		max = DefaultSeriesCap
	}
	for len(merged) > max {
		ds.base.add(&merged[0])
		ds.baseWindows++
		ds.baseThrough = merged[0].Window
		merged = merged[1:]
	}
	ds.ring = merged
	ds.head = 0
	ds.last.addAccum(&ss.last)
	if ss.sampled && (!ds.sampled || ss.lastLabel > ds.lastLabel) {
		ds.lastLabel = ss.lastLabel
	}
	ds.sampled = ds.sampled || ss.sampled
	if ss.curWindow > ds.curWindow {
		ds.curWindow = ss.curWindow
	}
}

// mergeByWindow merges two window-ordered sample lists, summing samples
// with equal labels.
func mergeByWindow(a, b []SeriesSample) []SeriesSample {
	out := make([]SeriesSample, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Window < b[j].Window:
			out = append(out, a[i])
			i++
		case b[j].Window < a[i].Window:
			out = append(out, b[j])
			j++
		default:
			m := a[i]
			var acc seriesAccum
			acc.add(&m)
			acc.add(&b[j])
			out = append(out, SeriesSample{
				Window:   m.Window,
				Counters: acc.counters,
				Cycles:   acc.cycles,
				OpCount:  acc.opCount,
				OpSum:    acc.opSum,
			})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ProcSeries is the exported series of one process.
type ProcSeries struct {
	Proc string
	// EvictedWindows/EvictedThrough/Evicted describe samples that fell
	// off the bounded ring: how many, through which window label, and
	// their exact aggregate (Evicted.Window == EvictedThrough).
	EvictedWindows uint64
	EvictedThrough uint64
	Evicted        SeriesSample
	// Samples holds the retained per-window deltas oldest-first, plus a
	// synthesized tail delta for activity since the last sample.
	Samples []SeriesSample
	// Totals is the end-of-run cumulative accumulator image; by the
	// exact delta-sum contract, Evicted plus all Samples equals it bit
	// for bit.
	Totals SeriesSample
}

// SeriesView is a copied, immutable snapshot of a sink's series.
type SeriesView struct {
	// WindowCycles is the window size, 2^SeriesConfig.WindowShift.
	WindowCycles uint64
	MaxSamples   int
	Procs        []ProcSeries // sorted by process name
}

// SeriesSnapshot captures the current series without mutating sampler
// state (the tail sample is synthesized on the fly), so it is safe to
// call mid-run from observer goroutines. The bool reports whether
// sampling is enabled.
func (s *Sink) SeriesSnapshot() (SeriesView, bool) {
	if s == nil {
		return SeriesView{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.seriesOn {
		return SeriesView{}, false
	}
	v := SeriesView{WindowCycles: 1 << s.seriesCfg.WindowShift, MaxSamples: s.seriesCfg.MaxSamples}
	for _, pm := range s.procs {
		var state procSeries
		if pm.series != nil {
			state = *pm.series
		}
		var cur seriesAccum
		cur.loadFrom(pm)
		samples := state.samplesOldestFirst()
		if tail, changed := state.last.deltaTo(&cur); changed {
			tail.Window = state.curWindow
			samples = append(samples, tail)
		}
		if len(samples) == 0 && state.baseWindows == 0 {
			continue
		}
		pr := ProcSeries{
			Proc:           pm.name,
			EvictedWindows: state.baseWindows,
			EvictedThrough: state.baseThrough,
			Samples:        samples,
			Totals: SeriesSample{
				Counters: cur.counters,
				Cycles:   cur.cycles,
				OpCount:  cur.opCount,
				OpSum:    cur.opSum,
			},
		}
		if state.baseWindows > 0 {
			pr.Evicted = SeriesSample{
				Window:   state.baseThrough,
				Counters: state.base.counters,
				Cycles:   state.base.cycles,
				OpCount:  state.base.opCount,
				OpSum:    state.base.opSum,
			}
		}
		if n := len(samples); n > 0 {
			pr.Totals.Window = samples[n-1].Window
		} else {
			pr.Totals.Window = state.baseThrough
		}
		v.Procs = append(v.Procs, pr)
	}
	sortProcSeries(v.Procs)
	return v, true
}

// sortProcSeries orders series by process name (insertion sort, same
// rationale as sortProcs).
func sortProcSeries(ps []ProcSeries) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Proc < ps[j-1].Proc; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Severity ranks ledger event kinds for alerting and flight-recorder
// attachment.
type Severity uint8

const (
	// SevInfo: normal lifecycle (migrations, acks, reclaims).
	SevInfo Severity = iota
	// SevWarn: an operation was rejected defensively.
	SevWarn
	// SevError: authenticated state is provably wrong.
	SevError
)

var severityNames = [...]string{SevInfo: "info", SevWarn: "warn", SevError: "error"}

func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return "severity?"
}

// Severity classifies the kind: integrity and authentication failures
// are errors, defensive rejections are warnings, everything else is
// informational lifecycle.
func (k EventKind) Severity() Severity {
	switch k {
	case EvIntegrityFail, EvAuthFail:
		return SevError
	case EvReplayReject, EvReorderReject, EvStaleCounter, EvMigrationReject:
		return SevWarn
	default:
		return SevInfo
	}
}

// FlightSpan is one compact record in a process's flight recorder: the
// ring of most recent completed spans, frozen onto warn-and-above
// ledger entries so each verdict carries its preceding execution
// context.
type FlightSpan struct {
	Phase Phase
	Begin sim.Time
	End   sim.Time
	// Trace/Span carry the causal link when the span belonged to a
	// causal trace (zero otherwise).
	Trace TraceID
	Span  uint32
}

// recordFlight appends one span to the process's flight ring.
func (pm *procMetrics) recordFlight(fs FlightSpan, bound int) {
	if bound <= 0 {
		bound = DefaultFlightCap
	}
	if len(pm.flight) < bound {
		pm.flight = append(pm.flight, fs)
		return
	}
	pm.flight[pm.flightHead] = fs
	pm.flightHead++
	if pm.flightHead == len(pm.flight) {
		pm.flightHead = 0
	}
}

// flightSnapshot copies the flight ring oldest-first; nil when empty.
func (pm *procMetrics) flightSnapshot() []FlightSpan {
	if len(pm.flight) == 0 {
		return nil
	}
	out := make([]FlightSpan, 0, len(pm.flight))
	out = append(out, pm.flight[pm.flightHead:]...)
	out = append(out, pm.flight[:pm.flightHead]...)
	return out
}

// SetFlightCapacity bounds the per-process flight-recorder rings at n
// spans (n <= 0 restores DefaultFlightCap). Like SetEventCapacity it
// only applies before any span has been recorded.
func (s *Sink) SetFlightCapacity(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.procs {
		if len(p.flight) > 0 {
			return
		}
	}
	s.flightCap = n
}
