package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"mmt/internal/mapreduce"
	"mmt/internal/sim"
	"mmt/internal/trace"
	"mmt/internal/tree"
	"mmt/internal/workload"
)

// This file builds the per-figure metrics sidecars (BENCH_<fig>.json):
// machine-readable companions to the rendered tables, carrying the
// figure's headline numbers plus the trace-layer breakdown (per-phase
// cycles and counters) of the run that produced them. Sidecars are
// deterministic: structs only (no maps reach the encoder), fixed slice
// orders, and all numbers read off the simulated clocks.

// SidecarTotal is one reported headline number of a figure.
type SidecarTotal struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"` // "cycles", "seconds", "x", "bytes"
}

// SidecarPhase is one phase's cycle total.
type SidecarPhase struct {
	Phase  string     `json:"phase"`
	Cycles sim.Cycles `json:"cycles"`
}

// SidecarCounter is one monotonic counter's final value.
type SidecarCounter struct {
	Counter string `json:"counter"`
	Value   uint64 `json:"value"`
}

// SidecarHist is one (process, operation) latency-histogram summary:
// the quantiles a dashboard wants without shipping every bucket. Exact
// bucket counts live in the mmt-hist/v1 export (trace.WriteHistJSON);
// the sidecar carries the summary so figure results and latency
// distributions travel in one file.
type SidecarHist struct {
	Proc  string     `json:"proc"`
	Op    string     `json:"op"`
	Count uint64     `json:"count"`
	P50   sim.Cycles `json:"p50_cycles"`
	P90   sim.Cycles `json:"p90_cycles"`
	P99   sim.Cycles `json:"p99_cycles"`
	Max   sim.Cycles `json:"max_cycles"`
	Mean  sim.Cycles `json:"mean_cycles"`
}

// SidecarProc is one traced process's breakdown (nonzero entries only,
// in enum order).
type SidecarProc struct {
	Proc     string           `json:"proc"`
	Phases   []SidecarPhase   `json:"phases,omitempty"`
	Counters []SidecarCounter `json:"counters,omitempty"`
}

// SidecarMigration is one migration's end-to-end causal accounting: the
// compact view of an mmt-causal/v1 span tree. TotalCycles sums the
// attributed cycles of every span across sender and receiver, so the
// sum over all migrations equals the run's migration-send-cycles plus
// migration-recv-cycles totals (Check and mmt-tracecheck verify this).
type SidecarMigration struct {
	ID                string     `json:"id"`
	RootProc          string     `json:"root_proc"`
	Spans             int        `json:"spans"`
	TotalCycles       sim.Cycles `json:"total_cycles"`
	CriticalPathLen   int        `json:"critical_path_len"`
	CriticalElapsedUs float64    `json:"critical_elapsed_us"`
}

// Sidecar is the BENCH_<fig>.json payload.
type Sidecar struct {
	Figure      string `json:"figure"`
	Profile     string `json:"profile"`
	Description string `json:"description"`
	// Totals are the figure's reported headline numbers.
	Totals []SidecarTotal `json:"totals"`
	// PhaseCycles aggregates each phase across all traced processes.
	PhaseCycles []SidecarPhase `json:"phase_cycles,omitempty"`
	// PhaseSumCycles is the sum of every phase accumulator.
	PhaseSumCycles sim.Cycles `json:"phase_sum_cycles"`
	// CheckTotalCycles, when nonzero, is the figure's reported cycle
	// total. Every cycle charged in the simulation is mirrored into
	// exactly one phase, so PhaseSumCycles equals it up to float64
	// re-association (the two sides sum the same charges in different
	// orders); Sidecar.Check verifies the match.
	CheckTotalCycles sim.Cycles    `json:"check_total_cycles,omitempty"`
	Procs            []SidecarProc `json:"procs,omitempty"`
	// Hists summarizes every nonempty per-operation latency histogram
	// (proc-major, operation enum order).
	Hists []SidecarHist `json:"hists,omitempty"`
	// Migrations is the per-migration causal breakdown, in trace-ID order
	// (root process, then sequence).
	Migrations []SidecarMigration `json:"migrations,omitempty"`
	// Series summarizes the windowed time series when the figure ran
	// with sampling on (the full artifact is the mmt-series/v1 sidecar
	// companion; mmt-perfdiff treats gaining/losing this section as a
	// fatal shape mismatch).
	Series *SidecarSeries `json:"series,omitempty"`
}

// SidecarSeriesProc summarizes one process's window series.
type SidecarSeriesProc struct {
	Proc string `json:"proc"`
	// Windows counts materialized samples (evicted + retained + tail);
	// Evicted counts samples folded into the evicted aggregate.
	Windows uint64 `json:"windows"`
	Evicted uint64 `json:"evicted_windows"`
	// LastWindow is the newest sample's window label.
	LastWindow uint64 `json:"last_window"`
	// Cycles is the series' cycle total (equals the process's phase-sum
	// by the exact delta-sum contract).
	Cycles sim.Cycles `json:"cycles"`
}

// SidecarSeries is the sidecar's series summary section.
type SidecarSeries struct {
	Schema       string              `json:"schema"` // trace.SeriesSchema
	WindowCycles uint64              `json:"window_cycles"`
	MaxSamples   int                 `json:"max_samples"`
	Procs        []SidecarSeriesProc `json:"procs"`
}

// Check verifies the phase-sum invariant: when the figure reports a
// cycle total, the per-phase cycles must account for it (relative
// tolerance 1e-9, far below any real cost but above reassociation
// noise). Figures without a cycle total always pass.
func (sc *Sidecar) Check() error {
	if sc.CheckTotalCycles == 0 {
		return nil
	}
	a, b := float64(sc.PhaseSumCycles), float64(sc.CheckTotalCycles)
	if diff := math.Abs(a - b); diff > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
		return fmt.Errorf("fig %s: phase sum %.6f cycles != reported total %.6f cycles",
			sc.Figure, a, b)
	}
	for _, h := range sc.Hists {
		if h.Count == 0 {
			return fmt.Errorf("fig %s: empty histogram %s/%s in sidecar", sc.Figure, h.Proc, h.Op)
		}
		if !(h.P50 <= h.P90 && h.P90 <= h.P99 && h.P99 <= h.Max) {
			return fmt.Errorf("fig %s: %s/%s quantiles not monotone: p50=%v p90=%v p99=%v max=%v",
				sc.Figure, h.Proc, h.Op, h.P50, h.P90, h.P99, h.Max)
		}
	}
	// Per-migration causal totals must re-add to the run's migration
	// cycle totals: every migration appears as exactly one trace and
	// every migration cycle is attributed to exactly one span.
	if len(sc.Migrations) > 0 {
		var sum, reported float64
		for _, mg := range sc.Migrations {
			sum += float64(mg.TotalCycles)
		}
		for _, t := range sc.Totals {
			if t.Name == "migration-send-cycles" || t.Name == "migration-recv-cycles" {
				reported += t.Value
			}
		}
		if diff := math.Abs(sum - reported); diff > 1e-9*math.Max(math.Abs(sum), math.Abs(reported)) {
			return fmt.Errorf("fig %s: per-migration causal cycles %.6f != migration totals %.6f",
				sc.Figure, sum, reported)
		}
	}
	return nil
}

// JSON renders the sidecar as indented JSON with a trailing newline.
func (sc *Sidecar) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// fillFromMetrics copies a trace snapshot into the sidecar: cluster-wide
// phase totals, the phase sum, and per-process breakdowns.
func (sc *Sidecar) fillFromMetrics(m trace.Metrics) {
	for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
		if c := m.PhaseCycles(ph); c != 0 {
			sc.PhaseCycles = append(sc.PhaseCycles, SidecarPhase{Phase: ph.String(), Cycles: c})
		}
	}
	sc.PhaseSumCycles = m.TotalCycles()
	for i := range m.Procs {
		p := &m.Procs[i]
		proc := SidecarProc{Proc: p.Proc}
		for ph := trace.Phase(0); ph < trace.NumPhases; ph++ {
			if p.Cycles[ph] != 0 {
				proc.Phases = append(proc.Phases, SidecarPhase{Phase: ph.String(), Cycles: p.Cycles[ph]})
			}
		}
		for c := trace.Counter(0); c < trace.NumCounters; c++ {
			if p.Counters[c] != 0 {
				proc.Counters = append(proc.Counters, SidecarCounter{Counter: c.String(), Value: p.Counters[c]})
			}
		}
		sc.Procs = append(sc.Procs, proc)
		for op := trace.Op(0); int(op) < trace.NumOps; op++ {
			h := &p.Ops[op]
			if h.Count == 0 {
				continue
			}
			sc.Hists = append(sc.Hists, SidecarHist{
				Proc:  p.Proc,
				Op:    op.String(),
				Count: h.Count,
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
				Max:   h.Max,
				Mean:  h.Mean(),
			})
		}
	}
}

// fillSeries copies the series summary when sampling was on.
func (sc *Sidecar) fillSeries(sink *trace.Sink) {
	v, ok := sink.SeriesSnapshot()
	if !ok {
		return
	}
	ss := &SidecarSeries{Schema: trace.SeriesSchema, WindowCycles: v.WindowCycles, MaxSamples: v.MaxSamples}
	for i := range v.Procs {
		p := &v.Procs[i]
		var cycles sim.Cycles
		for _, c := range p.Totals.Cycles {
			cycles += c
		}
		var last uint64
		if n := len(p.Samples); n > 0 {
			last = p.Samples[n-1].Window
		}
		ss.Procs = append(ss.Procs, SidecarSeriesProc{
			Proc:       p.Proc,
			Windows:    p.EvictedWindows + uint64(len(p.Samples)),
			Evicted:    p.EvictedWindows,
			LastWindow: last,
			Cycles:     cycles,
		})
	}
	sc.Series = ss
}

// fillMigrations appends the causal per-migration breakdown plus the
// migration cycle totals. Only traces rooted in a send span count as
// migrations (connect handshakes are excluded).
func (sc *Sidecar) fillMigrations(sink *trace.Sink, m trace.Metrics) {
	traces := sink.CausalTraces()
	for i := range traces {
		t := &traces[i]
		if len(t.Spans) == 0 || t.Spans[0].Parent != 0 || t.Spans[0].Phase != trace.PhaseSend {
			continue
		}
		sc.Migrations = append(sc.Migrations, SidecarMigration{
			ID:                t.ID.String(),
			RootProc:          t.ID.Proc,
			Spans:             len(t.Spans),
			TotalCycles:       t.TotalCycles,
			CriticalPathLen:   len(t.CriticalPath),
			CriticalElapsedUs: t.CriticalElapsed.Microseconds(),
		})
	}
	if len(sc.Migrations) == 0 {
		return
	}
	sc.Totals = append(sc.Totals,
		SidecarTotal{Name: "migrations", Value: float64(len(sc.Migrations)), Unit: "count"},
		SidecarTotal{Name: "migration-send-cycles", Value: float64(m.Op(trace.OpMigrationSend).Sum), Unit: "cycles"},
		SidecarTotal{Name: "migration-recv-cycles", Value: float64(m.Op(trace.OpMigrationRecv).Sum), Unit: "cycles"},
	)
}

// SidecarFigures lists the figures SidecarForFigure supports.
var SidecarFigures = []string{"10", "11", "12", "13", "14"}

// SidecarForFigure runs the (traced) experiment behind one figure and
// returns its sidecar. accesses tunes the fig11 trace length (0 means a
// sidecar-sized default of 20k).
func SidecarForFigure(fig string, accesses int) (*Sidecar, error) {
	switch fig {
	case "10":
		return sidecarFig10()
	case "11":
		return sidecarFig11(accesses)
	case "12":
		return sidecarFig12()
	case "13":
		return sidecarFig13()
	case "14":
		return sidecarFig14()
	default:
		return nil, fmt.Errorf("no sidecar for figure %q (have: 10, 11, 12, 13, 14)", fig)
	}
}

// sidecarFig10 traces the Table IV / Figure 10(b) 2 MB transfer at zero
// network latency. The trace phases account for every charged cycle, so
// phase_sum_cycles == SecureChannel + MMT exactly.
func sidecarFig10() (*Sidecar, error) {
	sink := trace.NewSink()
	row, err := table4Measure(sim.Gem5Profile(), 2<<20, sink)
	if err != nil {
		return nil, err
	}
	sc := &Sidecar{
		Figure:      "10",
		Profile:     sim.Gem5Profile().Name,
		Description: "2 MB secure transfer, software secure channel vs MMT closure delegation (Figure 10b zero-latency point / Table IV 2M column)",
		Totals: []SidecarTotal{
			{Name: "secure-channel", Value: float64(row.SecureChannel), Unit: "cycles"},
			{Name: "mmt-delegation", Value: float64(row.MMT), Unit: "cycles"},
			{Name: "speedup", Value: row.Speedup, Unit: "x"},
		},
		CheckTotalCycles: row.SecureChannel + row.MMT,
	}
	m := sink.Snapshot()
	sc.fillFromMetrics(m)
	sc.fillMigrations(sink, m)
	return sc, nil
}

// fig11SeriesShift fixes the sampling window of the fig11 sidecar run
// at 2^14 cycles. A constant — never tuned per run — so the committed
// baseline's series section stays byte-stable.
const fig11SeriesShift = 14

// sidecarFig11 traces the SPEC-like overhead sweep. Each (benchmark,
// level) cell is its own trace process; the phase sum equals the summed
// protected-memory cycles across all cells. The run samples with a
// fixed window, so the sidecar carries the series summary and the
// mmt-series/v1 artifact can be exported alongside (mmt-bench -series).
func sidecarFig11(accesses int) (*Sidecar, error) {
	sc, _, err := sidecarFig11Run(accesses)
	return sc, err
}

// sidecarFig11Run is sidecarFig11 plus the run's sink, so callers can
// export the full mmt-series/v1 artifact from the same run.
func sidecarFig11Run(accesses int) (*Sidecar, *trace.Sink, error) {
	if accesses <= 0 {
		accesses = 20_000
	}
	sink := trace.NewSink()
	if err := sink.EnableSeries(trace.SeriesConfig{WindowShift: fig11SeriesShift}); err != nil {
		return nil, nil, err
	}
	res, protected, err := fig11Traced(accesses, sink)
	if err != nil {
		return nil, nil, err
	}
	sc := &Sidecar{
		Figure:      "11",
		Profile:     sim.Gem5Profile().Name,
		Description: fmt.Sprintf("SPEC-like MMT access overhead by tree level, %d accesses per cell", accesses),
		Totals: []SidecarTotal{
			{Name: "avg-overhead-2-level", Value: res.Average[2], Unit: "x"},
			{Name: "avg-overhead-3-level", Value: res.Average[3], Unit: "x"},
			{Name: "avg-overhead-4-level", Value: res.Average[4], Unit: "x"},
			{Name: "protected-memory", Value: float64(protected), Unit: "cycles"},
			{Name: "read-p50-idle-cycles", Value: float64(res.Latency.Idle.Quantile(0.50)), Unit: "cycles"},
			{Name: "read-p99-idle-cycles", Value: float64(res.Latency.Idle.Quantile(0.99)), Unit: "cycles"},
			{Name: "read-p50-migration-cycles", Value: float64(res.Latency.Busy.Quantile(0.50)), Unit: "cycles"},
			{Name: "read-p99-migration-cycles", Value: float64(res.Latency.Busy.Quantile(0.99)), Unit: "cycles"},
		},
		CheckTotalCycles: protected,
	}
	m := sink.Snapshot()
	sc.fillFromMetrics(m)
	sc.fillMigrations(sink, m)
	sc.fillSeries(sink)
	return sc, sink, nil
}

// SeriesForFigure runs the figure's traced experiment and returns both
// its sidecar and, when the figure samples (fig 11 today), the
// mmt-series/v1 artifact bytes from the same run (nil otherwise).
func SeriesForFigure(fig string, accesses int) (*Sidecar, []byte, error) {
	if fig != "11" {
		sc, err := SidecarForFigure(fig, accesses)
		return sc, nil, err
	}
	sc, sink, err := sidecarFig11Run(accesses)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := sink.WriteSeriesJSON(&buf); err != nil {
		return nil, nil, err
	}
	return sc, buf.Bytes(), nil
}

// sidecarFig12 traces one representative WordCount point (256K input,
// one mapper/reducer pair) in both shuffle modes. Elapsed times are
// wall-clock maxima over machines, so they are reported as totals
// without a phase-sum check.
func sidecarFig12() (*Sidecar, error) {
	geo := tree.ForLevels(3)
	input := 256 << 10
	corpus := workload.Corpus(12, input)
	sink := trace.NewSink()
	cfg := mapreduce.Config{
		Mappers: 1, Reducers: 1,
		Profile:           sim.Gem5Profile(),
		Geometry:          geo,
		PoolRegions:       2*input/geo.DataSize() + 4,
		MapCyclesPerByte:  8,
		ReduceCyclesPerKV: 40,
		Trace:             sink,
		Workers:           Workers(),
	}
	cfg.Mode = mapreduce.SecureChannel
	sec, err := mapreduce.Run(cfg, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
	if err != nil {
		return nil, err
	}
	cfg.Mode = mapreduce.MMT
	mmtRes, err := mapreduce.Run(cfg, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
	if err != nil {
		return nil, err
	}
	sc := &Sidecar{
		Figure:      "12",
		Profile:     sim.Gem5Profile().Name,
		Description: "WordCount end-to-end, 256K input, M1R1, secure-channel vs MMT shuffle (Figure 12 point)",
		Totals: []SidecarTotal{
			{Name: "secure-channel-elapsed", Value: float64(sec.Elapsed), Unit: "seconds"},
			{Name: "mmt-elapsed", Value: float64(mmtRes.Elapsed), Unit: "seconds"},
			{Name: "shuffle", Value: float64(mmtRes.ShuffleBytes), Unit: "bytes"},
			{Name: "speedup", Value: float64(sec.Elapsed) / float64(mmtRes.Elapsed), Unit: "x"},
		},
	}
	sc.fillFromMetrics(sink.Snapshot())
	return sc, nil
}

// sidecarFig13 traces the M2R2 scalability cell (Figure 13b) on the
// Intel profile: baseline vs MMT shuffle over the same corpus.
func sidecarFig13() (*Sidecar, error) {
	geo := tree.ForLevels(3)
	corpus := workload.Corpus(14, 2<<20)
	sink := trace.NewSink()
	n := 2
	cfg := mapreduce.Config{
		Mappers: n, Reducers: n,
		Profile:           sim.IntelProfile(),
		Geometry:          geo,
		PoolRegions:       2*len(corpus)/(n*geo.DataSize()) + 3,
		MapCyclesPerByte:  60,
		ReduceCyclesPerKV: 300,
		Trace:             sink,
		Workers:           Workers(),
	}
	cfg.Mode = mapreduce.Baseline
	base, err := mapreduce.Run(cfg, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
	if err != nil {
		return nil, err
	}
	cfg.Mode = mapreduce.MMT
	mmtRes, err := mapreduce.Run(cfg, corpus, mapreduce.WordCountMapper, mapreduce.WordCountReducer)
	if err != nil {
		return nil, err
	}
	sc := &Sidecar{
		Figure:      "13",
		Profile:     sim.IntelProfile().Name,
		Description: "WordCount M2R2 scalability cell, baseline vs MMT shuffle (Figure 13b)",
		Totals: []SidecarTotal{
			{Name: "baseline-elapsed", Value: float64(base.Elapsed), Unit: "seconds"},
			{Name: "mmt-elapsed", Value: float64(mmtRes.Elapsed), Unit: "seconds"},
		},
	}
	sc.fillFromMetrics(sink.Snapshot())
	return sc, nil
}

// sidecarFig14 reports the PageRank headline numbers at a sidecar-sized
// graph. The graph engine is not trace-instrumented, so this sidecar
// carries totals only.
func sidecarFig14() (*Sidecar, error) {
	fc := Fig14Config{Vertices: 20_000, AvgDegree: 8, Machines: 2, Iterations: 2}
	rows, cross, err := Fig14(fc)
	if err != nil {
		return nil, err
	}
	sc := &Sidecar{
		Figure:      "14",
		Profile:     sim.Gem5Profile().Name,
		Description: fmt.Sprintf("PageRank under the GAS model, %d vertices, %d cross-machine edges (Figure 14, sidecar-sized)", fc.Vertices, cross),
	}
	for _, r := range rows {
		mode := fmt.Sprintf("%v", r.Mode)
		sc.Totals = append(sc.Totals,
			SidecarTotal{Name: mode + "-elapsed", Value: float64(r.Elapsed), Unit: "seconds"},
			SidecarTotal{Name: mode + "-remote-transfer-share", Value: r.RemoteTransferShare, Unit: "x"},
		)
	}
	return sc, nil
}
