// Command perfbench drives the public mmt API with one closed-loop client
// and reports end-to-end metrics (untraced) or per-layer metrics (traced).
//
//	perfbench --workload delegate|access|persist --seed N --seconds S --trace 0|1
//
// It must run from the root of a checkout of the repository: scratch
// files, the persist store and the span file go under .bench_build/. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it is a report with the
// environment and every figure the run measured. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"mmt"
)

// Set-up is repeated at least minSetups times and until it has taken
// setupBudget in total (at most maxSetups times); setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "delegate, access or persist")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics traced")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// env records what a later run needs to reproduce this one.
func env(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
	}
}

func run(cfg config) error {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return fmt.Errorf("run from the root of a checkout: %w", err)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if !slices.Contains(workloadNames, cfg.workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	out := filepath.Join(".bench_build", "perfbench")
	dir := filepath.Join(out, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var res *result
	var report map[string]any
	var err error
	if cfg.trace {
		res, report, err = traced(cfg, dir, out)
	} else {
		res, report, err = untraced(cfg, dir)
	}
	if err != nil && res == nil {
		return err
	}
	report["env"] = env(cfg)
	if err != nil {
		report["error"] = err.Error()
	}
	if err := printJSON(map[string]any{"report": report}); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct || res.Failed > 0 {
		return errors.New("the run failed its correctness checks or an operation returned an error")
	}
	return err
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// phase is what one closed-loop measured phase observed.
type phase struct {
	b       *bench
	setups  []float64 // seconds
	elapsed time.Duration
	mem     memDelta
	heapMB  float64
	events  uint64 // scheduled restores run beside the ops

	before, after mmt.Metrics // traced runs: the sink around the loop
}

// measure sets the workload up (repeatedly when repeat is set, keeping
// the last), prepares it and runs ops in a closed loop for d.
func measure(w workload, b *bench, repeat bool, d time.Duration) (*phase, error) {
	ph := &phase{b: b}
	var total time.Duration
	for k := 0; k == 0 || repeat && k < maxSetups && (k < minSetups || total < setupBudget); k++ {
		if k > 0 {
			if err := w.close(); err != nil {
				return ph, err
			}
		}
		runtime.GC()
		t := time.Now()
		b.beginOp("op.setup")
		err := w.setup(b)
		b.endOp()
		took := time.Since(t)
		total += took
		ph.setups = append(ph.setups, took.Seconds())
		if err != nil {
			return ph, fmt.Errorf("setup: %w", err)
		}
	}
	if err := w.prepare(b); err != nil {
		return ph, fmt.Errorf("prepare: %w", err)
	}
	b.opLat, b.readLat, b.writeLat = newSamples(sampleCap), newSamples(sampleCap), newSamples(sampleCap)
	b.restoreMs, b.linesWritten = nil, 0
	opName := "op." + w.name()
	runtime.GC()
	if b.tracing != nil {
		ph.before = b.tracing.Snapshot()
	}
	m0 := readMem()
	start := time.Now()
	deadline := start.Add(d)
	var err error
	for i := uint64(0); time.Now().Before(deadline); i++ {
		b.beginOp(opName)
		err = w.op(b, i)
		b.opLat.add(us(b.endOp()))
		b.ops++
		if err == nil {
			var ran bool
			ran, err = w.after(b, i)
			if ran {
				ph.events++
			}
		}
		if err != nil {
			b.failed++
			break
		}
	}
	ph.elapsed = time.Since(start)
	ph.mem = memSince(m0)
	if b.tracing != nil {
		ph.after = b.tracing.Snapshot()
	}
	ph.heapMB = liveHeapMB(w.benchBytes() + b.opLat.bytes() + b.readLat.bytes() + b.writeLat.bytes())
	return ph, err
}

// finish runs the workload's closing step (persist's Close→Open) and
// releases the cluster.
func finish(w workload, b *bench) error {
	err := w.finish(b)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.failed++
	}
	return err
}

func untraced(cfg config, dir string) (*result, map[string]any, error) {
	w := newWorkload(cfg.workload, cfg.seed)
	b := newBench(dir)
	ph, err := measure(w, b, true, time.Duration(cfg.seconds*float64(time.Second)))
	if err == nil {
		err = finish(w, b)
	}
	res := &result{
		Correct:   b.mismatch == nil,
		Attempted: b.ops + ph.events + 1,
		Failed:    b.failed,
		Metrics:   metrics{},
	}
	report := map[string]any{}
	if err != nil && b.ops == 0 {
		return res, report, err
	}
	endToEnd(res.Metrics, report, ph)
	if b.mismatch != nil {
		report["mismatch"] = b.mismatch.Error()
	}
	return res, report, err
}

// endToEnd fills the gated metrics and the report's other figures. The
// gated latencies are p90s: on this kind of shared host the median of a
// memory-heavy op moves by a third between runs as neighbours come and
// go, while the p90 holds (see README.md); medians, throughput and p99s
// go to the report.
func endToEnd(m metrics, report map[string]any, ph *phase) {
	b := ph.b
	ops := float64(b.ops)
	extra := metrics{}
	counts := map[string]int{}
	m.set("setup_s", median(ph.setups), "s")
	extra.set("ops_per_s", ops/ph.elapsed.Seconds(), "1/s")
	for _, series := range []struct {
		name string
		s    *samples
	}{{"op", b.opLat}, {"read", b.readLat}, {"write", b.writeLat}} {
		sorted := append([]float64(nil), series.s.vals...)
		sort.Float64s(sorted)
		counts[series.name] = len(sorted)
		v, _ := sortedQuantile(sorted, 0.5)
		extra.set(series.name+"_p50_us", v, "us")
		v, ok := sortedQuantile(sorted, 0.9)
		m.set(series.name+"_p90_us", v, "us")
		if !ok {
			report[series.name+"_p90_short"] = "fewer than ten samples beyond the p90"
		}
		if v, ok := sortedQuantile(sorted, 0.99); ok {
			extra.set(series.name+"_p99_us", v, "us")
		}
	}
	m.set("allocs_per_op", float64(ph.mem.mallocs)/ops, "count")
	m.set("alloc_bytes_per_op", float64(ph.mem.allocBytes)/ops, "B")
	m.set("heap_mb", ph.heapMB, "MiB")
	if len(b.restoreMs) > 0 {
		extra.set("restore_ms", median(b.restoreMs), "ms")
		counts["restore"] = len(b.restoreMs)
	}
	attempted := b.ops + ph.events
	extra.set("error_rate", float64(b.failed)/float64(max(attempted, 1)), "ratio")
	report["extra_metrics"] = extra
	report["samples"] = counts
	report["ops"] = b.ops
	report["elapsed_s"] = ph.elapsed.Seconds()
	report["setups_s"] = ph.setups
}
