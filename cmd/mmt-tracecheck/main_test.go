package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mmt/internal/bench"
	"mmt/internal/sim"
	"mmt/internal/trace"
)

// sampledSeries runs a small sampled sink — two machines, fractional
// phase charges, a ring small enough to evict — and returns its
// mmt-series/v1 export.
func sampledSeries(t *testing.T) []byte {
	t.Helper()
	const shift = 8
	sink := trace.NewSink()
	if err := sink.EnableSeries(trace.SeriesConfig{WindowShift: shift, MaxSamples: 4}); err != nil {
		t.Fatal(err)
	}
	for m, name := range []string{"m0", "m1"} {
		p := sink.Probe(name)
		clock := sim.NewClock(1e9)
		clock.SetWindowHook(shift, p.ObserveWindow)
		for i := 0; i < 200; i++ {
			p.Count(trace.CtrNodeCacheHits, uint64(m+1))
			p.RecordOp(trace.OpLocalRead, sim.Cycles(float64(i%11)+0.25))
			p.ChargeSplit(clock,
				trace.PhaseCost{Phase: trace.PhaseTreeWalk, Cycles: sim.Cycles(float64(i%7) + 0.3)},
				trace.PhaseCost{Phase: trace.PhaseMAC, Cycles: 11.7})
		}
	}
	var buf bytes.Buffer
	if err := sink.WriteSeriesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode parses doc keeping numbers exact, so an edit round-trips every
// other field bit for bit.
func decode(t *testing.T, doc []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// edit applies f to a decoded copy of doc and re-encodes it.
func edit(t *testing.T, doc []byte, f func(map[string]any)) []byte {
	t.Helper()
	m := decode(t, doc)
	f(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// bumpFirstSampleCycles adds one cycle to the first phase entry of the
// first retained sample of the first proc.
func bumpFirstSampleCycles(t *testing.T, m map[string]any) {
	t.Helper()
	proc := m["procs"].([]any)[0].(map[string]any)
	sample := proc["samples"].([]any)[0].(map[string]any)
	cycles := sample["cycles"].(map[string]any)
	keys := make([]string, 0, len(cycles))
	for k := range cycles {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Fatal("first sample has no phase cycles to edit")
	}
	sort.Strings(keys)
	f, err := cycles[keys[0]].(json.Number).Float64()
	if err != nil {
		t.Fatal(err)
	}
	cycles[keys[0]] = json.Number(strconv.FormatFloat(f+1, 'g', -1, 64))
}

func swapFirstProcs(m map[string]any) {
	procs := m["procs"].([]any)
	procs[0], procs[1] = procs[1], procs[0]
}

type rejection struct {
	name string
	edit func(*testing.T, map[string]any)
	want string
}

// oneFieldEdits are the corruptions both the series artifact and the
// sidecar's series section must reject, each with its own message.
var oneFieldEdits = []rejection{
	{"window 1000", func(_ *testing.T, m map[string]any) { m["window_cycles"] = json.Number("1000") },
		"window_cycles 1000 is not a power of two"},
	{"window 0", func(_ *testing.T, m map[string]any) { m["window_cycles"] = json.Number("0") },
		"window_cycles 0 is not a power of two"},
	{"max_samples 0", func(_ *testing.T, m map[string]any) { m["max_samples"] = json.Number("0") },
		"max_samples 0 must be >= 1"},
	{"procs out of order", func(_ *testing.T, m map[string]any) { swapFirstProcs(m) },
		"not in name order"},
}

func TestCheckSeriesAcceptsSampledRun(t *testing.T) {
	doc := sampledSeries(t)
	if err := checkSeries(doc); err != nil {
		t.Fatalf("known-good series rejected: %v", err)
	}
	procs := decode(t, doc)["procs"].([]any)
	if len(procs) != 2 {
		t.Fatalf("want 2 procs in the export, got %d", len(procs))
	}
	if n, _ := procs[0].(map[string]any)["evicted_windows"].(json.Number).Int64(); n == 0 {
		t.Fatal("scenario must evict windows: lengthen the run")
	}
}

func TestCheckSeriesRejectsOneFieldEdits(t *testing.T) {
	doc := sampledSeries(t)
	cases := append(append([]rejection(nil), oneFieldEdits...), rejection{
		"sample cycle delta off by one", bumpFirstSampleCycles,
		"(must be exact)",
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := edit(t, doc, func(m map[string]any) { tc.edit(t, m) })
			err := checkSeries(bad)
			if err == nil {
				t.Fatal("edited series accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// fig11Sidecar is a real fig11 sidecar (small access count) carrying
// the series summary section, plus the series artifact of the same run.
func fig11Sidecar(t *testing.T) (doc, series []byte) {
	t.Helper()
	sc, series, err := bench.SeriesForFigure("11", 200)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, series
}

func TestCheckSidecarSeriesSection(t *testing.T) {
	doc, series := fig11Sidecar(t)
	if err := checkSidecar(doc); err != nil {
		t.Fatalf("known-good fig11 sidecar rejected: %v", err)
	}
	if err := checkSeries(series); err != nil {
		t.Fatalf("known-good fig11 series rejected: %v", err)
	}
	for _, tc := range oneFieldEdits {
		t.Run(tc.name, func(t *testing.T) {
			bad := edit(t, doc, func(m map[string]any) {
				tc.edit(t, m["series"].(map[string]any))
			})
			err := checkSidecar(bad)
			if err == nil {
				t.Fatal("edited sidecar accepted")
			}
			if !strings.HasPrefix(err.Error(), "series") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q is not the series section's %q", err, tc.want)
			}
		})
	}
}
