package bench

import (
	"bytes"
	"testing"

	"mmt/internal/trace"
)

// TestFig11SeriesSerialParallelEquivalence: the windowed time series
// rides the same determinism contract as every other export — the
// mmt-series/v1 document of a fig11 sweep (engine cells fanned out
// across workers, each with its own clock and sink, merged serially in
// input order) is byte-identical at 1/2/4/8 workers. Window indices
// come off the simulated clocks, so the fan-out cannot move a sample
// between windows; the merge's fresh-copy path preserves the deltas
// bit for bit. Run with -race this also covers the sampler's locking.
func TestFig11SeriesSerialParallelEquivalence(t *testing.T) {
	seriesBytes := func(workers int) []byte {
		SetWorkers(workers)
		defer SetWorkers(1)
		sink := trace.NewSink()
		if err := sink.EnableSeries(trace.SeriesConfig{WindowShift: fig11SeriesShift}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fig11Traced(2_000, sink); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sink.WriteSeriesJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := seriesBytes(1)
	if !bytes.Contains(serial, []byte("mmt-series/v1")) || !bytes.Contains(serial, []byte(`"samples"`)) {
		t.Fatalf("series export looks empty:\n%.400s", serial)
	}
	for _, workers := range []int{2, 4, 8} {
		if parallel := seriesBytes(workers); !bytes.Equal(serial, parallel) {
			t.Errorf("workers=%d: mmt-series/v1 export differs from serial", workers)
		}
	}
}
