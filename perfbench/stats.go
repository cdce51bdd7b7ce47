package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples keeps a bounded, evenly spaced subset of a latency series. It
// accepts every stride-th observation; when the buffer fills it drops every
// other kept value and doubles the stride, so a run of any length keeps at
// most cap values spread over the whole run, not just its start.
type samples struct {
	vals   []float64
	stride uint64
	seen   uint64
}

func newSamples(capacity int) *samples {
	return &samples{vals: make([]float64, 0, capacity), stride: 1}
}

func (s *samples) add(v float64) {
	s.seen++
	if (s.seen-1)%s.stride != 0 {
		return
	}
	if len(s.vals) == cap(s.vals) {
		n := 0
		for i := 0; i < len(s.vals); i += 2 {
			s.vals[n] = s.vals[i]
			n++
		}
		s.vals = s.vals[:n]
		s.stride *= 2
		if (s.seen-1)%s.stride != 0 {
			return
		}
	}
	s.vals = append(s.vals, v)
}

// bytes is the memory the series holds, subtracted from the heap figure.
func (s *samples) bytes() int { return 8 * cap(s.vals) }

// quantile returns the q-quantile of vals (linear interpolation between
// closest ranks) and whether at least ten kept samples lie beyond it, the
// rule for reporting a percentile at all.
func quantile(vals []float64, q float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sortedQuantile(sorted, q)
}

func sortedQuantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		hi = n - 1
	}
	v := sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
	beyond := n - 1 - lo // samples ranked above the quantile's position
	return v, beyond >= 10
}

func median(vals []float64) float64 {
	v, _ := quantile(vals, 0.5)
	return v
}

// memDelta is the runtime's allocation and GC activity over a phase.
type memDelta struct {
	mallocs, allocBytes, gcCycles uint64
	gcPause                       time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   uint64(after.NumGC - before.NumGC),
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// liveHeapMB forces a collection and reports the live heap in MiB, less
// the bytes the benchmark itself holds (shadows, inputs, sample buffers).
func liveHeapMB(benchBytes int) float64 {
	runtime.GC()
	ms := readMem()
	return (float64(ms.HeapAlloc) - float64(benchBytes)) / (1 << 20)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
