package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call made by the benchmark: a workload op (parent -1)
// or a public mmt call inside it. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Lines  int    `json:"lines,omitempty"` // 64-byte lines a Read or Write covered
}

// recorder keeps spans in memory and writes them out at the end. It
// records every stride-th op whole (the op span and all its children);
// when full it keeps every other recorded op and doubles the stride, so
// a long run stays bounded yet sampled evenly.
type recorder struct {
	epoch   time.Time
	spans   []span
	limit   int
	stride  uint64
	ops     uint64
	opStart []int // index in spans where each recorded op begins
	cur     int   // index of the open op span, -1 when the op is not recorded
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, stride: 1, cur: -1}
}

// beginOp opens the next workload op. The op is recorded if it falls on
// the current stride.
func (r *recorder) beginOp(name string, t time.Time) {
	id := r.ops
	r.ops++
	r.cur = -1
	if id%r.stride != 0 {
		return
	}
	if len(r.spans) >= r.limit {
		r.decimate()
		if id%r.stride != 0 {
			return
		}
	}
	r.opStart = append(r.opStart, len(r.spans))
	r.cur = len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: id, Parent: -1, Start: int64(t.Sub(r.epoch))})
}

func (r *recorder) endOp(t time.Time) {
	if r.cur >= 0 {
		r.spans[r.cur].End = int64(t.Sub(r.epoch))
		r.cur = -1
	}
}

// begin opens a child call span of the current op; -1 when unrecorded.
func (r *recorder) begin(name string, lines int, t time.Time) int {
	if r.cur < 0 {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: r.spans[r.cur].Op, Parent: r.cur, Start: int64(t.Sub(r.epoch)), Lines: lines})
	return len(r.spans) - 1
}

func (r *recorder) end(i int, t time.Time) {
	if i >= 0 {
		r.spans[i].End = int64(t.Sub(r.epoch))
	}
}

// decimate drops every other recorded op (with its children) and doubles
// the stride. Parent indices are rebased as spans move.
func (r *recorder) decimate() {
	r.stride *= 2
	var kept []span
	var starts []int
	for k, start := range r.opStart {
		end := len(r.spans)
		if k+1 < len(r.opStart) {
			end = r.opStart[k+1]
		}
		if r.spans[start].Op%r.stride != 0 {
			continue
		}
		base := len(kept)
		starts = append(starts, base)
		for _, s := range r.spans[start:end] {
			if s.Parent >= 0 {
				s.Parent = base + (s.Parent - start)
			}
			kept = append(kept, s)
		}
	}
	r.spans = append(r.spans[:0], kept...)
	r.opStart = starts
}

// checkNesting asserts that every child span lies inside its op span and
// belongs to the same op.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) names a later parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Op != s.Op {
			return fmt.Errorf("span %d (%s) is in op %d but its parent is in op %d", i, s.Name, s.Op, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] is not inside its parent %s [%d,%d]",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// writeSpans writes one JSON object per span, with its self time and
// the phase of the run that recorded it.
func writeSpans(out io.Writer, phase string, spans []span, self []int64) error {
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		row := struct {
			Phase string `json:"phase"`
			span
			Self int64 `json:"self_ns"`
		}{phase, s, self[i]}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return w.Flush()
}
