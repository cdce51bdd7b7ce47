package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestCorruptedShadowFailsAccessCheck flips one byte of the shadow copy
// under the line the next read covers: the read-back check must fail.
func TestCorruptedShadowFailsAccessCheck(t *testing.T) {
	w := newAccess(7)
	b := newBench(t.TempDir())
	if err := w.setup(b); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.prepare(b); err != nil {
		t.Fatal(err)
	}
	if b.mismatch != nil {
		t.Fatalf("clean run reported a mismatch: %v", b.mismatch)
	}
	i := uint64(0)
	for w.seq[i].write {
		i++
	}
	o := w.seq[i]
	w.shadow[o.buf][int(o.line)*lineSize+5] ^= 0x40
	if err := w.op(b, i); !errors.Is(err, errMismatch) {
		t.Fatalf("op on a corrupted shadow returned %v, want errMismatch", err)
	}
	if b.mismatch == nil {
		t.Fatal("mismatch not recorded")
	}
}

// TestCorruptedShadowFailsRestoreCheck corrupts the shadow of one buffer
// and checks that verifying a Save→Load restore catches it.
func TestCorruptedShadowFailsRestoreCheck(t *testing.T) {
	w := newPersist(7, 2)
	b := newBench(t.TempDir())
	if err := w.setup(b); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.prepare(b); err != nil {
		t.Fatal(err)
	}
	if err := w.op(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.saveLoad(b); err != nil {
		t.Fatalf("clean restore: %v", err)
	}
	w.shadow[3][12345] ^= 1
	if err := w.saveLoad(b); !errors.Is(err, errMismatch) {
		t.Fatalf("restore against a corrupted shadow returned %v, want errMismatch", err)
	}
}

// TestDelegateRoundTrip runs delegate ops and checks the read-back passes.
func TestDelegateRoundTrip(t *testing.T) {
	w := newDelegate(3)
	b := newBench(t.TempDir())
	if err := w.setup(b); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for i := uint64(0); i < 3; i++ {
		if err := w.op(b, i); err != nil {
			t.Fatal(err)
		}
	}
	if b.mismatch != nil || b.readLat.seen != 3 || b.writeLat.seen != 3 {
		t.Fatalf("mismatch %v, %d reads and %d writes timed", b.mismatch, b.readLat.seen, b.writeLat.seen)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b, c := accessSeq(newRand(1), 1000), accessSeq(newRand(1), 1000), accessSeq(newRand(2), 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one sequence")
	}
	writes, partial := 0, 0
	for _, o := range a {
		if int(o.lo)+int(o.n) > lineSize {
			t.Fatalf("op %+v crosses its line", o)
		}
		if o.write {
			writes++
			if o.n != lineSize {
				partial++
			}
		}
	}
	if writes < 250 || writes > 350 || partial < 40 || partial > 110 {
		t.Fatalf("%d writes, %d partial in 1000 ops; want about 300 and 75", writes, partial)
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 40}, // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 60, End: 70},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20, 20, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestCheckNestingRejectsEscapingChild(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "late", Op: 1, Parent: 0, Start: 90, End: 110},
	}
	if err := checkNesting(spans); err == nil {
		t.Fatal("child ending after its op passed the nesting check")
	}
	spans[1].End, spans[1].Op = 95, 2
	if err := checkNesting(spans); err == nil {
		t.Fatal("child of another op passed the nesting check")
	}
}

// TestRecorderStaysBoundedAndNested records many ops through a small
// recorder: it must decimate whole ops and keep every child nested.
func TestRecorderStaysBoundedAndNested(t *testing.T) {
	r := newRecorder(64)
	t0 := time.Now()
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns)) }
	for op := 0; op < 1000; op++ {
		base := op * 100
		r.beginOp("op", at(base))
		c := r.begin("call", 1, at(base+10))
		r.end(c, at(base+20))
		c = r.begin("call", 1, at(base+30))
		r.end(c, at(base+50))
		r.endOp(at(base + 60))
	}
	if len(r.spans) > 64+3 {
		t.Fatalf("%d spans kept, limit 64", len(r.spans))
	}
	if err := checkNesting(r.spans); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.spans {
		if s.Op%r.stride != 0 {
			t.Fatalf("op %d kept at stride %d", s.Op, r.stride)
		}
	}
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		if s.Parent < 0 && self[i] != 30 {
			t.Fatalf("op %d self time %d, want 30", s.Op, self[i])
		}
	}
}

func TestSamplesKeepEvenSpacing(t *testing.T) {
	s := newSamples(8)
	for i := 0; i < 100; i++ {
		s.add(float64(i))
	}
	if len(s.vals) > 8 {
		t.Fatalf("kept %d values, cap 8", len(s.vals))
	}
	for k, v := range s.vals {
		if v != float64(k)*float64(s.stride) {
			t.Fatalf("value %d is %v at stride %d", k, v, s.stride)
		}
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	if v, ok := quantile(vals, 0.9); !ok || math.Abs(v-89.1) > 1e-9 {
		t.Fatalf("p90 of 0..99 = %v (ok %v), want 89.1 with ten beyond", v, ok)
	}
	if _, ok := quantile(vals, 0.99); ok {
		t.Fatal("p99 of 100 samples reported with fewer than ten beyond")
	}
	if v := median(vals); v != 49.5 {
		t.Fatalf("median %v, want 49.5", v)
	}
}

// TestSegmentIsDeterministic runs the delegate determinism segment twice.
func TestSegmentIsDeterministic(t *testing.T) {
	cfg := config{workload: "delegate", seed: 5}
	cycles, digest, err := determinism(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 || digest["closures-accepted"] == 0 {
		t.Fatalf("segment recorded %v cycles/op and %d accepted closures", cycles, digest["closures-accepted"])
	}
}
