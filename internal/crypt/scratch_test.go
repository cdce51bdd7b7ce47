package crypt

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestPadLineMatchesEncryptZero: the one-shot OTP keystream equals the
// incremental pad path (ciphertext of a zero line IS the pad).
func TestPadLineMatchesEncryptZero(t *testing.T) {
	e := testEngine()
	zero := make([]byte, LineSize)
	var s Scratch
	f := func(guaddr, counter uint64, lineIdx uint32) bool {
		tw := Tweak{GUAddr: guaddr, Line: lineIdx, Counter: counter}
		got := e.PadLine(tw, &s)
		return bytes.Equal(got[:], e.EncryptLine(tw, zero))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncryptLineIntoMatchesEncryptLine: the zero-alloc variant is
// byte-identical to the allocating one, including in-place (aliased) use.
func TestEncryptLineIntoMatchesEncryptLine(t *testing.T) {
	e := testEngine()
	var s Scratch
	tw := Tweak{GUAddr: 0xABC, Line: 9, Counter: 1234}
	pt := line(5)

	want := e.EncryptLine(tw, pt)
	dst := make([]byte, LineSize)
	e.EncryptLineInto(tw, pt, dst, &s)
	if !bytes.Equal(dst, want) {
		t.Fatal("EncryptLineInto differs from EncryptLine")
	}

	back := make([]byte, LineSize)
	e.DecryptLineInto(tw, dst, back, &s)
	if !bytes.Equal(back, pt) {
		t.Fatal("DecryptLineInto round trip failed")
	}

	// In-place: src and dst alias.
	buf := append([]byte(nil), pt...)
	e.EncryptLineInto(tw, buf, buf, &s)
	if !bytes.Equal(buf, want) {
		t.Fatal("aliased EncryptLineInto differs from EncryptLine")
	}
}

func TestEncryptLineIntoPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short line")
		}
	}()
	var s Scratch
	testEngine().EncryptLineInto(Tweak{}, make([]byte, 10), make([]byte, LineSize), &s)
}

// TestLineMACBufMatchesLineMAC: the scratch-buffer MAC and the composed
// LineMAC both equal the reference oracle.
func TestLineMACBufMatchesLineMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	f := func(guaddr, counter uint64, lineIdx uint32, seed byte) bool {
		tw := Tweak{GUAddr: guaddr, Line: lineIdx, Counter: counter}
		ct := e.EncryptLine(tw, line(seed))
		want := e.RefLineMAC(tw, ct)
		return e.LineMACBuf(tw, ct, &s) == want && e.LineMAC(tw, ct) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNodeMACBufMatchesNodeMAC: the scratch-buffer node MAC and the
// composed NodeMAC both equal the reference oracle.
func TestNodeMACBufMatchesNodeMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	f := func(guaddr, parent uint64, nodeID uint32, arity uint8, packed []uint64) bool {
		want := e.RefNodeMAC(guaddr, nodeID, parent, uint64(arity), packed)
		return e.NodeMACBuf(guaddr, nodeID, parent, uint64(arity), packed, &s) == want &&
			e.NodeMAC(guaddr, nodeID, parent, uint64(arity), packed) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeMACBatchMatchesNodeMAC: a batch of mixed-arity jobs produces
// exactly the per-job NodeMAC values, and the scratch is reusable.
func TestNodeMACBatchMatchesNodeMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	const guaddr = 0x700
	jobs := []NodeMACJob{
		{NodeID: 0, ParentCounter: 9, Arity: 4, Packed: []uint64{1, 2}},
		{NodeID: 17, ParentCounter: 0, Arity: 1, Packed: []uint64{5, 0x7}},
		{NodeID: 2, ParentCounter: 1 << 40, Arity: 8, Packed: []uint64{0, 0, 7}},
		{NodeID: 3, ParentCounter: 12, Arity: 0, Packed: nil},
		{NodeID: 4, ParentCounter: 12, Arity: 64, Packed: make([]uint64, 17)},
	}
	out := make([]uint64, len(jobs))
	for round := 0; round < 3; round++ { // reuse the same scratch
		e.NodeMACBatch(guaddr, jobs, out, &s)
		for i, j := range jobs {
			want := e.RefNodeMAC(guaddr, j.NodeID, j.ParentCounter, j.Arity, j.Packed)
			if out[i] != want {
				t.Fatalf("round %d job %d: batch %#x, want %#x", round, i, out[i], want)
			}
		}
	}
	// Empty batch is a no-op.
	e.NodeMACBatch(guaddr, nil, nil, &s)
}

// TestNodeHashBatchMatchesNodeMAC: the unmasked hash batch plus a
// separately derived mask reconstructs NodeMAC exactly — the contract the
// tree's mask cache relies on.
func TestNodeHashBatchMatchesNodeMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	const guaddr = 0x900
	jobs := []NodeMACJob{
		{NodeID: 5, ParentCounter: 3, Arity: 4, Packed: []uint64{9, 0x20001}},
		{NodeID: 1 << 24, ParentCounter: 0, Arity: 64, Packed: make([]uint64, 17)},
	}
	out := make([]uint64, len(jobs))
	e.NodeHashBatch(jobs, out, &s)
	for i, j := range jobs {
		var base [16]byte
		e.MaskBaseInto(guaddr, j.NodeID, DomainNodeMAC, base[:], &s)
		mac := out[i] ^ e.MaskFromBase(base[:], j.ParentCounter, &s)
		want := e.RefNodeMAC(guaddr, j.NodeID, j.ParentCounter, j.Arity, j.Packed)
		if mac != want {
			t.Fatalf("job %d: hash^mask = %#x, want %#x", i, mac, want)
		}
	}
}

// TestMaskFromBaseMatchesLineMAC: LineHash plus a mask replayed from a
// cached DomainLineMAC base equals LineMAC — the engine's per-line mask
// cache contract.
func TestMaskFromBaseMatchesLineMAC(t *testing.T) {
	e := testEngine()
	var s Scratch
	f := func(guaddr, counter uint64, lineIdx uint32, seed byte) bool {
		tw := Tweak{GUAddr: guaddr, Line: lineIdx, Counter: counter}
		ct := e.EncryptLine(tw, line(seed))
		var base [16]byte
		e.MaskBaseInto(guaddr, lineIdx, DomainLineMAC, base[:], &s)
		got := e.LineHash(ct, &s) ^ e.MaskFromBase(base[:], counter, &s)
		return got == e.RefLineMAC(tw, ct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPadLineFromBaseMatchesPadLine: keystream replayed from a cached
// DomainPad base is byte-identical to the full PadLine derivation, and
// the FromBase encrypt/decrypt wrappers round-trip.
func TestPadLineFromBaseMatchesPadLine(t *testing.T) {
	e := testEngine()
	var s, s2 Scratch
	f := func(guaddr, counter uint64, lineIdx uint32) bool {
		tw := Tweak{GUAddr: guaddr, Line: lineIdx, Counter: counter}
		want := e.PadLine(tw, &s)
		var base [16]byte
		e.MaskBaseInto(guaddr, lineIdx, DomainPad, base[:], &s2)
		got := e.PadLineFromBase(base[:], counter, &s2)
		return bytes.Equal(got[:], want[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}

	tw := Tweak{GUAddr: 0xABC, Line: 9, Counter: 77}
	var base [16]byte
	e.MaskBaseInto(tw.GUAddr, tw.Line, DomainPad, base[:], &s)
	pt := line(3)
	ct := make([]byte, LineSize)
	e.EncryptLineFromBase(base[:], tw.Counter, pt, ct, &s)
	if !bytes.Equal(ct, e.EncryptLine(tw, pt)) {
		t.Fatal("EncryptLineFromBase differs from EncryptLine")
	}
	back := make([]byte, LineSize)
	e.DecryptLineFromBase(base[:], tw.Counter, ct, back, &s)
	if !bytes.Equal(back, pt) {
		t.Fatal("DecryptLineFromBase round trip failed")
	}
}

// TestScratchPathsAllocFree: the Into/Buf variants are allocation-free
// once the scratch is warm — the hardware data path they model does not
// call malloc per memory access.
func TestScratchPathsAllocFree(t *testing.T) {
	e := testEngine()
	var s Scratch
	tw := Tweak{GUAddr: 1, Line: 2, Counter: 3}
	buf := line(0)
	jobs := []NodeMACJob{
		{NodeID: 0, ParentCounter: 9, Arity: 4, Packed: []uint64{1, 2}},
		{NodeID: 1, ParentCounter: 9, Arity: 4, Packed: []uint64{5, 6}},
	}
	out := make([]uint64, len(jobs))
	var base [16]byte
	e.NodeMACBatch(1, jobs, out, &s) // warm polys

	var macSink uint64
	allocs := testing.AllocsPerRun(100, func() {
		e.EncryptLineInto(tw, buf, buf, &s)
		macSink ^= e.LineMACBuf(tw, buf, &s)
		macSink ^= e.NodeMACBuf(1, 0, 9, 4, jobs[0].Packed, &s)
		e.NodeMACBatch(1, jobs, out, &s)
		e.NodeHashBatch(jobs, out, &s)
		e.MaskBaseInto(1, 2, DomainLineMAC, base[:], &s)
		macSink ^= e.MaskFromBase(base[:], 3, &s)
		macSink ^= e.LineHash(buf, &s)
		e.EncryptLineFromBase(base[:], 3, buf, buf, &s)
		e.DecryptLineFromBase(base[:], 3, buf, buf, &s)
		e.DecryptLineInto(tw, buf, buf, &s)
	})
	if allocs != 0 {
		t.Fatalf("scratch paths allocated %.1f times per op, want 0", allocs)
	}
	_ = macSink
}
