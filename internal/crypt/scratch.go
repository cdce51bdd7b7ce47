package crypt

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
)

// Scratch holds caller-owned working buffers for the allocation-free line
// and node paths. The steady-state protected read/write path (engine
// Read/Write per 64 B line) must not allocate — the hardware it models
// certainly does not — and the Into/Buf variants below achieve that by
// staging through Scratch instead of fresh slices (asserted by
// TestScratchPathsAllocFree, in the spirit of trace_alloc_test.go).
//
// The staging buffers exist because cipher.Block is an interface: escape
// analysis cannot see through Encrypt, so any local array passed to it is
// forced to the heap. Buffers reached through a long-lived *Scratch cost
// one allocation when the Scratch itself first escapes, not one per call.
//
// A Scratch belongs to exactly one goroutine; parallel work units (see
// internal/par) each own their own.
type Scratch struct {
	pad       [LineSize]byte      // OTP keystream for the line in flight
	stage     [LineSize]byte      // PRF input blocks for PadLine
	aesIn     [aes.BlockSize]byte // single-block AES staging
	aesOut    [aes.BlockSize]byte //
	base      [aes.BlockSize]byte // tweakBase output
	lineWords [LineSize/8 + 1]uint64
	polys     [][]uint64
}

// tweakBaseInto encrypts the location half of a tweak — (address, line
// index, domain) — into s.base. The full tweak space (address, line,
// counter, lane) exceeds one AES block, so every pad and mask PRF chains
// two AES calls, CBC-MAC style: a PRF for fixed two-block inputs.
func (e *Engine) tweakBaseInto(guaddr uint64, line uint32, domain byte, s *Scratch) {
	in := s.aesIn[:]
	for i := range in {
		in[i] = 0
	}
	binary.LittleEndian.PutUint64(in[0:8], guaddr)
	binary.LittleEndian.PutUint32(in[8:12], line)
	in[12] = domain
	e.block.Encrypt(s.base[:], in)
}

// macMaskBuf derives the one-time MAC mask for a tweak: AES(base XOR
// (counter, mask lane)). domain separates data-line MACs from tree-node
// MACs; the all-ones lane separates masks from pad keystream blocks.
func (e *Engine) macMaskBuf(tw Tweak, domain byte, s *Scratch) uint64 {
	e.tweakBaseInto(tw.GUAddr, tw.Line, domain, s)
	in := s.aesIn[:]
	for i := range in {
		in[i] = 0
	}
	binary.LittleEndian.PutUint64(in[0:8], tw.Counter)
	binary.LittleEndian.PutUint32(in[8:12], 0xFFFFFFFF)
	for i := range in {
		in[i] ^= s.base[i]
	}
	e.block.Encrypt(s.aesOut[:], in)
	return binary.LittleEndian.Uint64(s.aesOut[:8])
}

// MaskBaseSize is the byte size of one cached tweak base (one AES block).
// Callers that keep per-line or per-node base planes slice them at this
// stride.
const MaskBaseSize = aes.BlockSize

// MaskBaseInto computes the tweak base — the first AES block of the
// two-block PRF — for (guaddr, id, domain) and writes it to dst, which
// must be at least aes.BlockSize bytes. The base depends only on the
// object's identity, not its counter, so callers that touch the same
// line or node repeatedly (the engine's per-line planes, the tree's
// per-node mask cache) compute it once and replay it through
// MaskFromBase / PadLineFromBase, halving the AES work of a MAC mask and
// shaving a block off every pad.
//
//mmt:hotpath
func (e *Engine) MaskBaseInto(guaddr uint64, id uint32, domain byte, dst []byte, s *Scratch) {
	in := s.aesIn[:]
	for i := range in {
		in[i] = 0
	}
	binary.LittleEndian.PutUint64(in[0:8], guaddr)
	binary.LittleEndian.PutUint32(in[8:12], id)
	in[12] = domain
	e.block.Encrypt(dst[:aes.BlockSize], in)
}

// MaskFromBase finishes the MAC-mask PRF from a precomputed base:
// AES(base XOR (counter, mask lane)). Identical to the mask macMaskBuf
// derives for the (guaddr, id, domain) the base was built from.
//
//mmt:hotpath
func (e *Engine) MaskFromBase(base []byte, counter uint64, s *Scratch) uint64 {
	// Word-at-a-time staging: the PRF input is (counter, mask lane) XOR
	// base, built as two 64-bit stores instead of byte loops.
	in := s.aesIn[:]
	b0 := binary.LittleEndian.Uint64(base[0:8])
	b1 := binary.LittleEndian.Uint64(base[8:16])
	binary.LittleEndian.PutUint64(in[0:8], counter^b0)
	binary.LittleEndian.PutUint64(in[8:16], 0xFFFFFFFF^b1)
	e.block.Encrypt(s.aesOut[:], in)
	return binary.LittleEndian.Uint64(s.aesOut[:8])
}

// PadLineFromBase fills s.pad with the 64-byte OTP keystream for the line
// whose DomainPad base is base, at version counter. Identical keystream
// to PadLine for the matching tweak, minus the per-call tweakBase AES.
//
//mmt:hotpath
func (e *Engine) PadLineFromBase(base []byte, counter uint64, s *Scratch) *[LineSize]byte {
	// Word-at-a-time staging: each PRF input block is (counter, lane) XOR
	// base — two 64-bit stores per block, no zeroing pass, no byte loops.
	// The lane index occupies bytes 8..11 with 12..15 zero, so the second
	// word is just uint64(lane) XOR the base's high word.
	in := s.stage[:]
	b0 := binary.LittleEndian.Uint64(base[0:8])
	b1 := binary.LittleEndian.Uint64(base[8:16])
	w0 := counter ^ b0
	for lane := 0; lane < LineSize/aes.BlockSize; lane++ {
		blk := in[lane*aes.BlockSize:]
		binary.LittleEndian.PutUint64(blk[0:8], w0)
		binary.LittleEndian.PutUint64(blk[8:16], uint64(lane)^b1)
	}
	for off := 0; off < LineSize; off += aes.BlockSize {
		e.block.Encrypt(s.pad[off:off+aes.BlockSize], in[off:off+aes.BlockSize])
	}
	return &s.pad
}

// PadLine fills s.pad with the full 64-byte OTP keystream for tw in one
// shot: all four PRF input blocks are staged first, then encrypted block
// by block straight into s.pad — no per-block output copies.
//mmt:hotpath
func (e *Engine) PadLine(tw Tweak, s *Scratch) *[LineSize]byte {
	e.tweakBaseInto(tw.GUAddr, tw.Line, DomainPad, s)
	return e.PadLineFromBase(s.base[:], tw.Counter, s)
}

// XORLine XORs a LineSize line with a LineSize pad into dst, eight bytes
// at a time. Callers holding a memoised pad (the engine's per-line pad
// plane) use this directly; Encrypt/DecryptLineFromBase compose it with
// the pad derivation for everyone else. line and dst may alias.
//
//mmt:hotpath
func XORLine(dst, line, pad []byte) {
	if len(line) != LineSize || len(dst) != LineSize || len(pad) < LineSize {
		//mmt:allow nopanic: caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: XORLine with %d -> %d bytes, want %d", len(line), len(dst), LineSize))
	}
	for i := 0; i < LineSize; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(line[i:])^binary.LittleEndian.Uint64(pad[i:]))
	}
}

// EncryptLineFromBase XORs line with the keystream derived from a cached
// DomainPad base into dst. line and dst must be LineSize bytes and may
// alias. Identical output to EncryptLineInto for the matching tweak.
//
//mmt:hotpath
func (e *Engine) EncryptLineFromBase(base []byte, counter uint64, line, dst []byte, s *Scratch) {
	if len(line) != LineSize || len(dst) != LineSize {
		//mmt:allow nopanic: caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: EncryptLineFromBase with %d -> %d bytes, want %d", len(line), len(dst), LineSize))
	}
	pad := e.PadLineFromBase(base, counter, s)
	for i := 0; i < LineSize; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(line[i:])^binary.LittleEndian.Uint64(pad[i:]))
	}
}

// DecryptLineFromBase is the inverse of EncryptLineFromBase.
//
//mmt:hotpath
func (e *Engine) DecryptLineFromBase(base []byte, counter uint64, ct, dst []byte, s *Scratch) {
	e.EncryptLineFromBase(base, counter, ct, dst, s)
}

// EncryptLineInto XORs line with the OTP for tw into dst. line and dst
// must be LineSize bytes and may alias (in-place re-encryption).
//mmt:hotpath
func (e *Engine) EncryptLineInto(tw Tweak, line, dst []byte, s *Scratch) {
	if len(line) != LineSize || len(dst) != LineSize {
		//mmt:allow nopanic: caller bug, equivalent to built-in bounds check
		panic(fmt.Sprintf("crypt: EncryptLineInto with %d -> %d bytes, want %d", len(line), len(dst), LineSize))
	}
	pad := e.PadLine(tw, s)
	for i := 0; i < LineSize; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(line[i:])^binary.LittleEndian.Uint64(pad[i:]))
	}
}

// DecryptLineInto is the inverse of EncryptLineInto (XOR is symmetric).
//mmt:hotpath
func (e *Engine) DecryptLineInto(tw Tweak, ct, dst []byte, s *Scratch) {
	e.EncryptLineInto(tw, ct, dst, s)
}

// LineHash is the GF(2^64) half of LineMAC: the ciphertext words plus
// length binding, hashed at the secret point. Callers with a cached
// DomainLineMAC mask (the engine's per-line mask cache) XOR it in
// themselves; LineMACBuf composes the two for everyone else.
//
//mmt:hotpath
func (e *Engine) LineHash(ct []byte, s *Scratch) uint64 {
	if len(ct) == LineSize {
		// Unrolled Horner for the fixed full-line case: same polynomial
		// and the same high-to-low fold order as the generic Eval (the
		// length coefficient first, then ciphertext words from the top),
		// without the staging append or the generic loop.
		m := e.mulx
		acc := uint64(LineSize)
		acc = m.Mul(acc) ^ binary.LittleEndian.Uint64(ct[56:64])
		acc = m.Mul(acc) ^ binary.LittleEndian.Uint64(ct[48:56])
		acc = m.Mul(acc) ^ binary.LittleEndian.Uint64(ct[40:48])
		acc = m.Mul(acc) ^ binary.LittleEndian.Uint64(ct[32:40])
		acc = m.Mul(acc) ^ binary.LittleEndian.Uint64(ct[24:32])
		acc = m.Mul(acc) ^ binary.LittleEndian.Uint64(ct[16:24])
		acc = m.Mul(acc) ^ binary.LittleEndian.Uint64(ct[8:16])
		return m.Mul(acc) ^ binary.LittleEndian.Uint64(ct[0:8])
	}
	words := s.lineWords[:0]
	for off := 0; off+8 <= len(ct); off += 8 {
		words = append(words, binary.LittleEndian.Uint64(ct[off:]))
	}
	words = append(words, uint64(len(ct))) // length binding
	return e.mulx.Eval(words)
}

// LineMACBuf is LineMAC staged through the caller's scratch buffers.
//mmt:hotpath
func (e *Engine) LineMACBuf(tw Tweak, ct []byte, s *Scratch) uint64 {
	return e.LineHash(ct, s) ^ e.macMaskBuf(tw, DomainLineMAC, s)
}

// NodeMACBuf is NodeMAC computed through the caller's scratch buffers.
// Identical output to NodeMAC.
//mmt:hotpath
func (e *Engine) NodeMACBuf(guaddr uint64, nodeID uint32, parentCounter, arity uint64, packed []uint64, s *Scratch) uint64 {
	h := e.NodeHash(parentCounter, arity, packed)
	return h ^ e.macMaskBuf(Tweak{GUAddr: guaddr, Line: nodeID, Counter: parentCounter}, DomainNodeMAC, s)
}

// NodeMACJob describes one node MAC of a batch: the inputs NodeMAC takes,
// minus the shared guaddr.
type NodeMACJob struct {
	NodeID        uint32
	ParentCounter uint64
	Arity         uint64
	// Packed is the node's stored counter words (global word + packed
	// 16-bit locals), usually a direct sub-slice of the tree's counter
	// arena. The slice is only read.
	Packed []uint64
}

// NodeHashBatch computes the GF halves of several node MACs at once,
// writing job j's hash (NOT masked) to out[j]. The polynomial slices are
// the jobs' Packed arena sub-slices used in place — no flattening copy —
// and gf.Mulx.EvalBatch interleaves the independent Horner chains for
// instruction-level parallelism; the two header coefficients (arity,
// parent counter) fold in lock-step afterwards. Callers that cache
// per-node masks (the tree) XOR them in themselves; NodeMACBatch
// composes hash and mask for everyone else.
//
// len(out) must be >= len(jobs).
//mmt:hotpath
func (e *Engine) NodeHashBatch(jobs []NodeMACJob, out []uint64, s *Scratch) {
	if cap(s.polys) < len(jobs) {
		//mmt:allow noalloc: guarded grow-once; steady state reuses the batch poly slots
		s.polys = make([][]uint64, len(jobs))
	}
	polys := s.polys[:len(jobs)]
	for i := range jobs {
		polys[i] = jobs[i].Packed
	}
	e.mulx.EvalBatch(polys, out)
	for i := range jobs {
		j := &jobs[i]
		out[i] = e.mulx.Mul(out[i]) ^ j.Arity
		out[i] = e.mulx.Mul(out[i]) ^ j.ParentCounter
	}
}

// NodeMACBatch computes the MACs of several tree nodes at once, writing
// job j's MAC to out[j]. Output is identical to calling NodeMAC per job.
// The tree's leaf-to-root verify path batches all L node MACs of one
// walk through NodeHashBatch with cached masks; this composed form
// serves region scrubs and tests.
//
// len(out) must be >= len(jobs).
//mmt:hotpath
func (e *Engine) NodeMACBatch(guaddr uint64, jobs []NodeMACJob, out []uint64, s *Scratch) {
	e.NodeHashBatch(jobs, out, s)
	for i := range jobs {
		j := &jobs[i]
		out[i] ^= e.macMaskBuf(Tweak{GUAddr: guaddr, Line: j.NodeID, Counter: j.ParentCounter}, DomainNodeMAC, s)
	}
}
