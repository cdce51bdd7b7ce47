package crypt

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
)

// The allocating reference kernels. Production derives every pad and mask
// through the Scratch kernels (scratch.go); these are straightforward
// renditions — fresh arrays per call, one PRF block at a time, the MAC
// polynomials built as explicit coefficient slices — kept as the
// differential oracle the Scratch kernels, NodeMAC/LineMAC and the
// engine's Enable/Release sweeps are checked against. The exported ones
// are visible to the external tests in this directory (package
// crypt_test), which drive the engine and compare against them.

// tweakBase encrypts the location half of a tweak: (address, line index,
// domain).
func (e *Engine) tweakBase(guaddr uint64, line uint32, domain byte) [aes.BlockSize]byte {
	var in, out [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(in[0:8], guaddr)
	binary.LittleEndian.PutUint32(in[8:12], line)
	in[12] = domain
	e.block.Encrypt(out[:], in[:])
	return out
}

// prf finishes the two-block PRF: AES(base XOR (counter, lane)).
func (e *Engine) prf(base [aes.BlockSize]byte, counter uint64, lane uint32) [aes.BlockSize]byte {
	var in, out [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(in[0:8], counter)
	binary.LittleEndian.PutUint32(in[8:12], lane)
	for i := range in {
		in[i] ^= base[i]
	}
	e.block.Encrypt(out[:], in[:])
	return out
}

// pad fills dst (up to LineSize bytes) with the OTP keystream for tw.
func (e *Engine) pad(tw Tweak, dst []byte) {
	base := e.tweakBase(tw.GUAddr, tw.Line, DomainPad)
	for off := 0; off < len(dst); off += aes.BlockSize {
		out := e.prf(base, tw.Counter, uint32(off/aes.BlockSize))
		copy(dst[off:], out[:])
	}
}

// macMask derives the one-time MAC mask for a tweak.
func (e *Engine) macMask(tw Tweak, domain byte) uint64 {
	base := e.tweakBase(tw.GUAddr, tw.Line, domain)
	out := e.prf(base, tw.Counter, 0xFFFFFFFF)
	return binary.LittleEndian.Uint64(out[:8])
}

// EncryptLine XORs line with the OTP for tw and returns the ciphertext in
// a fresh slice. len(line) must be LineSize.
func (e *Engine) EncryptLine(tw Tweak, line []byte) []byte {
	if len(line) != LineSize {
		panic(fmt.Sprintf("crypt: EncryptLine with %d bytes, want %d", len(line), LineSize))
	}
	var pad [LineSize]byte
	e.pad(tw, pad[:])
	out := make([]byte, LineSize)
	for i := range out {
		out[i] = line[i] ^ pad[i]
	}
	return out
}

// DecryptLine is the inverse of EncryptLine (XOR is symmetric).
func (e *Engine) DecryptLine(tw Tweak, ct []byte) []byte { return e.EncryptLine(tw, ct) }

// XORPad applies the OTP for tw to buf in place.
func (e *Engine) XORPad(tw Tweak, buf []byte) {
	if len(buf) != LineSize {
		panic(fmt.Sprintf("crypt: XORPad with %d bytes, want %d", len(buf), LineSize))
	}
	var pad [LineSize]byte
	e.pad(tw, pad[:])
	for i := range buf {
		buf[i] ^= pad[i]
	}
}

// RefLineMAC is the reference line MAC: the ciphertext words plus the
// length binding as one coefficient slice, evaluated at the secret point
// and masked.
func (e *Engine) RefLineMAC(tw Tweak, ct []byte) uint64 {
	words := make([]uint64, 0, LineSize/8+1)
	for off := 0; off+8 <= len(ct); off += 8 {
		words = append(words, binary.LittleEndian.Uint64(ct[off:]))
	}
	words = append(words, uint64(len(ct)))
	return e.mulx.Eval(words) ^ e.macMask(tw, DomainLineMAC)
}

// RefNodeMAC is the reference node MAC: the polynomial (parentCounter,
// arity, packed...), constant term first, built as one coefficient slice
// and evaluated at the secret point, then masked.
func (e *Engine) RefNodeMAC(guaddr uint64, nodeID uint32, parentCounter, arity uint64, packed []uint64) uint64 {
	coeffs := append([]uint64{parentCounter, arity}, packed...)
	return e.mulx.Eval(coeffs) ^ e.macMask(Tweak{GUAddr: guaddr, Line: nodeID, Counter: parentCounter}, DomainNodeMAC)
}
