package crypt_test

import (
	"bytes"
	"fmt"
	"testing"

	"mmt/internal/crypt"
	"mmt/internal/engine"
	"mmt/internal/mem"
	"mmt/internal/sim"
	"mmt/internal/tree"
)

// checkRegion compares every line of region r against the reference
// oracle: the stored ciphertext must be plain XORed with the oracle's pad
// for the line's current counter, and the stored line MAC the oracle's
// MAC of that ciphertext.
func checkRegion(t *testing.T, c *engine.Controller, e *crypt.Engine, r int, guaddr uint64, plain []byte) {
	t.Helper()
	tr := c.Tree(r)
	for line := range c.Geometry().Lines() {
		tw := crypt.Tweak{GUAddr: guaddr, Line: uint32(line), Counter: tr.LeafCounter(line)}
		want := append([]byte(nil), plain[line*engine.LineSize:(line+1)*engine.LineSize]...)
		e.XORPad(tw, want)
		ct, mac := c.LineState(r, line)
		if !bytes.Equal(ct, want) {
			t.Fatalf("line %d: ciphertext differs from the oracle", line)
		}
		if wantMAC := e.RefLineMAC(tw, ct); mac != wantMAC {
			t.Fatalf("line %d: MAC %#x, oracle %#x", line, mac, wantMAC)
		}
	}
}

// TestEnableMatchesOracle: Enable's scratch-kernel sweep leaves exactly
// the ciphertext and line MACs the allocating reference kernels produce,
// for several keys, addresses and root counters; after writes advance
// some counters the region still matches the oracle, and Release
// restores the plaintext.
func TestEnableMatchesOracle(t *testing.T) {
	geo := tree.Geometry{Arities: []int{2, 4, 8}, LocalBits: 2}
	for _, tc := range []struct {
		seed   string
		guaddr uint64
		root   uint64
	}{
		{"alpha", 0x1000, 0},
		{"beta", 0xFFFF_FFFF_0001, 1},
		{"gamma", 7, 1 << 40},
	} {
		t.Run(fmt.Sprintf("%s/%#x/%d", tc.seed, tc.guaddr, tc.root), func(t *testing.T) {
			m := mem.New(mem.Config{Size: 2 * geo.DataSize(), RegionSize: geo.DataSize(), MetaPerRegion: geo.MetaSize()})
			c, err := engine.New(m, geo, nil, sim.Gem5Profile())
			if err != nil {
				t.Fatal(err)
			}
			const r = 1
			plain := m.RegionData(r)
			for i := range plain {
				plain[i] = byte(i*31) ^ tc.seed[i%len(tc.seed)]
			}
			plain = append([]byte(nil), plain...)
			key := crypt.KeyFromBytes([]byte(tc.seed))
			if err := c.Enable(r, key, tc.guaddr, tc.root); err != nil {
				t.Fatal(err)
			}
			e := crypt.NewEngine(key)
			checkRegion(t, c, e, r, tc.guaddr, plain)

			// Enough writes to line 5 to overflow its 2-bit local counter,
			// which re-encrypts its siblings under new counters too.
			for i := range 6 {
				line := plain[5*engine.LineSize : 6*engine.LineSize]
				line[i] ^= 0xA5
				if err := c.Write(r, 5, line); err != nil {
					t.Fatal(err)
				}
			}
			checkRegion(t, c, e, r, tc.guaddr, plain)

			if err := c.Release(r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.RegionData(r), plain) {
				t.Fatal("Release did not restore the plaintext")
			}
		})
	}
}
