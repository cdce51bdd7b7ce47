package trace

import (
	"testing"

	"mmt/internal/sim"
)

// TestChargeNilProbeAdvancesClock: a disabled probe still moves the
// clock, to exactly now + Time(float64(n)/freq); zero and negative
// charges leave it alone.
func TestChargeNilProbeAdvancesClock(t *testing.T) {
	var p *Probe
	clk := sim.NewClock(2e9)
	p.Charge(clk, PhaseMAC, 3)
	if got := clk.Now(); got != 1.5e-9 {
		t.Fatalf("after Charge(3): Now() = %v, want 1.5e-9", got)
	}
	p.Charge(clk, PhaseMAC, 0)
	p.Charge(clk, PhaseMAC, -5)
	if got := clk.Now(); got != 1.5e-9 {
		t.Fatalf("non-positive charges moved the clock to %v", got)
	}

	before := clk.Now()
	total := p.ChargeSplit(clk,
		PhaseCost{Phase: PhaseData, Cycles: 0.1},
		PhaseCost{Phase: PhaseMAC, Cycles: 0.2},
		PhaseCost{Phase: PhaseTreeWalk, Cycles: 0.3})
	if total != 0.6000000000000001 {
		t.Fatalf("ChargeSplit total = %v, want 0.6000000000000001", total)
	}
	if want := before + sim.Time(float64(total)/2e9); clk.Now() != want {
		t.Fatalf("after ChargeSplit: Now() = %v, want %v", clk.Now(), want)
	}
	if got := clk.Now(); got != 1.8e-9 {
		t.Fatalf("after ChargeSplit: Now() = %v, want 1.8e-9", got)
	}
	if got := p.ChargeSplit(clk); got != 0 || clk.Now() != 1.8e-9 {
		t.Fatalf("empty ChargeSplit: total %v, Now() %v", got, clk.Now())
	}
}

// TestChargeSplitCreditsEachPhase: every part lands in its own phase,
// the return is the parts summed left to right (0.1+0.2+0.3 rounds
// differently from 0.1+(0.2+0.3)), and the clock moves by that sum.
func TestChargeSplitCreditsEachPhase(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")
	clk := sim.NewClock(2e9)
	total := p.ChargeSplit(clk,
		PhaseCost{Phase: PhaseData, Cycles: 0.1},
		PhaseCost{Phase: PhaseMAC, Cycles: 0.2},
		PhaseCost{Phase: PhaseTreeWalk, Cycles: 0.3},
		PhaseCost{Phase: PhaseMAC, Cycles: 4})
	if want := sim.Cycles(((0.1 + 0.2) + 0.3) + 4); total != want {
		t.Fatalf("total = %v, want %v", total, want)
	}
	m := s.Snapshot()
	for ph, want := range map[Phase]sim.Cycles{PhaseData: 0.1, PhaseMAC: 4.2, PhaseTreeWalk: 0.3, PhaseRootMount: 0} {
		if got := m.PhaseCycles(ph); got != want {
			t.Errorf("phase %v = %v, want %v", ph, got, want)
		}
	}
	if got, want := clk.Now(), sim.Time(float64(total)/2e9); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	p.Charge(clk, PhaseReencrypt, 6)
	if got := s.Snapshot().PhaseCycles(PhaseReencrypt); got != 6 {
		t.Fatalf("Charge credited %v, want 6", got)
	}
}

// TestChargeCreditsBeforeAdvance: the window hook fires inside the
// clock advance, so the sample it takes must already include the
// charge that crossed the window.
func TestChargeCreditsBeforeAdvance(t *testing.T) {
	s := NewSink()
	p := s.Probe("alice")
	clk := sim.NewClock(1e9)
	var seen []sim.Cycles
	clk.SetWindowHook(4, func(uint64) { seen = append(seen, s.Snapshot().PhaseCycles(PhaseMAC)) })
	p.Charge(clk, PhaseMAC, 10) // 10 cycles: still window 0
	p.ChargeSplit(clk, PhaseCost{Phase: PhaseData, Cycles: 3}, PhaseCost{Phase: PhaseMAC, Cycles: 7})
	p.Charge(clk, PhaseMAC, 16) // 36 cycles: window 2
	if len(seen) != 2 || seen[0] != 17 || seen[1] != 33 {
		t.Fatalf("hook saw MAC totals %v, want [17 33]", seen)
	}
}
