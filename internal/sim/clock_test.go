package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockZeroValueStartsAtZero(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", c.Now())
	}
	if c.Freq() != DefaultFreqHz {
		t.Fatalf("zero clock Freq() = %v, want default %v", c.Freq(), DefaultFreqHz)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(2e9)
	c.Advance(1e-3)
	if got := c.Now(); got != 1e-3 {
		t.Fatalf("Now() = %v, want 1ms", got)
	}
	c.Advance(-5) // negative durations must be ignored
	if got := c.Now(); got != 1e-3 {
		t.Fatalf("Now() after negative advance = %v, want 1ms", got)
	}
}

func TestClockAdvanceByCycleTime(t *testing.T) {
	c := NewClock(2e9)
	c.Advance(CyclesToTime(2e9, c.Freq())) // one second of cycles
	if got := float64(c.Now()); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Now() = %v, want 1s", got)
	}
	if got := float64(c.NowCycles()); math.Abs(got-2e9) > 1 {
		t.Fatalf("NowCycles() = %v, want 2e9", got)
	}
}

func TestClockSyncToOnlyMovesForward(t *testing.T) {
	c := NewClock(0)
	c.Advance(5)
	c.SyncTo(3)
	if c.Now() != 5 {
		t.Fatalf("SyncTo moved clock backwards: %v", c.Now())
	}
	c.SyncTo(7)
	if c.Now() != 7 {
		t.Fatalf("SyncTo did not move clock forward: %v", c.Now())
	}
}

func TestClockReset(t *testing.T) {
	c := NewClock(0)
	c.Advance(42)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset left clock at %v", c.Now())
	}
}

func TestClockMonotonic(t *testing.T) {
	// Property: no sequence of Advance/SyncTo calls can move time backwards.
	f := func(steps []float64) bool {
		c := NewClock(1e9)
		prev := c.Now()
		for i, s := range steps {
			if i%2 == 0 {
				c.Advance(Time(s))
			} else {
				c.SyncTo(Time(s))
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCycleTimeConversionRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		cy := Cycles(n)
		back := TimeToCycles(CyclesToTime(cy, 2e9), 2e9)
		return math.Abs(float64(back-cy)) < 1e-6*math.Max(1, float64(cy))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{5e-9, "5.0ns"},
		{3.5e-6, "3.50us"},
		{1.2e-3, "1.200ms"},
		{2.5, "2.500s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestMaxTime(t *testing.T) {
	if MaxTime(1, 2) != 2 || MaxTime(3, 2) != 3 {
		t.Fatal("MaxTime wrong")
	}
}
