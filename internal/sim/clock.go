package sim

import (
	"fmt"
	"math"
)

// Cycles counts simulated processor cycles. It is a float so that
// per-byte cost curves can be fractional; totals are rounded only when
// displayed.
type Cycles float64

// Time is a simulated wall-clock instant or duration in seconds.
type Time float64

// Milliseconds reports t in milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) * 1e3 }

// Microseconds reports t in microseconds.
func (t Time) Microseconds() float64 { return float64(t) * 1e6 }

func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t < 1e-6:
		return fmt.Sprintf("%.1fns", float64(t)*1e9)
	case t < 1e-3:
		return fmt.Sprintf("%.2fus", float64(t)*1e6)
	case t < 1:
		return fmt.Sprintf("%.3fms", float64(t)*1e3)
	default:
		return fmt.Sprintf("%.3fs", float64(t))
	}
}

// Clock is a simulated per-node clock. The zero value is a clock at time
// zero; it is not safe for concurrent use (simulated nodes are
// single-threaded, as in the paper's Gem5 model).
type Clock struct {
	now  Time
	freq float64 // cycles per second; 0 means unset (use DefaultFreqHz)

	// Window sampling hook. When winHook is non-nil, every forward move
	// of the clock checks whether it crossed into a new window of
	// 2^winShift cycles and, if so, fires the hook once with the new
	// window index. The hook must not advance this clock.
	winShift uint
	winHook  func(window uint64)
	lastWin  uint64
}

// DefaultFreqHz is the processor frequency of the paper's Gem5
// configuration (Table II: 2.0 GHz).
const DefaultFreqHz = 2e9

// NewClock returns a clock ticking at freqHz cycles per second.
func NewClock(freqHz float64) *Clock {
	if freqHz <= 0 {
		freqHz = DefaultFreqHz
	}
	return &Clock{freq: freqHz}
}

// Freq reports the clock frequency in Hz.
func (c *Clock) Freq() float64 {
	if c.freq == 0 {
		return DefaultFreqHz
	}
	return c.freq
}

// Now reports the current simulated time.
func (c *Clock) Now() Time { return c.now }

// NowCycles reports the current simulated time expressed in cycles.
func (c *Clock) NowCycles() Cycles { return Cycles(float64(c.now) * c.Freq()) }

// Advance moves the clock forward by d. Negative durations are ignored so
// that cost arithmetic can never move time backwards.
func (c *Clock) Advance(d Time) {
	if d > 0 {
		c.now += d
		if c.winHook != nil {
			c.windowTick()
		}
	}
}

// SyncTo moves the clock forward to t if t is later than the current time.
// It models a blocking receive: the receiver cannot observe a message
// before the (simulated) instant it arrives.
func (c *Clock) SyncTo(t Time) {
	if t > c.now {
		c.now = t
		if c.winHook != nil {
			c.windowTick()
		}
	}
}

// Reset rewinds the clock to time zero. Benchmarks use it between trials.
// The sampling window position rewinds with it; the hook does not fire.
func (c *Clock) Reset() {
	c.now = 0
	c.lastWin = 0
}

// SetNow forces the clock to an absolute instant. Snapshot recovery uses
// it to resume a reloaded node at exactly its saved simulated time.
func (c *Clock) SetNow(t Time) {
	forward := t > c.now
	c.now = t
	if forward && c.winHook != nil {
		c.windowTick()
	} else if !forward {
		// A rewind repositions the window cursor silently so a later
		// forward move does not re-announce windows already sampled.
		c.lastWin = c.curWindow()
	}
}

// SetWindowHook installs a sampling hook that fires whenever the clock
// crosses into a new window of 2^shift simulated cycles. Taking the
// exponent rather than a cycle count means a window that is not a power
// of two cannot be expressed, so the window index stays a cheap shift.
// A nil hook uninstalls sampling.
func (c *Clock) SetWindowHook(shift uint, hook func(window uint64)) {
	if hook == nil {
		c.winHook = nil
		return
	}
	c.winShift = shift
	c.winHook = hook
	c.lastWin = c.curWindow()
}

// curWindow reports the window index of the current instant.
func (c *Clock) curWindow() uint64 {
	cyc := float64(c.NowCycles())
	if cyc <= 0 {
		return 0
	}
	return uint64(cyc) >> c.winShift
}

// windowTick fires the sampling hook if the last forward move crossed a
// window boundary. It is the one dynamic call on the clock-advance path,
// kept out of line (and out of MMT008's hot-path traversal) so that
// advancing a clock with no hook stays a nil check.
//
//mmt:coldpath
func (c *Clock) windowTick() {
	w := c.curWindow()
	if w > c.lastWin {
		c.lastWin = w
		c.winHook(w)
	}
}

// CyclesToTime converts a cycle count to simulated seconds at freqHz.
func CyclesToTime(n Cycles, freqHz float64) Time {
	if freqHz <= 0 {
		freqHz = DefaultFreqHz
	}
	return Time(float64(n) / freqHz)
}

// TimeToCycles converts simulated seconds to cycles at freqHz.
func TimeToCycles(t Time, freqHz float64) Cycles {
	if freqHz <= 0 {
		freqHz = DefaultFreqHz
	}
	return Cycles(float64(t) * freqHz)
}

// MaxTime returns the later of two instants.
func MaxTime(a, b Time) Time { return Time(math.Max(float64(a), float64(b))) }
