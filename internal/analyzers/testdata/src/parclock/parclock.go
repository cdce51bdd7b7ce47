// Package parclock exercises the parclock analyzer: work units passed to
// par.Map/par.ForEach must own every sim.Clock they touch.
package parclock

import (
	"mmt/internal/par"
	"mmt/internal/sim"
)

// captured advances a clock shared by every work unit — flagged at each
// use, because simulated time would depend on goroutine interleaving.
func captured(clock *sim.Clock, items []int) ([]sim.Time, error) {
	return par.Map(4, items, func(_ int, it int) (sim.Time, error) {
		clock.Advance(sim.Time(it)) // want "captures sim\.Clock"
		return clock.Now(), nil     // want "captures sim\.Clock"
	})
}

// capturedValue shows the value-type (non-pointer) case through ForEach.
func capturedValue(items []int) error {
	var shared sim.Clock
	return par.ForEach(2, items, func(_ int, it int) error {
		shared.SyncTo(sim.Time(it)) // want "captures sim\.Clock"
		return nil
	})
}

// owned is the sanctioned shape: each work unit builds its own clock, so
// the analyzer stays silent.
func owned(items []int) ([]sim.Time, error) {
	return par.Map(0, items, func(_ int, it int) (sim.Time, error) {
		clock := sim.NewClock(0)
		clock.Advance(sim.Time(it))
		return clock.Now(), nil
	})
}

// field selectors on locally built state are fine: cfg is owned by the
// work unit, and cfg.Clock's field identifier must not be mistaken for a
// captured variable.
type unit struct {
	Clock *sim.Clock
}

func ownedField(items []int) ([]sim.Time, error) {
	return par.Map(0, items, func(_ int, it int) (sim.Time, error) {
		cfg := unit{Clock: sim.NewClock(0)}
		cfg.Clock.Advance(sim.Time(it))
		return cfg.Clock.Now(), nil
	})
}

// serialReadOnly reads a clock outside any par call — no finding: the
// contract binds work-unit literals only.
func serialReadOnly(clock *sim.Clock, items []int) []sim.Time {
	out := make([]sim.Time, 0, len(items))
	for range items {
		out = append(out, clock.Now())
	}
	return out
}

// suppressed demonstrates a justified exception.
func suppressed(clock *sim.Clock, items []int) error {
	return par.ForEach(1, items, func(_ int, it int) error {
		clock.Advance(sim.Time(it)) //mmt:allow parclock: workers pinned to 1 in this code path
		return nil
	})
}
