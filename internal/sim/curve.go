package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Curve is a piecewise log-linear cost curve mapping a transfer size in
// bytes to a per-byte cost. It is used where the paper's own breakdown
// shows cache effects that an affine model cannot capture (e.g. memcpy in
// Table IV: 0.32 cycles/B for a 2 KB cache-resident copy rising to 1.02
// cycles/B for a 2 MB copy).
//
// Between anchor points the per-byte cost is interpolated linearly in
// log2(size); outside the anchored range it is clamped to the nearest
// anchor.
type Curve struct {
	points []CurvePoint
}

// CurvePoint anchors a per-byte cost at a given size.
type CurvePoint struct {
	Size    int     // bytes
	PerByte float64 // cost units per byte at that size
}

// BuildCurve builds a curve from anchor points. Points are sorted by
// size; an empty point list, a non-positive size or a duplicate size is
// an error. Curves decoded from outside input (snapshots) are built
// here.
func BuildCurve(points ...CurvePoint) (*Curve, error) {
	if len(points) == 0 {
		return nil, errors.New("sim: curve needs at least one point")
	}
	ps := make([]CurvePoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Size < ps[j].Size })
	for i, p := range ps {
		if p.Size <= 0 {
			return nil, fmt.Errorf("sim: curve point %d has non-positive size %d", i, p.Size)
		}
		if i > 0 && ps[i-1].Size == p.Size {
			return nil, fmt.Errorf("sim: duplicate curve point at size %d", p.Size)
		}
	}
	return &Curve{points: ps}, nil
}

// NewCurve is BuildCurve for the static calibration tables in this
// package: invalid points panic.
func NewCurve(points ...CurvePoint) *Curve {
	c, err := BuildCurve(points...)
	if err != nil {
		panic(err) //mmt:allow nopanic: only the package's static calibration tables call NewCurve; decoded input goes through BuildCurve
	}
	return c
}

// Points returns a copy of the curve's anchor points in size order, for
// serializing a profile into a snapshot.
func (c *Curve) Points() []CurvePoint {
	out := make([]CurvePoint, len(c.points))
	copy(out, c.points)
	return out
}

// PerByte reports the interpolated per-byte cost for a transfer of n bytes.
func (c *Curve) PerByte(n int) float64 {
	ps := c.points
	if n <= ps[0].Size {
		return ps[0].PerByte
	}
	last := ps[len(ps)-1]
	if n >= last.Size {
		return last.PerByte
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Size >= n })
	lo, hi := ps[i-1], ps[i]
	f := (math.Log2(float64(n)) - math.Log2(float64(lo.Size))) /
		(math.Log2(float64(hi.Size)) - math.Log2(float64(lo.Size)))
	return lo.PerByte + f*(hi.PerByte-lo.PerByte)
}

// Cost reports the total cost for a transfer of n bytes.
func (c *Curve) Cost(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * c.PerByte(n)
}
