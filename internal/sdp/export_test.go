package sdp

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// NewtonStepper exposes one direction solve at a problem's root iterate
// to the external benchmarks, which need the testsets generators (and
// those import this package).
type NewtonStepper struct {
	p  *Problem
	ws *workspace
	y  []float64
}

// NewNewtonStepper compiles p and places the iterate at the barrier
// method's starting point.
func NewNewtonStepper(tb testing.TB, p *Problem) *NewtonStepper {
	ws, y := rootIterate(tb, p)
	return &NewtonStepper{p: p, ws: ws, y: y}
}

// Barrier weights of the measured step (those of a first Newton step on
// a unit-scale objective).
const stepMu, stepGamma = 1, 10

// Direction runs one gradHess and direction solve in the workspace.
func (s *NewtonStepper) Direction() bool {
	_, _, ok := s.ws.direction(s.p, s.y, stepMu, stepGamma, true)
	return ok
}

// DenseDirection solves the same system from the dense reference
// assembly with the allocating kernels.
func (s *NewtonStepper) DenseDirection() bool {
	grad, hess, ok := denseGradHess(s.p, s.y, stepMu, stepGamma, true)
	if !ok {
		return false
	}
	ch, err := linalg.Cholesky(hess)
	if err != nil {
		return false
	}
	directionSink = ch.Solve(grad)
	return true
}

// directionSink keeps DenseDirection's solve from being optimized away.
var directionSink []float64

// BitsDiffer names the first field in which a and b differ, bit for
// bit, or returns "".
func BitsDiffer(a, b *Result) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case a.Status != b.Status:
		return "Status"
	case a.Iters != b.Iters:
		return "Iters"
	case !same(a.Obj, b.Obj):
		return "Obj"
	case !same(a.UpperBound, b.UpperBound):
		return "UpperBound"
	case !same(a.Penalty, b.Penalty):
		return "Penalty"
	case len(a.Y) != len(b.Y):
		return "len(Y)"
	}
	for i := range a.Y {
		if !same(a.Y[i], b.Y[i]) {
			return "Y"
		}
	}
	return ""
}
