package sdp_test

import (
	"testing"

	"repro/internal/sdp"
)

// BenchmarkSDPNewtonStep measures one Newton system — gradHess, the
// Hessian's Cholesky and the direction solve — at the root iterate of
// each instance in rootInstances.
func BenchmarkSDPNewtonStep(b *testing.B) {
	benchDirection(b, (*sdp.NewtonStepper).Direction)
}

// BenchmarkSDPNewtonStepDenseReference is the same system assembled by
// the test oracle's dense formulas with allocating kernels, which is what
// a step cost before the compiled form: the step was a closure then, so
// no baseline commit can run BenchmarkSDPNewtonStep itself.
func BenchmarkSDPNewtonStepDenseReference(b *testing.B) {
	benchDirection(b, (*sdp.NewtonStepper).DenseDirection)
}

func benchDirection(b *testing.B, direction func(*sdp.NewtonStepper) bool) {
	for _, in := range rootInstances {
		b.Run(in.name, func(b *testing.B) {
			st := sdp.NewNewtonStepper(b, rootProblem(in.p))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !direction(st) {
					b.Fatal("direction solve failed")
				}
			}
		})
	}
}
