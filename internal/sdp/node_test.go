package sdp_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/num"
	"repro/internal/sdp"
)

// nodeFixture is a node of ttd-4-12-2-6's SDP-mode tree: three bars
// fixed, one raised to 1. Its μ_F polish reaches the rounding floor of
// the barrier value (|f| ≈ 16) while the decrement is still above
// 1e-16·(1+scale); halving every step toward 1e-13 there took the
// polish to its 60-step cap and the solve to 91 Newton steps.
func nodeFixture() *sdp.Problem {
	p := testsets.TTD(4, 12, 2, 6)
	return &sdp.Problem{
		M:      p.M,
		B:      p.B,
		Lo:     []float64{0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 2},
		Up:     []float64{2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		Blocks: p.Blocks,
		Rows:   p.Rows,
	}
}

// Inside the quadratic region a rejected line-search trial is rounding,
// so the step ends the polish instead of halving: the fixture's solve
// keeps its objective and certificate with at most 40 Newton steps.
func TestPolishStopsAtRoundingFloor(t *testing.T) {
	const (
		obj = -16.206381872827837
		ub  = -16.206052190556637 // the certificate of the 91-step solve
	)
	r := sdp.Solve(nodeFixture(), sdp.Options{})
	if r.Status != sdp.Solved {
		t.Fatalf("status %v", r.Status)
	}
	if r.Iters > 40 {
		t.Errorf("%d Newton steps, want at most 40", r.Iters)
	}
	if math.Abs(r.Obj-obj) > 1e-9 {
		t.Errorf("obj %.17g, want %.17g", r.Obj, obj)
	}
	if gap := r.UpperBound - r.Obj; gap > 1.01*(ub-obj) {
		t.Errorf("certificate gap %.6g, more than 1.01× the 91-step solve's %.6g", gap, ub-obj)
	}
}

// instance is a named catalogue instance.
type instance struct {
	name string
	p    *misdp.MISDP
}

// catalogue builds the 16 instances of the benchmark's misdp_sdp
// workload afresh, so that no Solve has seen their Blocks yet.
func catalogue() []instance {
	return []instance{
		{"cls-8-10-3-3", testsets.CLS(8, 10, 3, 3)},
		{"cls-10-12-3-4", testsets.CLS(10, 12, 3, 4)},
		{"cls-10-12-3-7", testsets.CLS(10, 12, 3, 7)},
		{"ttd-4-12-2-6", testsets.TTD(4, 12, 2, 6)},
		{"ttd-4-10-2-2", testsets.TTD(4, 10, 2, 2)},
		{"ttd-5-14-3-2", testsets.TTD(5, 14, 3, 2)},
		{"ttd-6-16-3-8", testsets.TTD(6, 16, 3, 8)},
		{"mkp-10-4-7", testsets.MkP(10, 4, 7)},
		{"cls-8-10-3-8", testsets.CLS(8, 10, 3, 8)},
		{"mkp-7-3-6", testsets.MkP(7, 3, 6)},
		{"cls-9-12-4-3", testsets.CLS(9, 12, 4, 3)},
		{"cls-9-12-4-5", testsets.CLS(9, 12, 4, 5)},
		{"ttd-5-16-3-6", testsets.TTD(5, 16, 3, 6)},
		{"mkp-8-3-1", testsets.MkP(8, 3, 1)},
		{"mkp-9-3-6", testsets.MkP(9, 3, 6)},
		{"mkp-10-3-16", testsets.MkP(10, 3, 16)},
	}
}

// fixFirstInt returns p's root problem with its first integer variable
// fixed at its lower (atUp false) or upper bound.
func fixFirstInt(p *misdp.MISDP, atUp bool) *sdp.Problem {
	q := rootProblem(p)
	q.Lo, q.Up = append([]float64(nil), p.Lo...), append([]float64(nil), p.Up...)
	for i, isInt := range p.IsInt {
		if isInt {
			if atUp {
				q.Lo[i] = q.Up[i]
			} else {
				q.Up[i] = q.Lo[i]
			}
			break
		}
	}
	return q
}

// reduceByHand eliminates p's fixed variables the way Solve documents
// it, folding their values into every C with linalg.Sym.AddScaled. It
// returns the reduced problem, the free variables, the fixed values (by
// variable) and the fixed part of the objective.
func reduceByHand(p *sdp.Problem) (red *sdp.Problem, keep []int, fixVal []float64, offset float64) {
	fixVal = make([]float64, p.M)
	fixed := make([]bool, p.M)
	for i := 0; i < p.M; i++ {
		if p.Up[i]-p.Lo[i] < 1e-7 {
			fixed[i], fixVal[i] = true, 0.5*(p.Lo[i]+p.Up[i])
			offset += p.B[i] * fixVal[i]
			continue
		}
		keep = append(keep, i)
	}
	red = &sdp.Problem{M: len(keep)}
	for _, i := range keep {
		red.B = append(red.B, p.B[i])
		red.Lo = append(red.Lo, p.Lo[i])
		red.Up = append(red.Up, p.Up[i])
	}
	for _, blk := range p.Blocks {
		c := blk.C.Clone()
		a := make([]*linalg.Sym, len(keep))
		for i := 0; i < p.M; i++ {
			if fixed[i] && blk.A[i] != nil && num.Nonzero(fixVal[i]) {
				c.AddScaled(-fixVal[i], blk.A[i])
			}
		}
		for k, i := range keep {
			a[k] = blk.A[i]
		}
		red.Blocks = append(red.Blocks, &sdp.Block{N: blk.N, C: c, A: a})
	}
	for _, r := range p.Rows {
		row := sdp.Row{RHS: r.RHS}
		for _, i := range keep {
			row.Coef = append(row.Coef, r.Coef[i])
		}
		for i := 0; i < p.M; i++ {
			if fixed[i] {
				row.RHS -= r.Coef[i] * fixVal[i]
			}
		}
		red.Rows = append(red.Rows, row)
	}
	return red, keep, fixVal, offset
}

// bitsDiffer names the first field in which a and b differ, bit for
// bit, or returns "".
var bitsDiffer = sdp.BitsDiffer

// Solve eliminates fixed variables through each Block's compiled
// entries; the result must be the one of the problem reduced by hand
// with AddScaled, bit for bit, with the objective and the certificate
// shifted by the fixed part of bᵀy. (Every catalogue row keeps free
// support once one variable is fixed, so reduceByHand drops no row.)
func TestFixedVariablesFoldBitForBit(t *testing.T) {
	check := func(name string, p *sdp.Problem) {
		got := sdp.Solve(p, sdp.Options{})
		red, keep, fixVal, offset := reduceByHand(p)
		hand := sdp.Solve(red, sdp.Options{})
		want := &sdp.Result{Status: hand.Status, Iters: hand.Iters, Penalty: hand.Penalty,
			Obj: hand.Obj + offset, UpperBound: hand.UpperBound + offset, Y: fixVal}
		for k, i := range keep {
			want.Y[i] = hand.Y[k]
		}
		if field := bitsDiffer(got, want); field != "" {
			t.Errorf("%s: %s differs from the problem reduced by hand", name, field)
		}
	}
	check("fixture", nodeFixture())
	for _, in := range catalogue() {
		check(in.name+" lo", fixFirstInt(in.p, false))
		check(in.name+" up", fixFirstInt(in.p, true))
	}
}

// The compiled form is built on the first Solve that sees a Block and
// only read afterwards: every later Solve of the same Problem returns
// the first one's Result, bit for bit.
func TestRepeatedSolveBitForBit(t *testing.T) {
	for _, in := range catalogue() {
		for _, p := range []*sdp.Problem{rootProblem(in.p), fixFirstInt(in.p, true)} {
			first := sdp.Solve(p, sdp.Options{})
			for n := 2; n <= 3; n++ {
				if field := bitsDiffer(sdp.Solve(p, sdp.Options{}), first); field != "" {
					t.Errorf("%s: solve %d differs from the first in %s", in.name, n, field)
				}
			}
		}
	}
}

// One Solver kept across problems of every shape — the 16 catalogue
// roots and their nodes with the first integer variable fixed at either
// bound, interleaved so that the number of variables, the number of
// blocks and the block orders change from one call to the next, first
// growing and then shrinking — must return, on every call, what a
// fresh Solver returns.
func TestKeptSolverMatchesFreshBitForBit(t *testing.T) {
	type node struct {
		name string
		p    *sdp.Problem
	}
	var nodes []node
	in := catalogue()
	for _, kind := range []string{"root", "lo", "up"} {
		for _, c := range in {
			p := rootProblem(c.p)
			if kind != "root" {
				p = fixFirstInt(c.p, kind == "up")
			}
			nodes = append(nodes, node{c.name + " " + kind, p})
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		nodes = append(nodes, nodes[i])
	}
	kept := new(sdp.Solver)
	for k, nd := range nodes {
		got := kept.Solve(nd.p, sdp.Options{})
		if field := bitsDiffer(got, sdp.Solve(nd.p, sdp.Options{})); field != "" {
			t.Errorf("call %d, %s: %s differs from a fresh Solver's", k, nd.name, field)
		}
	}
}

// A node re-solve on a warm Solver allocates only the Result, the
// reduced problem's Y and its expansion over every variable, and the
// barrier iterate: nothing that scales with the nodes of a tree.
func TestNodeResolveAllocsBounded(t *testing.T) {
	const maxAllocs = 4
	p := nodeFixture()
	s := new(sdp.Solver)
	want := s.Solve(p, sdp.Options{})
	allocs := testing.AllocsPerRun(10, func() {
		if field := bitsDiffer(s.Solve(p, sdp.Options{}), want); field != "" {
			t.Fatalf("warm re-solve differs in %s", field)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("node re-solve allocates %v times, want at most %d", allocs, maxAllocs)
	}
}

// ParaSolvers and ugserve lanes share an instance's Blocks. Four
// goroutines solving node problems over one shared, never solved
// []*Block (run under -race), each on one Solver kept across its nodes
// as a ParaSolver's plugin set keeps it, must each return what a
// sequential solve of a separately built copy returns.
func TestConcurrentSolvesShareBlocks(t *testing.T) {
	nodes := func(p *misdp.MISDP) []*sdp.Problem {
		fix := nodeFixture()
		fix.B, fix.Blocks, fix.Rows = p.B, p.Blocks, p.Rows
		return []*sdp.Problem{rootProblem(p), fixFirstInt(p, false), fixFirstInt(p, true), fix}
	}
	var want []*sdp.Result
	for _, q := range nodes(testsets.TTD(4, 12, 2, 6)) {
		want = append(want, sdp.Solve(q, sdp.Options{}))
	}
	shared := nodes(testsets.TTD(4, 12, 2, 6))
	got := make([][]*sdp.Result, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*sdp.Result, len(shared))
			s := new(sdp.Solver)
			// Each goroutine starts at a different node.
			for k := range shared {
				j := (g + k) % len(shared)
				got[g][j] = s.Solve(shared[j], sdp.Options{})
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for j, r := range got[g] {
			if field := bitsDiffer(r, want[j]); field != "" {
				t.Errorf("goroutine %d node %d: %s differs from the sequential solve", g, j, field)
			}
		}
	}
}
