// Package lp implements a self-contained linear-programming solver: a
// bounded-variable revised simplex method with a dual simplex that
// starts from any basis and a primal phase 2, dynamic row addition for
// cutting-plane loops, and row deletion that keeps the basis. It stands
// in for the commercial LP engines (CPLEX, SoPlex) that the original
// SCIP-based stack links against.
//
// Problems are stated as
//
//	min cᵀx   s.t.  aᵢᵀx {≤,=,≥} bᵢ,  lo ≤ x ≤ up,
//
// with ±Inf bounds allowed. Internally every row receives a slack
// variable, turning the system into equalities with bounded variables.
//
// The basis matrix is kept as a sparse factorization (factor.go), never
// as an inverse. A refactor peels column singletons — all slack columns,
// and the structural columns left with one row once those are gone —
// into the triangular factor without arithmetic, and LU-factors only the
// remaining nucleus, with threshold partial pivoting that prefers sparse
// rows. Each pivot stacks one product-form eta column on the factor, in
// a dense eta file sized for refactorEtas of them at the last refactor;
// after that many the factor is rebuilt, and the basic values and
// reduced costs are recomputed from it. btran runs each eta over the
// support of its right-hand side, which for a pivot row e_rᵀB⁻¹ is a few
// positions. AddRow only records the row, by column and by row: its
// slack is basic, and the next Solve rebuilds the factor once for all
// rows added since the last one. DeleteRows first pivots the nonbasic
// slacks of the deleted rows into the basis, then drops the rows and
// refactors once. A basis the factor finds singular is abandoned for the
// all-slack basis, from which the phases restart.
//
// A Solve from a basis that is not primal feasible runs the dual
// simplex, after bound flips and cost shifts have made the basis dual
// feasible; the shifts are undone and primal phase 2 finishes. There is
// no primal phase 1.
//
// The dual simplex prices by dual steepest edge (Forrest–Goldfarb): it
// leaves on the row maximising infeasibility² ÷ ‖e_rᵀB⁻¹‖². The Solver
// keeps one weight per basis position across pivots and re-solves, and
// every pivot, dual, primal or DeleteRows', updates them at the cost of
// one ftran. The slack basis has every weight exactly 1, a row added by
// AddRow starts at 1, and DeleteRows compacts the weights with the
// basis; refactors and cost shifts leave them as they are.
//
// A basis is also a value. Basis(dst) writes a compact snapshot into
// buffers the caller reuses: two bits of state per column, slacks
// included, and the float32 steepest-edge weight of each basic column,
// in ascending column order; positions are not kept. SetBasis installs a
// snapshot: the basic columns take the positions in ascending order,
// rows added since get basic slacks of weight 1, nonbasic columns are
// pegged to the bounds they have now, and the basis is factored once,
// giving way to the all-slack basis if it is singular. A snapshot taken
// before a DeleteRows is refused. A search tree keeps one per node with
// children, for a child whose LP starts after the search jumped.
//
// Every product yᵀA — the pivot row and the reduced costs — runs over
// the row copy, touching only the rows with y_i ≠ 0, and adds each
// column's terms in increasing row order, so it equals the
// column-by-column dot products it replaced.
//
// Solver.Deadline bounds a Solve in time as MaxIters bounds it in
// iterations: the phases check it every 64 iterations and stop with
// IterLimit.
package lp

import (
	"fmt"
	"math"
)

// Inf is the canonical infinite bound.
var Inf = math.Inf(1)

// Sense is the relational sense of a row.
type Sense int8

// Row senses.
const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iterlimit"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Nonzero is one coefficient of a sparse row.
type Nonzero struct {
	Col int
	Val float64
}

// Problem is an LP under construction. It is a pure description; Solver
// snapshots it, so a Problem can be reused to spawn many solvers (one per
// branch-and-bound worker).
type Problem struct {
	Obj    []float64 // objective coefficient per structural variable
	Lo, Up []float64 // bounds per structural variable
	Rows   []RowDef
}

// RowDef is one constraint row.
type RowDef struct {
	Sense Sense
	RHS   float64
	Coefs []Nonzero
	Name  string
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar appends a structural variable and returns its index.
func (p *Problem) AddVar(lo, up, obj float64) int {
	p.Obj = append(p.Obj, obj)
	p.Lo = append(p.Lo, lo)
	p.Up = append(p.Up, up)
	return len(p.Obj) - 1
}

// AddRow appends a constraint row and returns its index.
func (p *Problem) AddRow(sense Sense, rhs float64, coefs []Nonzero) int {
	p.Rows = append(p.Rows, RowDef{Sense: sense, RHS: rhs, Coefs: append([]Nonzero(nil), coefs...)})
	return len(p.Rows) - 1
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.Obj) }

// NumRows returns the number of rows.
func (p *Problem) NumRows() int { return len(p.Rows) }

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		Obj:  append([]float64(nil), p.Obj...),
		Lo:   append([]float64(nil), p.Lo...),
		Up:   append([]float64(nil), p.Up...),
		Rows: make([]RowDef, len(p.Rows)),
	}
	for i, r := range p.Rows {
		q.Rows[i] = RowDef{Sense: r.Sense, RHS: r.RHS, Name: r.Name,
			Coefs: append([]Nonzero(nil), r.Coefs...)}
	}
	return q
}

// Solution is the result of a solve.
type Solution struct {
	Status   Status
	Obj      float64   // objective value (min sense) when Optimal
	X        []float64 // structural variable values
	Duals    []float64 // row duals y = c_Bᵀ B⁻¹
	RedCosts []float64 // reduced costs of structural variables
	Iters    int       // simplex iterations spent
}

// Value returns x_j for convenience.
func (s *Solution) Value(j int) float64 { return s.X[j] }
