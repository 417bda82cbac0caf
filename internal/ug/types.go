// Package ug implements the Ubiquity Generator framework: a
// Supervisor–Worker parallelization of branch-and-bound base solvers.
// The LoadCoordinator (rank 0) owns a pool of solver-independent
// subproblems and coordinates an arbitrary number of ParaSolvers, which
// wrap a base solver (the scip framework in this repository). Features
// follow the paper: normal and racing ramp-up (including customized
// racing with a user-supplied settings ladder), layered presolving,
// dynamic load balancing through a collect mode, checkpointing of
// primitive nodes with restart, and detailed run statistics.
package ug

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Subproblem is UG's solver-independent unit of work: an opaque
// base-solver payload (bound changes + branching decisions, gob-encoded
// by the base solver) plus the coordination metadata UG itself needs.
type Subproblem struct {
	ID      int64
	Depth   int
	Bound   float64 // dual bound known for this subproblem
	Payload []byte
}

// Solution is a primal solution in transferable form.
type Solution struct {
	Obj     float64
	Payload []byte
}

// StatusReport is a ParaSolver's periodic progress message.
type StatusReport struct {
	Bound    float64 // local dual bound (min over open + current node)
	Open     int     // open nodes held locally
	Nodes    int64   // nodes processed in the current subproblem so far
	RootTime float64 // seconds spent on the first processed node
}

// Outcome summarizes one finished (or interrupted) subproblem solve.
type Outcome struct {
	Completed bool // subtree fully explored
	Nodes     int64
	OpenLeft  int // open nodes abandoned on interruption
	RootTime  float64
	// LPIterations, CutsAdded, SolsFound and PropFixings carry
	// base-solver work counters back to the coordinator, which sums them
	// into RunStats for the -stats tables. Base solvers without an LP
	// leave the first two zero.
	LPIterations int64
	CutsAdded    int64
	SolsFound    int64 // incumbents the base solver installed
	PropFixings  int64 // propagator calls that tightened a bound
	// Phases is the subproblem's wall time per base-solver phase; the
	// coordinator sums it into RunStats.Phases for the -stats table.
	Phases PhaseTimes
}

// PhaseTimes is wall-clock seconds per base-solver phase, summed across
// subproblems by the coordinator. It mirrors the base solver's own
// phase breakdown (scip.PhaseTimes) without ug importing the solver:
// diagnostics only, never consulted by coordination decisions.
type PhaseTimes struct {
	Presolve    float64
	LP          float64
	Relax       float64
	Separation  float64
	Heuristics  float64
	Propagation float64
}

// Add accumulates q into p.
func (p *PhaseTimes) Add(q PhaseTimes) {
	p.Presolve += q.Presolve
	p.LP += q.LP
	p.Relax += q.Relax
	p.Separation += q.Separation
	p.Heuristics += q.Heuristics
	p.Propagation += q.Propagation
}

// Command is what Session.Poll hands back to the base-solver adapter.
type Command struct {
	Stop       bool        // abandon the current solve
	ExtractAll bool        // racing winner: ship all open nodes, then stop
	WantNode   bool        // collect mode: ship one heavy open node now
	Solutions  []*Solution // incumbents received since the last poll
}

// RampUpMode selects how the search is parallelized initially.
type RampUpMode int8

// Ramp-up modes.
const (
	RampUpNormal RampUpMode = iota
	RampUpRacing
)

// enc gob-encodes v, panicking on failure (all payload types are
// registered value types, so failure is a programming error).
func enc(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("ug: gob encode %T: %v", v, err))
	}
	return buf.Bytes()
}

// decode gob-decodes into out.
func decode(b []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(out)
}

// dec is decode for payloads the coordinator built, panicking on failure.
func dec(b []byte, out any) {
	if err := decode(b, out); err != nil {
		panic(fmt.Sprintf("ug: gob decode %T: %v", out, err))
	}
}

// workMsg is the payload of a subproblem/racing dispatch.
type workMsg struct {
	Sub         Subproblem
	Incumbent   *Solution // best known solution, if any
	SettingsIdx int       // racing settings index (0 in normal mode)
	StatusSec   float64   // status report interval
	ShipSec     float64   // collect-mode node shipping interval
}

// SolverFactory builds the problem-specific pieces for UG. The glue code
// in internal/core implements it for any scip-based solver, mirroring
// the ug[SCIP-*,*]-libraries' ScipUserPlugins registration.
type SolverFactory interface {
	// GlobalPresolve runs once in the LoadCoordinator before ramp-up and
	// returns the root subproblem payload (the presolved instance's root)
	// and, optionally, a solution found during presolving.
	GlobalPresolve() (root []byte, initial *Solution, err error)
	// CreateWorker builds a base solver bound to the given racing settings
	// index; index 0 must be the default configuration. A ParaSolver
	// calls it once per settings index it is sent and keeps the result
	// for the rest of its run.
	CreateWorker(settingsIdx int) WorkerSolver
	// NumSettings reports the length of the racing settings ladder
	// (customized racing); at least 1.
	NumSettings() int
	// SettingsName labels a settings index for statistics (Figure 1).
	SettingsName(idx int) string
}

// WorkerSolver is one base-solver instance inside a ParaSolver. It
// serves every subproblem of its settings index that reaches the
// ParaSolver, one Solve at a time, so it may keep state (incumbent,
// pseudocosts, globally valid cuts) from one subproblem to the next.
type WorkerSolver interface {
	// Solve explores sub until completion or until a Session poll commands
	// otherwise. Implementations must call sess.Poll at least once per
	// branch-and-bound node and honor the returned Command.
	Solve(sub *Subproblem, sess *Session) Outcome
}

var inf = math.Inf(1)
