// Package serve is the solver-as-a-service layer: a long-running,
// multi-tenant daemon that accepts STP and MISDP instances over
// HTTP/JSON, runs them on a bounded priority job queue with per-job
// deadlines and cancellation, shares an instance-keyed presolve cache
// across submissions, and streams per-job solve progress over SSE from
// a per-job obs.Bus. The paper wraps any base solver behind one
// parallel framework; this package is the same move one level up —
// multiplexing many instances over a shared worker pool, each solve
// driving the existing core.Factory/ug coordinator in-process.
package serve

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/steiner/puc"
)

// State is a job's lifecycle state. The machine is
//
//	queued ──► running ──► done
//	   │           ├─────► failed
//	   ├───────────┼─────► cancelled
//	   └───────────┴─────► deadline_exceeded
//
// Terminal states (done, failed, cancelled, deadline_exceeded) are
// absorbing: no transition leaves them.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	StateDeadline  State = "deadline_exceeded"
)

// transitions is the FSM's edge set: from-state → allowed to-states.
var transitions = map[State]map[State]bool{
	StateQueued: {
		StateRunning:   true,
		StateCancelled: true, // cancel-while-queued, or drained on shutdown
		StateDeadline:  true, // deadline passed before a worker picked it up
		StateFailed:    true, // instance failed to build when popped
	},
	StateRunning: {
		StateDone:      true,
		StateFailed:    true,
		StateCancelled: true, // cancel-mid-solve
		StateDeadline:  true, // deadline fired during presolve or solve
	},
}

// Terminal reports whether s is an absorbing state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateDeadline
}

// GenSpec selects a generated STP family by the same parameters
// cmd/stpgen takes on its command line.
type GenSpec struct {
	Family    string `json:"family"`              // hc, cc, bip
	D         int    `json:"d,omitempty"`         // dimension (hc, cc)
	A         int    `json:"a,omitempty"`         // alphabet size (cc)
	Terminals int    `json:"terminals,omitempty"` // terminal count (cc, bip, hc)
	Steiner   int    `json:"steiner,omitempty"`   // Steiner-side size (bip)
	Deg       int    `json:"deg,omitempty"`       // terminal degree (bip)
	Perturbed bool   `json:"perturbed,omitempty"` // perturbed costs (p variant)
	Seed      int64  `json:"seed,omitempty"`      // generator seed
}

// Spec is a job submission: which instance to solve and how. Exactly
// one instance source must be set — STP (inline SteinLib text),
// Instance (a named PUC analogue), Gen (stpgen parameters) for
// Kind "stp", or Family(+N/K/Seed) for Kind "misdp".
type Spec struct {
	Kind string `json:"kind"` // "stp" or "misdp"

	// STP instance sources (Kind "stp").
	STP      string   `json:"stp,omitempty"`      // inline SteinLib .stp text
	Instance string   `json:"instance,omitempty"` // named PUC-family analogue
	Gen      *GenSpec `json:"gen,omitempty"`      // stpgen-parameter generator

	// MISDP instance source (Kind "misdp").
	Family string `json:"family,omitempty"` // ttd, cls, mkp
	N      int    `json:"n,omitempty"`      // size parameter (0 = default)
	K      int    `json:"k,omitempty"`      // cardinality/classes (0 = default)
	Seed   int64  `json:"seed,omitempty"`   // instance seed (0 = 1)
	// Mode is lp, sdp or hybrid (the default); anything else is a 400.
	// Only lp changes the settings, to LP cutting planes instead of
	// the SDP relaxation. Whether the solve races is the Racing field's
	// choice: hybrid does not race here.
	Mode string `json:"mode,omitempty"`

	// Solve shape.
	Workers      int     `json:"workers,omitempty"`        // ParaSolvers (0 = server default)
	Racing       bool    `json:"racing,omitempty"`         // racing ramp-up
	Priority     int     `json:"priority,omitempty"`       // higher runs first
	DeadlineSec  float64 `json:"deadline_sec,omitempty"`   // wall deadline from submission (0 = none)
	TimeLimitSec float64 `json:"time_limit_sec,omitempty"` // solve time limit (0 = none)
}

// Validate checks the spec for exactly one instance source and sane
// parameters; it returns a client-facing error.
func (sp *Spec) Validate() error {
	switch sp.Kind {
	case "stp":
		n := 0
		if sp.STP != "" {
			n++
		}
		if sp.Instance != "" {
			n++
		}
		if sp.Gen != nil {
			n++
		}
		if n != 1 {
			return fmt.Errorf("kind stp needs exactly one of stp, instance, gen (got %d)", n)
		}
		// A name is checked against the registry without building its
		// graph, so an unknown one is a 400 and never takes a queue slot.
		if sp.Instance != "" && !slices.Contains(puc.Names(), sp.Instance) {
			return fmt.Errorf("unknown named instance %q", sp.Instance)
		}
	case "misdp":
	default:
		return fmt.Errorf("kind must be stp or misdp (got %q)", sp.Kind)
	}
	if sp.DeadlineSec < 0 || sp.TimeLimitSec < 0 || sp.Workers < 0 {
		return fmt.Errorf("deadline_sec, time_limit_sec and workers must be non-negative")
	}
	// The generators are the judges of their own parameters: a generated
	// instance is built here only to be thrown away (the lane that runs
	// the job builds its own), which their size caps keep cheap.
	if sp.Gen != nil || sp.Kind == "misdp" {
		_, _, err := buildApp(sp)
		return err
	}
	return nil
}

// Result is a finished job's outcome in client-facing form.
type Result struct {
	Status          string  `json:"status"` // optimal, infeasible, interrupted
	Objective       float64 `json:"objective"`
	DualBound       float64 `json:"dual_bound"`
	Nodes           int64   `json:"nodes"`
	SolveSeconds    float64 `json:"solve_seconds"`
	PresolveSeconds float64 `json:"presolve_seconds"` // 0 on a cache hit
	Cache           string  `json:"cache"`            // "hit" or "miss"
	Workers         int     `json:"workers"`
}

// Job is one submission's full lifecycle. All mutable fields are
// guarded by mu; the bus and channels are set at admission and never
// change.
type Job struct {
	ID   string
	Spec Spec
	seq  int64 // admission order, the FIFO tie-break within a priority

	// bus is the job's live event plane: the solve's tracer tees into
	// it, SSE clients subscribe to it. Closed when the job reaches a
	// terminal state, which ends every stream.
	bus *obs.Bus

	// rec is the job's flight recorder, the bus's downstream sink: it
	// retains the tail of the job's event stream past the terminal
	// transition (the bus only serves live subscribers and closes with
	// the job), so /events can replay a finished job's last window and
	// a failure bundle has history to capture.
	rec *obs.Recorder

	// cancelCh fires (closes) on DELETE; the runner translates it into
	// a cooperative solver stop. closed at most once via cancelOnce.
	cancelCh   chan struct{}
	cancelOnce sync.Once

	mu           sync.Mutex
	state        State
	err          string // terminal failure detail
	result       *Result
	bundleDir    string // forensics bundle directory (failed/deadline jobs)
	bundleReason string
	created      time.Time
	started      time.Time
	finished     time.Time
	deadline     time.Time // zero = none

	done chan struct{} // closed on entering a terminal state
}

// newJob builds an admitted job in StateQueued. rec is the bus's
// downstream recorder (may be nil in tests that don't exercise replay).
func newJob(id string, seq int64, sp Spec, bus *obs.Bus, rec *obs.Recorder, now time.Time) *Job {
	j := &Job{
		ID:       id,
		Spec:     sp,
		seq:      seq,
		bus:      bus,
		rec:      rec,
		cancelCh: make(chan struct{}),
		state:    StateQueued,
		created:  now,
		done:     make(chan struct{}),
	}
	if sp.DeadlineSec > 0 {
		j.deadline = now.Add(time.Duration(sp.DeadlineSec * float64(time.Second)))
	}
	return j
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Deadline returns the job's absolute deadline and whether one is set.
func (j *Job) Deadline() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.deadline, !j.deadline.IsZero()
}

// transition moves the job to state to if the FSM allows it, returning
// whether the move happened. Entering a terminal state closes done and
// the job's bus (ending SSE streams); entering running stamps started.
func (j *Job) transition(to State) bool {
	j.mu.Lock()
	if !transitions[j.state][to] {
		j.mu.Unlock()
		return false
	}
	j.state = to
	now := time.Now()
	if to == StateRunning {
		j.started = now
	}
	terminal := to.Terminal()
	if terminal {
		j.finished = now
	}
	j.mu.Unlock()
	if terminal {
		close(j.done)
		// Closing the bus ends every subscriber stream; the solve's
		// tracer has already been closed by the runner at this point
		// (or never existed for a job that died in the queue). Bus.Close
		// is idempotent for a sink-less bus, so the runner's tracer
		// close and this one compose.
		if j.bus != nil {
			_ = j.bus.Close()
		}
	}
	return true
}

// setErr records a terminal failure detail; call before the transition.
func (j *Job) setErr(msg string) {
	j.mu.Lock()
	j.err = msg
	j.mu.Unlock()
}

// Err returns the terminal failure detail ("" while healthy).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// setBundle records where the job's forensics bundle landed.
func (j *Job) setBundle(dir, reason string) {
	j.mu.Lock()
	j.bundleDir = dir
	j.bundleReason = reason
	j.mu.Unlock()
}

// BundleDir returns the job's forensics bundle directory ("" if none).
func (j *Job) BundleDir() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bundleDir
}

// Events returns the tail of the job's event stream retained by its
// flight recorder — readable before, during and after the solve.
func (j *Job) Events() []obs.Event { return j.rec.Events() }

// setResult attaches the solve outcome; call before the terminal
// transition so watchers of Done always observe it.
func (j *Job) setResult(r *Result) {
	j.mu.Lock()
	j.result = r
	j.mu.Unlock()
}

// Cancel requests cancellation: a queued job is removed by the server
// (which owns the queue), a running one is stopped cooperatively. The
// channel close is idempotent.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancelCh) })
}

// DebugInfo summarizes a failed job's forensics bundle in the job JSON.
type DebugInfo struct {
	Bundle string `json:"bundle"` // server-side bundle directory
	Reason string `json:"reason"` // terminal state that triggered capture
	URL    string `json:"url"`    // GET path streaming the bundle as a tar
}

// Status is the client-facing view of a job.
type Status struct {
	ID       string     `json:"id"`
	State    State      `json:"state"`
	Kind     string     `json:"kind"`
	Name     string     `json:"name,omitempty"` // instance display name
	Priority int        `json:"priority,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  string     `json:"created"`
	Started  string     `json:"started,omitempty"`
	Finished string     `json:"finished,omitempty"`
	Result   *Result    `json:"result,omitempty"`
	Debug    *DebugInfo `json:"debug,omitempty"`
}

// StatusView snapshots the job for the API.
func (j *Job) StatusView() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		State:    j.state,
		Kind:     j.Spec.Kind,
		Name:     j.specName(),
		Priority: j.Spec.Priority,
		Error:    j.err,
		Created:  j.created.UTC().Format(time.RFC3339Nano),
		Result:   j.result,
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.bundleDir != "" {
		st.Debug = &DebugInfo{
			Bundle: j.bundleDir,
			Reason: j.bundleReason,
			URL:    "/v1/jobs/" + j.ID + "/debug",
		}
	}
	return st
}

// specName is a short display name for the job's instance.
func (j *Job) specName() string {
	sp := &j.Spec
	switch {
	case sp.Instance != "":
		return sp.Instance
	case sp.Gen != nil:
		return "gen:" + sp.Gen.Family
	case sp.STP != "":
		return "inline-stp"
	case sp.Family != "":
		return sp.Family
	}
	return ""
}
