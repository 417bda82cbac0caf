package serve

import (
	"archive/tar"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config shapes a Server.
type Config struct {
	// Addr is the listen address ("host:port", ":0" for any port).
	Addr string
	// MaxConcurrent is the number of solves running at once (the worker
	// pool size). Default 2.
	MaxConcurrent int
	// QueueCap bounds the number of queued (not yet running) jobs;
	// submissions past it are answered 429. Default 64.
	QueueCap int
	// CacheBytes is the presolve cache's LRU byte budget (<=0 means
	// unbounded).
	CacheBytes int64
	// DefaultWorkers is the per-job ParaSolver count when a submission
	// does not choose one. Default 2.
	DefaultWorkers int
	// SSEHeartbeat overrides the idle keepalive interval on event
	// streams (tests lower it). Zero keeps the 15s default.
	SSEHeartbeat time.Duration
	// DebugDir is where per-job forensics bundles are written when a
	// job fails or exceeds its deadline (one subdirectory per job,
	// served back at GET /v1/jobs/{id}/debug). Empty disables capture.
	DebugDir string
}

// jobRecorderCap is each job's flight-recorder ring size. 256 events is
// the final stretch of a solve — bounds, dispatches, the run.end — at
// ~25 KiB per job; retained for the job record's lifetime.
const jobRecorderCap = 256

// Server is the ugserve daemon: job queue + scheduler + presolve cache
// behind the job API, mounted on the same obs.DebugServer surface the
// solver CLIs serve under -pprof (/metrics, /debug/pprof/ and its
// shared event-stream cap).
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *PresolveCache
	q     *queue
	sched *scheduler

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []*Job // admission order, for stable list views
	nextID int64

	draining atomic.Bool
	surface  *obs.DebugServer

	submitted *obs.Counter // serve.jobs.submitted
	rejected  *obs.Counter // serve.jobs.rejected
}

// New builds a Server (not yet listening; call Start).
func New(cfg Config) *Server {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 2
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 64
	}
	if cfg.DefaultWorkers < 1 {
		cfg.DefaultWorkers = 2
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		cache:     NewPresolveCache(cfg.CacheBytes, reg),
		jobs:      map[string]*Job{},
		surface:   obs.NewDebugServer(reg, cfg.SSEHeartbeat),
		submitted: reg.Counter("serve.jobs.submitted"),
		rejected:  reg.Counter("serve.jobs.rejected"),
	}
	s.q = newQueue(cfg.QueueCap, reg.Gauge("serve.queue.depth"))
	s.sched = newScheduler(s.q, s.cache, reg, cfg.MaxConcurrent, cfg.DefaultWorkers, cfg.DebugDir)
	s.surface.HandleFunc("/v1/jobs", s.handleJobs)
	s.surface.HandleFunc("/v1/jobs/", s.handleJob)
	return s
}

// Registry exposes the server's metrics registry (tests and embedders).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start binds the listen address and serves the API in a background
// goroutine until Drain or Close.
func (s *Server) Start() error {
	if err := s.surface.Listen(s.cfg.Addr); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.surface.Addr() }

// Submit admits a job programmatically (the HTTP POST path calls this
// too). It validates the spec, assigns an ID, and enqueues.
func (s *Server) Submit(sp Spec) (*Job, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	seq := s.nextID
	// The job's event plane is bus → recorder: live subscribers fan out
	// of the bus, and the recorder (the bus's downstream sink) keeps the
	// last window of events past the terminal transition for post-run
	// /events replay and failure bundles.
	rec := obs.NewRecorder(nil, jobRecorderCap)
	j := newJob(id, seq, sp, obs.NewBus(rec, s.reg), rec, time.Now())
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	if err := s.q.push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.rejected.Inc()
		return nil, err
	}
	s.submitted.Inc()
	return j, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// CancelJob cancels a job by ID: removed outright while queued, stopped
// cooperatively while running. It returns the job's state after the
// request (terminal states are left as they were).
func (s *Server) CancelJob(id string) (State, bool) {
	j, ok := s.Job(id)
	if !ok {
		return "", false
	}
	s.cancelJob(j)
	return j.State(), true
}

// cancelJob performs the two-sided cancel: queue removal wins for
// queued jobs, the cancel channel covers running ones. The scheduler's
// own pre-run check closes the race where a job is popped between the
// remove attempt and the channel close.
func (s *Server) cancelJob(j *Job) {
	j.Cancel()
	if s.q.remove(j) {
		if j.transition(StateCancelled) {
			s.sched.countTerminal(StateCancelled)
		}
	}
}

// Drain performs graceful shutdown: stop admitting, cancel everything
// still queued, let running solves finish within grace (then stop them
// cooperatively), and shut the HTTP server down. It returns the number
// of jobs that were still running when the drain began (the "drained"
// jobs the caller reports).
func (s *Server) Drain(grace time.Duration) int {
	s.draining.Store(true)
	// Closing the queue unblocks idle workers; queued jobs are cancelled
	// (a drain finishes running work, it does not start new work).
	for _, j := range s.q.drain() {
		j.Cancel()
		if j.transition(StateCancelled) {
			s.sched.countTerminal(StateCancelled)
		}
	}
	active := make([]*Job, 0)
	s.mu.Lock()
	for _, j := range s.order {
		if j.State() == StateRunning {
			active = append(active, j)
		}
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.sched.wait()
		close(finished)
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		select {
		case <-finished:
			t.Stop()
		case <-t.C:
			// Grace expired: stop every straggler cooperatively — all
			// non-terminal jobs, not just the ones seen running when the
			// drain began (a job popped right at drain time may only now
			// be entering running) — and wait for them to unwind (a
			// cancelled solve interrupts at the next coordinator tick,
			// so this is prompt).
			s.mu.Lock()
			stragglers := append([]*Job(nil), s.order...)
			s.mu.Unlock()
			for _, j := range stragglers {
				if !j.State().Terminal() {
					j.Cancel()
				}
			}
			<-finished
		}
	} else {
		<-finished
	}
	_ = s.surface.Close() // ends SSE streams and frees the listener
	return len(active)
}

// Close hard-stops the server: cancel everything, drain with no grace.
func (s *Server) Close() {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	for _, j := range jobs {
		s.cancelJob(j)
	}
	s.Drain(0)
}

// handleJobs is POST /v1/jobs (submit) and GET /v1/jobs (list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var sp Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 32<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
			return
		}
		j, err := s.Submit(sp)
		switch {
		case err == nil:
			writeJSON(w, http.StatusAccepted, j.StatusView())
		case err == ErrQueueFull:
			s.rejected.Inc()
			writeErr(w, http.StatusTooManyRequests, err.Error())
		case err == ErrDraining:
			s.rejected.Inc()
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeErr(w, http.StatusBadRequest, err.Error())
		}
	case http.MethodGet:
		s.mu.Lock()
		views := make([]Status, 0, len(s.order))
		for _, j := range s.order {
			views = append(views, j.StatusView())
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"jobs": views, "draining": s.draining.Load()})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list")
	}
}

// handleJob is GET/DELETE /v1/jobs/{id} and GET /v1/jobs/{id}/events.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no such job %q", id))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, j.StatusView())
	case sub == "" && r.Method == http.MethodDelete:
		s.cancelJob(j)
		writeJSON(w, http.StatusOK, j.StatusView())
	case sub == "events" && r.Method == http.MethodGet:
		s.serveJobEvents(w, r, j)
	case sub == "debug" && r.Method == http.MethodGet:
		s.serveJobDebug(w, j)
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET, DELETE, GET …/events, or GET …/debug")
	}
}

// serveJobEvents streams one job's live events: the surface's SSE
// handler over the job's own bus, so the stream carries exactly this
// job's incumbent/bound/status traffic. For a finished job — whose bus
// is closed — the flight-recorder tail is replayed instead, so "what
// did this job's last events look like?" has an answer after the fact.
// Both take a slot under the surface's one stream cap.
func (s *Server) serveJobEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	if j.State().Terminal() {
		s.surface.ReplaySSE(w, r, j.Events())
		return
	}
	s.surface.ServeSSE(w, r, j.bus)
}

// serveJobDebug streams a failed job's forensics bundle as a tar
// archive. 404 until a bundle exists (healthy or still-running jobs).
func (s *Server) serveJobDebug(w http.ResponseWriter, j *Job) {
	dir := j.BundleDir()
	if dir == "" {
		writeErr(w, http.StatusNotFound, "no forensics bundle for this job")
		return
	}
	w.Header().Set("Content-Type", "application/x-tar")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.ID+"-debug.tar"))
	w.WriteHeader(http.StatusOK)
	tw := tar.NewWriter(w)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // headers are out; nothing more we can report in-band
	}
	for _, e := range entries {
		if e.IsDir() {
			continue // bundles are flat; skip anything unexpected
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return
		}
		hdr := &tar.Header{Name: e.Name(), Mode: 0o644, Size: int64(len(data))}
		if info, err := e.Info(); err == nil {
			hdr.ModTime = info.ModTime()
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return
		}
		if _, err := tw.Write(data); err != nil {
			return
		}
	}
	_ = tw.Close()
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr writes a JSON error envelope.
func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// finiteOr0 clamps non-finite objective/bound values for JSON transport
// (encoding/json rejects ±Inf and NaN).
func finiteOr0(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	return x
}
