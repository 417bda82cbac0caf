package serve

import (
	"archive/tar"
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scip"
	"repro/internal/ug"
)

// startServer boots a full server on a loopback port.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJob(t *testing.T, s *Server, body string) Status {
	t.Helper()
	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad submit response %q: %v", raw, err)
	}
	return st
}

func getJob(t *testing.T, s *Server, id string) Status {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job %s: %v", id, err)
	}
	return st
}

func awaitTerminal(t *testing.T, s *Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, s, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Status{}
}

// snapshotValue reads one metric from the server registry.
func snapshotValue(s *Server, name string) (float64, bool) {
	for _, m := range s.Registry().Snapshot() {
		if m.Name == name && (m.Kind == "counter" || m.Kind == "gauge") {
			return m.Value, true
		}
	}
	return 0, false
}

func TestHTTPSubmitSolveFetch(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 2})
	// The real solve waits for the POST response to be read, so the
	// fresh job cannot have finished by then.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // runs before the server's Close if postJob fails
	solve := s.sched.solve
	s.sched.solve = func(app core.App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, error) {
		<-gate
		return solve(app, prob, offset, cfg)
	}
	body := fmt.Sprintf(`{"kind":"stp","stp":%q,"workers":1}`, tinySTP)
	st := postJob(t, s, body)
	release()
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	final := awaitTerminal(t, s, st.ID)
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("final = %+v, want done with result", final)
	}
	if final.Result.Status != "optimal" || final.Result.Objective != 3 {
		t.Fatalf("result = %+v, want optimal objective 3", final.Result)
	}
	if final.Result.Cache != "miss" {
		t.Fatalf("first solve cache = %q, want miss", final.Result.Cache)
	}

	// List view carries the job too.
	resp, err := http.Get("http://" + s.Addr() + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs     []Status `json:"jobs"`
		Draining bool     `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID || list.Draining {
		t.Fatalf("list = %+v", list)
	}
}

func TestHTTPDuplicateSubmissionHitsCache(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	body := fmt.Sprintf(`{"kind":"stp","stp":%q,"workers":1}`, tinySTP)

	first := awaitTerminal(t, s, postJob(t, s, body).ID)
	if first.Result == nil || first.Result.Cache != "miss" {
		t.Fatalf("first result = %+v, want cache miss", first.Result)
	}
	if first.Result.PresolveSeconds <= 0 {
		t.Fatalf("first presolve_seconds = %v, want > 0", first.Result.PresolveSeconds)
	}

	second := awaitTerminal(t, s, postJob(t, s, body).ID)
	if second.State != StateDone || second.Result == nil {
		t.Fatalf("second = %+v", second)
	}
	if second.Result.Cache != "hit" {
		t.Fatalf("duplicate submission cache = %q, want hit", second.Result.Cache)
	}
	if second.Result.PresolveSeconds != 0 {
		t.Fatalf("duplicate presolve_seconds = %v, want 0 (phase skipped)", second.Result.PresolveSeconds)
	}
	if second.Result.Objective != first.Result.Objective {
		t.Fatalf("cached solve objective %v != fresh %v", second.Result.Objective, first.Result.Objective)
	}
	if v, ok := snapshotValue(s, "serve.cache.hit"); !ok || v < 1 {
		t.Fatalf("serve.cache.hit = %v (present %v), want >= 1", v, ok)
	}
	// /metrics carries the counter in Prometheus form.
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "serve_cache_hit") {
		t.Error("/metrics missing serve_cache_hit")
	}
	if !strings.Contains(string(prom), "serve_jobs_done") {
		t.Error("/metrics missing serve_jobs_done")
	}
}

func TestHTTPSSEStreamCarriesSolveEvents(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1, SSEHeartbeat: 20 * time.Millisecond})
	release := make(chan struct{})
	finish := make(chan struct{})
	s.sched.solve = func(app core.App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, error) {
		<-release
		for i := 0; i < 5; i++ {
			cfg.Trace.Emit(obs.Event{Kind: "incumbent", Primal: float64(10 - i), Dual: 1})
		}
		// Park until the client has drained the frames: closing the bus
		// (which ends the job) discards undelivered backlog by design.
		<-finish
		return &ug.Result{Optimal: true, Obj: 5, DualBound: 5}, nil
	}

	st := postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q}`, tinySTP))
	resp, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	// The subscriber is attached once the response headers are out;
	// release the solve and read frames until the job ends the stream.
	close(release)
	var frames []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			frames = append(frames, strings.TrimPrefix(line, "data: "))
			if len(frames) == 5 {
				close(finish) // all frames seen: let the job finish
			}
		}
	}
	if len(frames) < 5 {
		t.Fatalf("got %d SSE data frames, want >= 5", len(frames))
	}
	var ev obs.Event
	if err := json.Unmarshal([]byte(frames[0]), &ev); err != nil {
		t.Fatalf("frame %q not event JSON: %v", frames[0], err)
	}
	if ev.Kind != "incumbent" || ev.Primal != 10 {
		t.Fatalf("first frame = %+v, want incumbent primal 10", ev)
	}
	if awaitTerminal(t, s, st.ID).State != StateDone {
		t.Fatal("job did not finish after stream ended")
	}
}

func TestHTTPCancelAndErrors(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	s.sched.solve = blockingSolve

	st := postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q}`, tinySTP))
	req, _ := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	if final := awaitTerminal(t, s, st.ID); final.State != StateCancelled {
		t.Fatalf("after DELETE: %s, want cancelled", final.State)
	}

	// Unknown job: 404. Bad spec: 400. Unknown field: 400.
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/v1/jobs/job-999", "", http.StatusNotFound},
		{http.MethodPost, "/v1/jobs", `{"kind":"nope"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/jobs", `{"kind":"stp","stp":"x","bogus":1}`, http.StatusBadRequest},
		{http.MethodPut, "/v1/jobs", "", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(c.method, "http://"+s.Addr()+c.path, strings.NewReader(c.body))
		if c.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

func TestHTTPQueueFull(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1, QueueCap: 1})
	s.sched.solve = blockingSolve

	body := fmt.Sprintf(`{"kind":"stp","stp":%q}`, tinySTP)
	running := postJob(t, s, body) // occupies the solve lane
	waitState(t, mustJob(t, s, running.ID), StateRunning)
	postJob(t, s, body) // fills the queue

	resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST = %d, want 429", resp.StatusCode)
	}
	if v, _ := snapshotValue(s, "serve.jobs.rejected"); v < 1 {
		t.Errorf("serve.jobs.rejected = %v, want >= 1", v)
	}
}

func mustJob(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	return j
}

func TestDrainFinishesRunningRejectsNew(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1, SSEHeartbeat: 20 * time.Millisecond})
	s.sched.solve = blockingSolve

	body := fmt.Sprintf(`{"kind":"stp","stp":%q}`, tinySTP)
	running := postJob(t, s, body)
	waitState(t, mustJob(t, s, running.ID), StateRunning)
	queued := postJob(t, s, body)

	drained := s.Drain(150 * time.Millisecond)
	if drained != 1 {
		t.Fatalf("Drain reported %d running jobs, want 1", drained)
	}
	if st := mustJob(t, s, queued.ID).State(); st != StateCancelled {
		t.Fatalf("queued job after drain: %s, want cancelled", st)
	}
	if st := mustJob(t, s, running.ID).State(); st != StateCancelled {
		t.Fatalf("running job after grace expiry: %s, want cancelled", st)
	}
	if _, err := s.Submit(Spec{Kind: "stp", STP: tinySTP}); err != ErrDraining {
		t.Fatalf("Submit during drain = %v, want ErrDraining", err)
	}
	// The HTTP plane is down after the drain completes.
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("HTTP server still answering after drain")
	}
}

// TestHTTPDebugBundleAndTerminalReplay is the forensics e2e: a failed
// job leaves a bundle on disk, GET /v1/jobs/{id}/debug serves it as a
// tar, the job JSON summarizes it, and GET /v1/jobs/{id}/events after
// completion replays the flight-recorder tail instead of hanging up.
func TestHTTPDebugBundleAndTerminalReplay(t *testing.T) {
	debugDir := t.TempDir()
	s := startServer(t, Config{MaxConcurrent: 1, DebugDir: debugDir})
	s.sched.solve = func(app core.App, prob *scip.Prob, offset float64, cfg ug.Config) (*ug.Result, error) {
		for i := 0; i < 3; i++ {
			cfg.Trace.Emit(obs.Event{Kind: "incumbent", Primal: float64(9 - i), Dual: 1})
		}
		return nil, fmt.Errorf("solver exploded")
	}

	st := postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q}`, tinySTP))
	final := awaitTerminal(t, s, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Debug == nil || final.Debug.Reason != string(StateFailed) {
		t.Fatalf("job JSON debug summary = %+v, want a failed-bundle pointer", final.Debug)
	}
	if want := "/v1/jobs/" + st.ID + "/debug"; final.Debug.URL != want {
		t.Fatalf("debug URL = %q, want %q", final.Debug.URL, want)
	}

	// The on-disk bundle validates as a post-mortem bundle.
	b, err := obs.ReadBundle(final.Debug.Bundle)
	if err != nil {
		t.Fatalf("job bundle invalid: %v", err)
	}
	if b.Manifest.Reason != "job-failed" || !strings.Contains(b.Manifest.Detail, "solver exploded") {
		t.Fatalf("bundle trigger = %s/%s", b.Manifest.Reason, b.Manifest.Detail)
	}
	if b.Manifest.Extra["job"] != st.ID {
		t.Fatalf("bundle extra = %v, want job id", b.Manifest.Extra)
	}
	if len(b.Events) < 3 {
		t.Fatalf("bundle has %d events, want the solve's tail", len(b.Events))
	}

	// GET /debug streams the same bundle as a tar.
	resp, err := http.Get("http://" + s.Addr() + final.Debug.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET debug = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-tar" {
		t.Fatalf("debug content-type = %q", ct)
	}
	seen := map[string]bool{}
	tr := tar.NewReader(resp.Body)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[hdr.Name] = true
	}
	for _, want := range []string{"manifest.json", "events.jsonl", "metrics.txt", "goroutines.txt", "heap.pprof"} {
		if !seen[want] {
			t.Errorf("debug tar missing %s (got %v)", want, seen)
		}
	}

	// A late /events client gets the recorded tail replayed, then EOF.
	resp2, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + st.ID + "/events?kind=incumbent")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("replay content-type = %q", ct)
	}
	var frames []obs.Event
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			var ev obs.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("replay frame %q: %v", line, err)
			}
			frames = append(frames, ev)
		}
	}
	if len(frames) != 3 {
		t.Fatalf("replayed %d incumbent frames, want 3", len(frames))
	}
	if frames[0].Primal != 9 || frames[2].Primal != 7 {
		t.Fatalf("replay out of order: %+v", frames)
	}

}

// TestHTTPDebugWithoutBundle: jobs that finished clean (or a server with
// capture disabled) answer 404 on /debug and omit the JSON summary.
func TestHTTPDebugWithoutBundle(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	final := awaitTerminal(t, s, postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q,"workers":1}`, tinySTP)).ID)
	if final.State != StateDone || final.Debug != nil {
		t.Fatalf("clean job = %s debug %+v, want done with no debug summary", final.State, final.Debug)
	}
	resp, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + final.ID + "/debug")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug on clean job = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsSummarizes: after one job, /metrics carries what a
// service summary needs — the job and cache series and the process
// uptime.
func TestMetricsSummarizes(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	awaitTerminal(t, s, postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q,"workers":1}`, tinySTP)).ID)
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{"\nserve_jobs_done 1\n", "\nserve_cache_entries 1\n", "\nprocess_uptime_seconds "} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestJobEventsShareTheStreamCap: per-job event streams, live and
// replayed, go through the surface's one stream cap. With it saturated
// by live streams, both answer 503 until a stream ends.
func TestJobEventsShareTheStreamCap(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	s.sched.solve = blockingSolve
	running := postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q}`, tinySTP))
	waitState(t, mustJob(t, s, running.ID), StateRunning)
	queued := postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q}`, tinySTP))
	s.CancelJob(queued.ID) // terminal: its /events is a replay

	get := func(id string) *http.Response {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	var open []*http.Response
	defer func() {
		for _, resp := range open {
			resp.Body.Close()
		}
	}()
	for len(open) < 1024 {
		resp := get(running.ID)
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("live stream %d: status %d", len(open), resp.StatusCode)
		}
		open = append(open, resp)
	}
	if len(open) == 0 || len(open) == 1024 {
		t.Fatalf("%d live streams admitted before a 503, want a cap", len(open))
	}
	if resp := get(queued.ID); resp.StatusCode != http.StatusServiceUnavailable {
		resp.Body.Close()
		t.Fatalf("replay with the cap saturated: status %d, want 503", resp.StatusCode)
	}

	// Ending one live stream frees its slot for the replay.
	open[0].Body.Close()
	open = open[1:]
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := get(queued.ID)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay after a stream ended: status %d, want 200", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMalformedInlineSTPFailsTheJob: inline STP is parsed in the lane,
// where a panic used to take the daemon down (CapturePanic re-panics).
// A vertex outside 1..Nodes must fail that one job with the parse error,
// and the next job must still solve.
func TestMalformedInlineSTPFailsTheJob(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	bad := postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q,"workers":1}`, "SECTION Graph\nNodes 3\nE 1 9 1\nEND\n"))
	if final := awaitTerminal(t, s, bad.ID); final.State != StateFailed || !strings.Contains(final.Error, "parse inline stp") {
		t.Fatalf("malformed inline job = %+v, want failed with the parse error", final)
	}
	st := postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q,"workers":1}`, tinySTP))
	if final := awaitTerminal(t, s, st.ID); final.State != StateDone {
		t.Fatalf("job after the malformed one = %+v, want done", final)
	}
}

// TestUnknownInstanceIsRejectedAtSubmit: a name puc.Named does not know
// used to pass Validate and fail the job later in its lane. It must be a
// 400 at submit that names the instance, and no job may be created.
func TestUnknownInstanceIsRejectedAtSubmit(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	for _, name := range []string{"bip52u", "no-such-instance"} {
		body := fmt.Sprintf(`{"kind":"stp","instance":%q}`, name)
		resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), name) {
			t.Errorf("POST %s = %d %s, want 400 naming %s", body, resp.StatusCode, raw, name)
		}
	}
	if n, _ := snapshotValue(s, "serve.jobs.submitted"); n != 0 {
		t.Errorf("%v unknown instances were admitted as jobs", n)
	}
}

// TestUnknownModeIsRejectedAtSubmit: an MISDP mode outside lp, sdp and
// hybrid used to be solved silently in sdp mode. It must be a 400 at
// submit that names the mode, no job may be created, and every listed
// mode must still validate.
func TestUnknownModeIsRejectedAtSubmit(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	for _, mode := range []string{"lpp", "racing"} {
		body := fmt.Sprintf(`{"kind":"misdp","family":"mkp","n":5,"mode":%q}`, mode)
		resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), mode) {
			t.Errorf("POST %s = %d %s, want 400 naming %s", body, resp.StatusCode, raw, mode)
		}
	}
	if n, _ := snapshotValue(s, "serve.jobs.submitted"); n != 0 {
		t.Errorf("%v unknown modes were admitted as jobs", n)
	}
	for _, mode := range []string{"", "sdp", "hybrid", "lp"} {
		sp := Spec{Kind: "misdp", Family: "mkp", N: 5, Mode: mode}
		if err := sp.Validate(); err != nil {
			t.Errorf("mode %q: %v", mode, err)
		}
	}
}

// TestHostileSpecsAreRejectedAtSubmit: generator parameters no generator
// can honour used to pass Validate, reach puc.Hypercube inside a
// scheduler lane and panic there (`1 << -1`), which — CapturePanic
// re-panics by design — took the whole daemon down; d=40 instead asked
// the allocator for 2^40 vertices. Each must now be a 400 at submit,
// no job may be created, and the server must still answer afterwards.
func TestHostileSpecsAreRejectedAtSubmit(t *testing.T) {
	s := startServer(t, Config{MaxConcurrent: 1})
	for _, body := range []string{
		`{"kind":"stp","gen":{"family":"hc","d":-1}}`,
		`{"kind":"stp","gen":{"family":"hc","d":40}}`,
		`{"kind":"stp","gen":{"family":"hc"}}`,
		`{"kind":"stp","gen":{"family":"hc","d":3,"terminals":-4}}`,
		`{"kind":"stp","gen":{"family":"cc","d":40,"a":9}}`,
		`{"kind":"stp","gen":{"family":"cc","d":2,"a":-1}}`,
		`{"kind":"stp","gen":{"family":"bip","steiner":-5}}`,
		`{"kind":"stp","gen":{"family":"bip","terminals":1099511627776}}`,
		`{"kind":"stp","gen":{"family":"bip","deg":-1}}`,
		`{"kind":"stp","gen":{"family":"moebius","d":3}}`,
		`{"kind":"misdp","family":"mkp","n":-3}`,
		`{"kind":"misdp","family":"mkp","n":100000}`,
		`{"kind":"misdp","family":"mkp","n":5,"k":1}`,
		`{"kind":"misdp","family":"cls","n":4,"k":9}`,
		`{"kind":"misdp","family":"ttd","k":-1}`,
	} {
		resp, err := http.Post("http://"+s.Addr()+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v (server gone?)", body, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d %s, want 400", body, resp.StatusCode, raw)
		}
	}
	if n, _ := snapshotValue(s, "serve.jobs.submitted"); n != 0 {
		t.Errorf("%v hostile specs were admitted as jobs", n)
	}
	// The server is still there and still solves.
	st := postJob(t, s, fmt.Sprintf(`{"kind":"stp","stp":%q,"workers":1}`, tinySTP))
	if final := awaitTerminal(t, s, st.ID); final.State != StateDone {
		t.Fatalf("job after the hostile batch = %+v, want done", final)
	}
}
