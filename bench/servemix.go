package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/steiner"
)

// serve_mix drives a real ugserve instance over loopback HTTP with a
// closed loop of two clients: each submits a job, follows its event
// stream to the end, fetches the result and only then sends its next
// job. Two clients is nproc here and also the server's lane count, so a
// job waits in the queue only when the server itself adds delay.

const (
	serveClients = 2
	// Every STP spec is submitted stpRepeats times per pass, alternately
	// as a text the server has not seen (a fresh comment line makes a new
	// cache key) and as a repeat of the previous text; every MISDP spec
	// misdpRepeats times with one key, which has no inline form. With the
	// catalogue's 7 STP and 5 MISDP specs this is 142 jobs a pass, 81 of
	// them presolve-cache hits. The job times fall in two clusters (10–30
	// ms and 70–110 ms); these counts put the median job 7 ranks inside
	// the quick cluster and not in the gap, where job_p50_s would jump.
	stpRepeats   = 16
	misdpRepeats = 6
)

// job is one submission of the mix.
type job struct {
	e    *Entry
	body []byte // the POST body
	hit  bool   // expected to find its presolve cached
}

// serveSpec renders the job spec the API accepts for e. nonce > 0 adds a
// comment line to an inline STP text, which changes the cache key and
// nothing else.
func serveSpec(e *Entry, nonce int) (serve.Spec, error) {
	if e.IsSTP() {
		g, err := e.BuildSTP()
		if err != nil {
			return serve.Spec{}, err
		}
		var buf bytes.Buffer
		if err := steiner.WriteSTP(&buf, g); err != nil {
			return serve.Spec{}, err
		}
		return serve.Spec{Kind: "stp", STP: fmt.Sprintf("# submission %d\n%s", nonce, buf.String())}, nil
	}
	a := e.Args
	sp := serve.Spec{Kind: "misdp", Seed: a[len(a)-1]}
	switch {
	case e.Fn == "testsets.TTD" && a[0] == 4 && a[2] == 2:
		sp.Family, sp.N = "ttd", int(a[1])
	case e.Fn == "testsets.CLS" && a[1] == a[0]+2:
		sp.Family, sp.N, sp.K = "cls", int(a[0]), int(a[2])
	case e.Fn == "testsets.MkP":
		sp.Family, sp.N, sp.K = "mkp", int(a[0]), int(a[1])
	default:
		return serve.Spec{}, fmt.Errorf("%s: the serve API cannot express %s", e.Name, e.Call())
	}
	return sp, nil
}

// buildMix lays out one pass. The multiset of jobs is the same for every
// seed — each spec the same number of times, the same share of repeats —
// and the seed decides the order, so two seeds do the same work.
func buildMix(entries []*Entry, seed int64, pass int) ([]job, error) {
	var order []*Entry
	for _, e := range entries {
		n := misdpRepeats
		if e.IsSTP() {
			n = stpRepeats
		}
		for i := 0; i < n; i++ {
			order = append(order, e)
		}
	}
	rng := rand.New(rand.NewSource(seed*1000 + int64(pass)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	seen := map[*Entry]int{}
	last := map[*Entry][]byte{}
	jobs := make([]job, 0, len(order))
	for i, e := range order {
		k := seen[e]
		seen[e]++
		repeat := k > 0
		if e.IsSTP() {
			repeat = k%2 == 1
		}
		if !repeat {
			sp, err := serveSpec(e, pass*len(order)+i+1)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(sp)
			if err != nil {
				return nil, err
			}
			last[e] = body
		}
		jobs = append(jobs, job{e: e, body: last[e], hit: repeat})
	}
	return jobs, nil
}

// jobStats is what the client saw of one job beyond opResult.
type jobStats struct {
	name                       string
	queueWait, presolve, solve float64
	cacheHit                   bool
	rejected                   bool
}

// servePass starts a fresh server (so each pass begins with an empty
// presolve cache), runs the jobs through the two clients and stops it.
func servePass(jobs []job, t *Trace, emit func(opResult)) (wall float64, stats []jobStats, err error) {
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0", MaxConcurrent: 2, DefaultWorkers: 1})
	if err := srv.Start(); err != nil {
		return 0, nil, err
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	next := make(chan job)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One connection per client: a stream is read to its end
			// before the next request, so the connection is reused.
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for j := range next {
				r, js := runJob(client, base, j, t)
				mu.Lock()
				stats = append(stats, js)
				emit(r)
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return time.Since(t0).Seconds(), stats, nil
}

// runJob is one closed-loop iteration: POST, follow /events, GET.
func runJob(client *http.Client, base string, j job, t *Trace) (opResult, jobStats) {
	r := opResult{Name: j.e.Name}
	js := jobStats{name: j.e.Name}
	t0 := time.Now()
	fail := func(format string, args ...any) (opResult, jobStats) {
		r.Seconds, r.Why = time.Since(t0).Seconds(), fmt.Sprintf(format, args...)
		r.PrimalIntegral = r.Seconds
		return r, js
	}
	root := t.Begin(0, j.e.Name, "op")
	defer t.End(root)

	span := t.Begin(root, j.e.Name, "http.submit")
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return fail("submit: %v", err)
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	t.End(span)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		js.rejected = resp.StatusCode == http.StatusTooManyRequests
		return fail("submit: status %d, %v", resp.StatusCode, err)
	}

	span = t.Begin(root, j.e.Name, "http.stream")
	ps := newPrimalSampler(t0)
	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/events?kind=incumbent")
	if err != nil {
		return fail("events: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev struct {
				Primal float64 `json:"primal"`
			}
			if json.Unmarshal([]byte(line), &ev) == nil {
				ps.note(ev.Primal)
			}
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	resp.Body.Close()
	t.End(span)
	if resp.StatusCode != http.StatusOK {
		return fail("events: status %d", resp.StatusCode)
	}

	// The stream ends when the solve's tracer closes, a moment before
	// the job turns terminal: ask until it has.
	span = t.Begin(root, j.e.Name, "http.get")
	for {
		resp, err = client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return fail("get: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return fail("get: status %d, %v", resp.StatusCode, err)
		}
		if st.State.Terminal() {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.End(span)
	r.Seconds = time.Since(t0).Seconds()
	r.PrimalIntegral = r.Seconds

	if st.State != serve.StateDone || st.Result == nil {
		return fail("job ended %s: %s", st.State, st.Error)
	}
	res := st.Result
	r.Obj, r.Nodes = res.Objective, res.Nodes
	r.check(j.e, res.Status == "optimal", res.Status)
	js.presolve, js.solve, js.cacheHit = res.PresolveSeconds, res.SolveSeconds, res.Cache == "hit"
	if created, err1 := time.Parse(time.RFC3339Nano, st.Created); err1 == nil {
		if started, err2 := time.Parse(time.RFC3339Nano, st.Started); err2 == nil {
			js.queueWait = started.Sub(created).Seconds()
		}
	}
	// Events carry the model objective; the result adds the presolve
	// offset. The best incumbent is the optimum, which fixes the offset.
	if r.OK && len(ps.obj) > 0 {
		offset := res.Objective - ps.last
		for i := range ps.obj {
			ps.obj[i] += offset
		}
		r.PrimalIntegral = primalIntegral(ps.at, ps.obj, r.Seconds, j.e.Opt)
	}
	return r, js
}
