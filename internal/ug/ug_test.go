package ug

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ug/comm"
)

// fakeSolver is a scripted base solver used to exercise the coordinator
// protocol without the weight of the real branch-and-cut stack. The
// "problem" is: find the minimum of f(i) = ((i*2654435761)>>7) % 1000
// over i ∈ [lo, hi); a subproblem is an interval, solved by scanning
// `chunk` values per poll and splitting off the upper half as an open
// node that can be shipped to the coordinator.
type fakeFactory struct {
	lo, hi   int64
	chunk    int64
	settings int
	bound    float64       // dual bound of every status report and shipped node
	split    bool          // halve the unscanned rest, so more than one node is open
	delay    time.Duration // sleep per scanned chunk: work that no host finishes faster
	created  int64         // atomic: workers created
	used     sync.Map      // [2]int{rank, settings index} pairs that solved a subproblem
}

func f(i int64) float64 {
	return float64((uint64(i) * 2654435761 >> 7) % 1000)
}

func encodeIv(lo, hi int64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(lo))
	binary.LittleEndian.PutUint64(b[8:], uint64(hi))
	return b
}

func decodeIv(b []byte) (int64, int64) {
	return int64(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint64(b[8:]))
}

func (ff *fakeFactory) GlobalPresolve() ([]byte, *Solution, error) {
	return encodeIv(ff.lo, ff.hi), nil, nil
}
func (ff *fakeFactory) NumSettings() int { return maxInt(1, ff.settings) }
func (ff *fakeFactory) SettingsName(idx int) string {
	return string(rune('A' + idx))
}
func (ff *fakeFactory) CreateWorker(settingsIdx int) WorkerSolver {
	atomic.AddInt64(&ff.created, 1)
	return &fakeWorker{ff: ff, settingsIdx: settingsIdx}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type fakeWorker struct {
	ff          *fakeFactory
	settingsIdx int
}

func (fw *fakeWorker) Solve(sub *Subproblem, sess *Session) Outcome {
	fw.ff.used.Store([2]int{sess.rank, fw.settingsIdx}, true)
	lo, hi := decodeIv(sub.Payload)
	best := math.Inf(1)
	if inc := sess.InitialIncumbent(); inc != nil {
		best = inc.Obj
	}
	// The open "tree": intervals not yet scanned.
	open := [][2]int64{{lo, hi}}
	var nodes int64
	for len(open) > 0 {
		cur := open[len(open)-1]
		open = open[:len(open)-1]
		// Split: keep the lower chunk, push the rest.
		mid := cur[0] + fw.ff.chunk
		if half := mid + (cur[1]-mid)/2; fw.ff.split && half-mid > fw.ff.chunk {
			open = append(open, [2]int64{half, cur[1]}, [2]int64{mid, half})
		} else if mid < cur[1] {
			open = append(open, [2]int64{mid, cur[1]})
		} else {
			mid = cur[1]
		}
		for i := cur[0]; i < mid; i++ {
			if v := f(i); v < best {
				best = v
				sess.FoundSolution(Solution{Obj: v, Payload: encodeIv(i, i+1)})
			}
		}
		time.Sleep(fw.ff.delay)
		nodes++
		cmd := sess.Poll(StatusReport{Bound: fw.ff.bound, Open: len(open), Nodes: nodes})
		for _, sol := range cmd.Solutions {
			if sol.Obj < best {
				best = sol.Obj
			}
		}
		if cmd.ExtractAll {
			for _, iv := range open {
				sess.ShipNode(Subproblem{Bound: fw.ff.bound, Payload: encodeIv(iv[0], iv[1])})
			}
			return Outcome{Completed: false, Nodes: nodes, OpenLeft: 0}
		}
		if cmd.WantNode && len(open) > 0 {
			iv := open[0]
			open = open[1:]
			sess.ShipNode(Subproblem{Bound: fw.ff.bound, Payload: encodeIv(iv[0], iv[1])})
		}
		if cmd.Stop {
			return Outcome{Completed: false, Nodes: nodes, OpenLeft: len(open)}
		}
	}
	return Outcome{Completed: true, Nodes: nodes}
}

// trueMin scans the whole range.
func trueMin(lo, hi int64) float64 {
	best := math.Inf(1)
	for i := lo; i < hi; i++ {
		if v := f(i); v < best {
			best = v
		}
	}
	return best
}

func TestCoordinatorFindsMinimum(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 40000, chunk: 500}
	want := trueMin(0, 40000)
	for _, workers := range []int{1, 2, 5} {
		res, err := Run(ff, Config{Workers: workers, StatusInterval: 1e-4, ShipInterval: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Optimal {
			t.Fatalf("workers %d: %+v", workers, res)
		}
		if res.Obj != want {
			t.Fatalf("workers %d: obj %v want %v", workers, res.Obj, want)
		}
	}
}

// TestCoordinatorOverNet puts the whole protocol — dispatch, status,
// shipped nodes, solutions, termination — through the real transport's
// frame codec on 127.0.0.1 with three worker endpoints.
func TestCoordinatorOverNet(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 20000, chunk: 400}
	want := trueMin(0, 20000)
	res, err := runDistributed(t, ff, 3, Config{StatusInterval: 1e-4, ShipInterval: 1e-4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Obj != want {
		t.Fatalf("net run: %+v want %v", res, want)
	}
}

func TestRacingDeclaresWinner(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 3_000_000, chunk: 50, settings: 4}
	res, err := Run(ff, Config{
		Workers:    4,
		RampUp:     RampUpRacing,
		RacingTime: 0.05,
		TimeLimit:  0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RacingWinner < 0 {
		t.Fatalf("no winner: %+v", res.Stats)
	}
	if res.Stats.RacingWinnerName == "" {
		t.Fatal("winner unnamed")
	}
}

func TestTimeLimitCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "c.gob")
	// 150 chunks at 5 ms each: 0.75 s of work for one worker, at least
	// 0.375 s for two, so the 0.15 s limit interrupts the run on any host.
	// Splitting keeps open nodes to ship, so both workers take part.
	ff := &fakeFactory{lo: 0, hi: 3_000_000, chunk: 20_000, bound: -1, split: true, delay: 5 * time.Millisecond}
	want := trueMin(0, 3_000_000)
	res1, err := Run(ff, Config{
		Workers:         2,
		TimeLimit:       0.15,
		CheckpointPath:  ckpt,
		CheckpointEvery: 0.02,
		StatusInterval:  1e-4,
		ShipInterval:    1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Optimal {
		t.Fatalf("run finished inside its time limit: %+v", res1)
	}
	// An interrupted run still reports an honest bound: finite, no
	// higher than the optimum, no lower than the root bound.
	if math.IsInf(res1.DualBound, 0) || res1.DualBound > want || res1.DualBound < ff.bound {
		t.Fatalf("interrupted run's dual bound %v, want finite in [%v, %v]", res1.DualBound, ff.bound, want)
	}
	ck, err := LoadCheckpointInfo(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Pool) == 0 {
		t.Fatal("checkpoint holds no primitive nodes")
	}
	// Primitive nodes must be far fewer than the open frontier.
	if res1.Stats.OpenAtEnd > 0 && len(ck.Pool) > res1.Stats.OpenAtEnd {
		t.Fatalf("primitive nodes %d exceed open frontier %d", len(ck.Pool), res1.Stats.OpenAtEnd)
	}
	// Restarting and finishing must reach the global optimum.
	res2, err := Run(ff, Config{
		Workers:        4,
		RestartFrom:    ckpt,
		StatusInterval: 1e-4,
		ShipInterval:   1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Optimal || res2.Obj != want {
		t.Fatalf("restart: %+v want %v", res2, want)
	}
	if !res2.Stats.Restarted || res2.Stats.PoolAtStart != len(ck.Pool) {
		t.Fatalf("restart stats wrong: %+v", res2.Stats)
	}
}

// deafFactory's workers never act on a stop request: whatever they are
// handed they finish — the limit case of a stop that lands just as the
// last subproblem completes.
type deafFactory struct{ fakeFactory }

func (df *deafFactory) CreateWorker(int) WorkerSolver { return deafWorker{df} }

type deafWorker struct{ df *deafFactory }

func (w deafWorker) Solve(sub *Subproblem, sess *Session) Outcome {
	lo, hi := decodeIv(sub.Payload)
	best := math.Inf(1)
	for i := lo; i < hi; i++ {
		if v := f(i); v < best {
			best = v
			sess.FoundSolution(Solution{Obj: v, Payload: encodeIv(i, i+1)})
		}
		if i%w.df.chunk == 0 {
			sess.Poll(StatusReport{Open: 1, Nodes: i - lo})
		}
	}
	return Outcome{Completed: true, Nodes: hi - lo}
}

// TestStopThatInterruptsNothingIsOptimal: when the time limit fires but
// every subproblem still comes back completed, nothing is left to
// explore, so the run is optimal — not "interrupted" with zero open
// nodes and an empty checkpoint (which is how
// TestTimeLimitCheckpointAndRestart failed under -race, where the solve
// takes about as long as its limit).
func TestStopThatInterruptsNothingIsOptimal(t *testing.T) {
	df := &deafFactory{fakeFactory{lo: 0, hi: 400_000, chunk: 100}}
	res, err := Run(df, Config{Workers: 1, TimeLimit: 1e-3, StatusInterval: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if want := trueMin(0, 400_000); !res.Optimal || res.Obj != want || res.DualBound != want {
		t.Fatalf("completed search reported as %+v, want optimal at %v", res, want)
	}
}

func TestInitialSolutionUsed(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 10000, chunk: 300}
	want := trueMin(0, 10000)
	seed := &Solution{Obj: want, Payload: encodeIv(0, 1)}
	res, err := Run(ff, Config{Workers: 2, InitialSolution: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Obj != want {
		t.Fatalf("seeded run: %+v want %v", res, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 60000, chunk: 250}
	res, err := Run(ff, Config{Workers: 3, StatusInterval: 1e-4, ShipInterval: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.TotalNodes <= 0 {
		t.Fatal("no nodes accounted")
	}
	if st.Dispatched < 1 {
		t.Fatal("no dispatches accounted")
	}
	if st.MaxActive < 1 || st.MaxActive > 3 {
		t.Fatalf("MaxActive %d", st.MaxActive)
	}
	if st.Time <= 0 {
		t.Fatal("no time recorded")
	}
	if len(st.IdleRatio) != 3 {
		t.Fatalf("idle ratios %v", st.IdleRatio)
	}
}

func TestSubproblemGobSafety(t *testing.T) {
	// Every coordination payload must round-trip through gob.
	sub := Subproblem{ID: 7, Depth: 3, Bound: -12.5, Payload: []byte{1, 2, 3}}
	var got Subproblem
	dec(enc(sub), &got)
	if got.ID != 7 || got.Depth != 3 || got.Bound != -12.5 || len(got.Payload) != 3 {
		t.Fatalf("roundtrip: %+v", got)
	}
	w := workMsg{Sub: sub, Incumbent: &Solution{Obj: 3.5}, SettingsIdx: 2, StatusSec: 0.5}
	var gw workMsg
	dec(enc(w), &gw)
	if gw.Incumbent == nil || gw.Incumbent.Obj != 3.5 || gw.SettingsIdx != 2 {
		t.Fatalf("workMsg roundtrip: %+v", gw)
	}
}

func TestShiftWorkersCreated(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 5000, chunk: 100, settings: 3}
	if _, err := Run(ff, Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&ff.created) < 1 {
		t.Fatal("no workers created")
	}
}

// A ParaSolver creates one WorkerSolver per settings index it is sent
// and keeps it: creations count (rank, settings) pairs, not dispatches.
func TestWorkerSolverReusedAcrossDispatches(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 2},
		{Workers: 3, RampUp: RampUpRacing, RacingTime: 0.02},
	} {
		cfg.StatusInterval, cfg.ShipInterval = 1e-4, 1e-4
		// A bound below every objective keeps the incumbent from closing
		// the gap, so the whole range is scanned and shared out.
		ff := &fakeFactory{lo: 0, hi: 1 << 21, chunk: 50, settings: 3, bound: -1, split: true}
		res, err := Run(ff, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		ff.used.Range(func(_, _ any) bool { pairs++; return true })
		created := atomic.LoadInt64(&ff.created)
		if created != int64(pairs) {
			t.Errorf("ramp-up %d: %d workers created for %d (rank, settings) pairs", cfg.RampUp, created, pairs)
		}
		// A race can end with the instance solved; normal ramp-up always
		// shares the range out and re-dispatches.
		if cfg.RampUp == RampUpNormal && res.Stats.Dispatched <= created {
			t.Errorf("ramp-up %d: %d dispatches over %d workers: no solver was reused", cfg.RampUp, res.Stats.Dispatched, created)
		}
	}
}

func TestCommSizeMismatch(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 100, chunk: 10}
	_, err := Run(ff, Config{Workers: 3, Comm: comm.NewChannelComm(2)})
	if err == nil {
		t.Fatal("mismatched comm size accepted")
	}
}

func TestRestartFromMissingCheckpoint(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 100, chunk: 10}
	_, err := Run(ff, Config{Workers: 1, RestartFrom: "/nonexistent/ckpt.gob"})
	if err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.gob")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestZeroWorkersDefaultsToOne(t *testing.T) {
	ff := &fakeFactory{lo: 0, hi: 2000, chunk: 100}
	res, err := Run(ff, Config{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatalf("%+v", res)
	}
	if len(res.Stats.IdleRatio) != 1 {
		t.Fatalf("expected 1 worker, idle=%v", res.Stats.IdleRatio)
	}
}
