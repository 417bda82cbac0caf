package ug

import (
	"testing"
	"time"

	"repro/internal/ug/comm"
)

// TestRunExitsWhenCommClosedMidRun pins the coordinator's behavior when
// the transport is closed under a live run (process teardown, a test
// harness giving up): the event loop must notice the closed comm and
// return an interrupted result promptly instead of spinning on an empty
// mailbox forever. Before the Closed() check this hung: TryRecv on a
// closed-and-drained comm reports "nothing pending", which is
// indistinguishable from a quiet moment mid-search.
func TestRunExitsWhenCommClosedMidRun(t *testing.T) {
	// A large instance so the solve is still in flight when Close hits,
	// and a bound below every objective, so the requeued root's reported
	// bound cannot close the gap against the incumbent.
	ff := &fakeFactory{lo: 0, hi: 1 << 40, chunk: 100, bound: -1}
	c := comm.NewChannelComm(3)
	type runRes struct {
		res *Result
		err error
	}
	resCh := make(chan runRes, 1)
	go func() {
		res, err := Run(ff, Config{
			Workers:        2,
			Comm:           c,
			StatusInterval: 1e-4,
			ShipInterval:   1e-4,
		})
		resCh <- runRes{res, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the run ramp up
	c.Close()
	select {
	case r := <-resCh:
		if r.err != nil {
			t.Fatalf("closed comm should interrupt, not error: %v", r.err)
		}
		if r.res == nil {
			t.Fatal("nil result")
		}
		if r.res.Optimal {
			t.Fatalf("run on 2^40 values cannot be optimal after 20ms: %+v", r.res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not exit within 10s of the comm closing")
	}
}
