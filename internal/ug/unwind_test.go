package ug

import (
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestRunsUnwindEveryGoroutine pins, by behaviour, the invariant every
// ParaSolver goroutine must honour: when a run returns, everything it
// started (workers, the coordinator's helpers, comm pumps, the TCP
// endpoints of a distributed run) has exited. A leaked worker keeps the
// process alive and, in a distributed run, wedges rank teardown. The
// runs cover each way a search ends: completion over ChannelComm, a
// racing ramp-up that stops the losers, a time limit that interrupts
// busy workers, and a loopback-TCP solve.
func TestRunsUnwindEveryGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	fine := Config{StatusInterval: 1e-4, ShipInterval: 1e-4}
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"channelcomm", func() (*Result, error) {
			cfg := fine
			cfg.Workers = 3
			return Run(&fakeFactory{lo: 0, hi: 20000, chunk: 400}, cfg)
		}},
		{"racing", func() (*Result, error) {
			return Run(&fakeFactory{lo: 0, hi: 3_000_000, chunk: 50, settings: 3},
				Config{Workers: 3, RampUp: RampUpRacing, RacingTime: 0.02, TimeLimit: 0.2})
		}},
		{"timelimit", func() (*Result, error) {
			cfg := fine
			cfg.Workers, cfg.TimeLimit = 2, 0.05
			return Run(&fakeFactory{lo: 0, hi: 3_000_000, chunk: 200}, cfg)
		}},
		{"net", func() (*Result, error) {
			return runDistributed(t, &fakeFactory{lo: 0, hi: 20000, chunk: 400}, 2, fine, nil)
		}},
	}
	for _, r := range runs {
		if _, err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			var dump strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines still running 5s after the runs returned, baseline %d:\n%s",
				runtime.NumGoroutine(), base, dump.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
