package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// progressKinds are the event kinds the watchdog treats as evidence the
// solve is moving: work dispatch and completion, periodic worker status,
// incumbent improvements, node shipping, and sequential node pops. Pure
// transport chatter (heartbeats) deliberately does not count — a roster
// that is alive but doing no work is exactly the stall to detect.
var progressKinds = []string{
	KindDispatch, KindOutcome, KindStatus, KindIncumbent,
	KindWorkerShip, KindWorkerSol, KindCollectNode, KindScipNode,
}

// WatchdogConfig configures a stall watchdog.
type WatchdogConfig struct {
	// Bus supplies the live event stream the watchdog observes. Required.
	Bus *Bus
	// Tracer receives the watchdog.stall events so they land in the
	// trace file (and, through the bus, reach live subscribers). May be
	// nil — stall events are then published to bus subscribers only.
	Tracer *Tracer
	// Quiet is the window without any progress event after which the
	// watchdog fires. Required (> 0).
	Quiet time.Duration
	// OnStall, when non-nil, is called after each firing with the emitted
	// event — a test hook.
	OnStall func(Event)
	// Capture, when armed, writes a forensics bundle — goroutine dump
	// included — on the first firing of each stall episode (reason
	// "stall", detail naming the stalest rank). Re-fires of a
	// persisting stall keep the periodic event trail but write no
	// further bundles — a long hang must not fill the disk — until
	// progress resumes and a new episode begins. The stall event is
	// emitted through the tracer before the bundle is written, so it is
	// already in the recorder ring and appears as the final event of
	// the bundle's tail.
	Capture *Capturer
}

// Watchdog watches the live event bus for progress and raises
// `watchdog.stall` when a quiet window passes without any. It is pure
// observation layered on the bus: the solve path never blocks on it, it
// feeds nothing back into solver decisions, and it is off unless
// explicitly started (-watchdog), so deterministic-replay runs are
// untouched. Stalls do not stop the run — the watchdog's job is to make
// a wedged or straggling distributed solve *visible* (trace event, SSE
// frame, forensics bundle) while it is still running.
type Watchdog struct {
	cfg    WatchdogConfig
	cancel func()
	done   chan struct{}

	mu     sync.Mutex
	fires  int
	events <-chan Event
}

// StartWatchdog subscribes to the bus and begins watching. It returns
// nil (a safe no-op for Stop) when cfg.Bus is nil or cfg.Quiet <= 0.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Bus == nil || cfg.Quiet <= 0 {
		return nil
	}
	events, cancel := cfg.Bus.Subscribe(progressKinds...)
	w := &Watchdog{cfg: cfg, cancel: cancel, done: make(chan struct{}), events: events}
	go w.watch()
	return w
}

// Stop unsubscribes from the bus and waits for the watcher goroutine to
// exit. Safe on a nil watchdog and idempotent is not required — callers
// stop exactly once, when the solve ends.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.cancel()
	<-w.done
}

// Fires returns how many times the watchdog has fired.
func (w *Watchdog) Fires() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fires
}

// rankActivity is the last observed progress of one rank.
type rankActivity struct {
	tick int64
	wall time.Time
}

// watch is the watchdog loop: fold progress events into per-rank
// last-activity state, and on every poll tick check whether the global
// quiet window has elapsed. The poll period is a quarter of the window
// so a stall is detected within ~1.25 windows in the worst case. The
// window opens at the first observed progress event, not at start:
// presolve and rendezvous emit none, and a stall report that names no
// rank diagnoses nothing.
func (w *Watchdog) watch() {
	defer close(w.done)
	poll := w.cfg.Quiet / 4
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()

	last := map[int]rankActivity{}
	var lastAny, lastFire time.Time
	captured := false // one forensics bundle per stall episode
	for {
		select {
		case ev, ok := <-w.events:
			if !ok {
				return // unsubscribed (Stop) or bus closed
			}
			last[ev.Rank] = rankActivity{tick: ev.Tick, wall: time.Now()}
			lastAny = time.Now()
			captured = false // progress resumed: next stall is a new episode
		case <-ticker.C:
			now := time.Now()
			if lastAny.IsZero() || now.Sub(lastAny) < w.cfg.Quiet {
				continue
			}
			// Re-fire at most once per quiet window while the stall
			// persists, so a long hang leaves a periodic trail rather
			// than one event or a flood.
			if !lastFire.IsZero() && now.Sub(lastFire) < w.cfg.Quiet {
				continue
			}
			lastFire = now
			w.fire(last, now, !captured)
			captured = true
		}
	}
}

// fire emits one watchdog.stall event; firstOfEpisode gates the
// forensics bundle.
func (w *Watchdog) fire(last map[int]rankActivity, now time.Time, firstOfEpisode bool) {
	ranks := make([]int, 0, len(last))
	for r := range last {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var b strings.Builder
	staleRank, staleSince := 0, time.Duration(-1)
	for i, r := range ranks {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "rank%d@%d", r, last[r].tick)
		if since := now.Sub(last[r].wall); since > staleSince {
			staleRank, staleSince = r, since
		}
	}
	summary := b.String()
	ev := Event{Kind: KindWatchdogStall, Rank: staleRank, Open: len(ranks), Str: summary}
	if w.cfg.Tracer != nil {
		w.cfg.Tracer.Emit(ev)
	} else {
		w.cfg.Bus.Publish(ev)
	}
	if firstOfEpisode && w.cfg.Capture.Armed() {
		_, _ = w.cfg.Capture.WriteBundle("stall",
			fmt.Sprintf("stalest rank %d quiet %s; %s", staleRank, staleSince.Round(time.Millisecond), summary))
	}
	w.mu.Lock()
	w.fires++
	w.mu.Unlock()
	if w.cfg.OnStall != nil {
		w.cfg.OnStall(ev)
	}
}
