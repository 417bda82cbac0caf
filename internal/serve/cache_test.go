package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scip"
)

func keyOf(t *testing.T, sp Spec) string {
	t.Helper()
	key, _, err := buildApp(&sp)
	if err != nil {
		t.Fatalf("buildApp(%+v): %v", sp, err)
	}
	return key
}

func TestCacheKeyStability(t *testing.T) {
	// Identical specs hash identically, across every instance source.
	same := [][2]Spec{
		{{Kind: "stp", STP: tinySTP}, {Kind: "stp", STP: tinySTP}},
		{{Kind: "stp", Instance: "cc3-4p"}, {Kind: "stp", Instance: "cc3-4p"}},
		{{Kind: "stp", Gen: &GenSpec{Family: "cc", D: 3, Seed: 7}}, {Kind: "stp", Gen: &GenSpec{Family: "cc", D: 3, Seed: 7}}},
		{{Kind: "misdp", Family: "mkp", N: 6}, {Kind: "misdp", Family: "mkp", N: 6}},
	}
	for _, pair := range same {
		if a, b := keyOf(t, pair[0]), keyOf(t, pair[1]); a != b {
			t.Errorf("same instance hashed differently: %q vs %q (%+v)", a, b, pair[0])
		}
	}

	// Solve-shape fields must not perturb the key: presolve depends only
	// on the instance, so differently-shaped submissions share an entry.
	shaped := Spec{Kind: "misdp", Family: "mkp", N: 6, Workers: 8, Racing: true, Mode: "lp", TimeLimitSec: 5}
	if a, b := keyOf(t, Spec{Kind: "misdp", Family: "mkp", N: 6}), keyOf(t, shaped); a != b {
		t.Errorf("solve-shape fields changed the cache key: %q vs %q", a, b)
	}

	// Distinct instances must not collide.
	distinct := []Spec{
		{Kind: "stp", STP: tinySTP},
		{Kind: "stp", STP: tinySTP + "# trailing comment\n"}, // content-hash, not semantic
		{Kind: "stp", Instance: "cc3-4p"},
		{Kind: "stp", Gen: &GenSpec{Family: "cc", D: 3, Seed: 7}},
		{Kind: "stp", Gen: &GenSpec{Family: "cc", D: 3, Seed: 8}},
		{Kind: "misdp", Family: "mkp", N: 6},
		{Kind: "misdp", Family: "mkp", N: 7},
		{Kind: "misdp", Family: "cls", N: 6},
	}
	seen := map[string]int{}
	for i, sp := range distinct {
		k := keyOf(t, sp)
		if prev, dup := seen[k]; dup {
			t.Errorf("specs %d and %d collide on key %q", prev, i, k)
		}
		seen[k] = i
	}
}

// TestCacheKeysArePinned holds the key of every spec above (and of each
// generated family with its fields omitted) to the literal value it had
// before instance building moved behind puc.Generate and
// testsets.ByFamily: a deployed cache, or a client comparing keys across
// versions, must not see them move.
func TestCacheKeysArePinned(t *testing.T) {
	for _, tc := range []struct {
		sp   Spec
		want string
	}{
		{Spec{Kind: "stp", STP: tinySTP}, "stp:33600be34518aa72b573610c31e2c129"},
		{Spec{Kind: "stp", STP: tinySTP + "# trailing comment\n"}, "stp:14c8dc19feeec3d7bd53a9e08c0916ed"},
		{Spec{Kind: "stp", Instance: "cc3-4p"}, "stp:8b2ca2183de0da90a573029945bfe582"},
		{Spec{Kind: "stp", Gen: &GenSpec{Family: "cc", D: 3, Seed: 7}}, "stp:396642764798854d3045246eb2102090"},
		{Spec{Kind: "stp", Gen: &GenSpec{Family: "cc", D: 3, Seed: 8}}, "stp:ff67569b01b414041bb0fb8ee23a0410"},
		{Spec{Kind: "stp", Gen: &GenSpec{Family: "hc", D: 4}}, "stp:10a90fbe3860202740b1f0460ff94d04"},
		{Spec{Kind: "stp", Gen: &GenSpec{Family: "hc", D: 4, Terminals: 5, Perturbed: true}}, "stp:188ab5c3248604dbe549b474898f44b2"},
		{Spec{Kind: "stp", Gen: &GenSpec{Family: "bip"}}, "stp:b62f5ca7e4b96d1beebbf019adf68f78"},
		{Spec{Kind: "stp", Gen: &GenSpec{Family: "bip", Terminals: 8, Steiner: 20, Deg: 2, Seed: 3}}, "stp:9e5245ceca3cb631e4a276f0fb0a0cc2"},
		{Spec{Kind: "misdp", Family: "mkp", N: 6}, "misdp:02f2015d84e958dedc4566cb20780dcc"},
		{Spec{Kind: "misdp", Family: "mkp", N: 7}, "misdp:0a554adc296e61684c03a27758db0432"},
		{Spec{Kind: "misdp", Family: "cls", N: 6}, "misdp:80d6bcafa7b43a61b7c2deb4e5165182"},
		{Spec{Kind: "misdp", Family: "ttd"}, "misdp:d8c95c21e2e824339a01a117dc00b772"},
		{Spec{Kind: "misdp", Family: "cls"}, "misdp:30385789f4b6388c668c7a7c18cfbcc8"},
		{Spec{Kind: "misdp", Family: "mkp"}, "misdp:4631cb3c64937030e64e1025e974ee5d"},
		{Spec{Kind: "misdp", Family: "mkp", N: 8, K: 4, Seed: 2}, "misdp:98a1b7425f2c62567fd090583eb2f654"},
	} {
		if err := tc.sp.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", tc.sp, err)
		}
		if got := keyOf(t, tc.sp); got != tc.want {
			t.Errorf("key of %+v = %q, pinned %q", tc.sp, got, tc.want)
		}
	}
}

// fixed returns a presolve func yielding a fresh one-var model.
func fixed(offset float64) func() (*scip.Prob, float64, error) {
	return func() (*scip.Prob, float64, error) {
		p := &scip.Prob{}
		p.AddVar("x", 0, 1, 1, scip.Binary)
		return p, offset, nil
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewPresolveCache(250, nil)
	c.sizeOf = func(*scip.Prob) int64 { return 100 }
	never := make(chan struct{})

	get := func(key string) (*scip.Prob, bool) {
		t.Helper()
		p, _, hit, err := c.Get(never, key, fixed(0))
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		return p, hit
	}

	pa, _ := get("a")
	get("b")
	if n, bytes := c.Len(), c.Bytes(); n != 2 || bytes != 200 {
		t.Fatalf("after a,b: len=%d bytes=%d, want 2/200", n, bytes)
	}

	// Touch a so b becomes the LRU tail.
	if p, hit := get("a"); !hit || p != pa {
		t.Fatal("re-Get(a) should hit and return the cached pointer")
	}

	// Inserting c exceeds the 250-byte budget: b (least recent) evicts.
	get("c")
	if n, bytes := c.Len(), c.Bytes(); n != 2 || bytes != 200 {
		t.Fatalf("after eviction: len=%d bytes=%d, want 2/200", n, bytes)
	}
	if _, hit := get("a"); !hit {
		t.Error("a was touched and must survive the eviction")
	}
	runs := c.started
	if _, hit := get("b"); hit {
		t.Error("b was evicted; re-Get must re-presolve")
	}
	if c.started != runs+1 {
		t.Errorf("re-presolve count: started %d -> %d, want +1", runs, c.started)
	}
}

func TestCacheOversizedEntryStays(t *testing.T) {
	c := NewPresolveCache(50, nil)
	c.sizeOf = func(*scip.Prob) int64 { return 100 }
	never := make(chan struct{})
	if _, _, _, err := c.Get(never, "big", fixed(0)); err != nil {
		t.Fatal(err)
	}
	// A single entry over budget is kept: a cache of one beats none.
	if n := c.Len(); n != 1 {
		t.Fatalf("oversized sole entry evicted (len=%d)", n)
	}
	if _, _, hit, _ := c.Get(never, "big", nil); !hit {
		t.Error("oversized sole entry must still serve hits")
	}
}

func TestCacheSingleflightStorm(t *testing.T) {
	c := NewPresolveCache(0, nil)
	never := make(chan struct{})
	var calls atomic.Int64
	presolve := func() (*scip.Prob, float64, error) {
		calls.Add(1)
		time.Sleep(30 * time.Millisecond) // widen the race window
		return fixed(1.5)()
	}

	const n = 32
	var (
		wg     sync.WaitGroup
		probs  [n]*scip.Prob
		hits   [n]bool
		offs   [n]float64
		errsAt [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			probs[i], offs[i], hits[i], errsAt[i] = c.Get(never, "storm", presolve)
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("presolve ran %d times under the storm, want exactly 1 (singleflight)", got)
	}
	if c.started != 1 {
		t.Fatalf("cache recorded %d presolve starts, want 1", c.started)
	}
	misses := 0
	for i := 0; i < n; i++ {
		if errsAt[i] != nil {
			t.Fatalf("caller %d: %v", i, errsAt[i])
		}
		if probs[i] != probs[0] {
			t.Fatalf("caller %d got a different *scip.Prob pointer", i)
		}
		if offs[i] != 1.5 {
			t.Fatalf("caller %d offset = %v, want 1.5", i, offs[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers reported a miss, want exactly the initiator", misses)
	}
}

func TestCacheErrorRetries(t *testing.T) {
	c := NewPresolveCache(0, nil)
	never := make(chan struct{})
	boom := errors.New("reduction exploded")
	if _, _, _, err := c.Get(never, "k", func() (*scip.Prob, float64, error) { return nil, 0, boom }); err != boom {
		t.Fatalf("failing presolve: err = %v, want %v", err, boom)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("failed entry cached (len=%d); failures must not poison the key", n)
	}
	p, _, hit, err := c.Get(never, "k", fixed(0))
	if err != nil || hit || p == nil {
		t.Fatalf("retry after failure: p=%v hit=%v err=%v, want fresh presolve", p, hit, err)
	}
}

func TestCacheStopAbandonsWaitNotWork(t *testing.T) {
	c := NewPresolveCache(0, nil)
	release := make(chan struct{})
	stopped := make(chan struct{})
	close(stopped)

	if _, _, _, err := c.Get(stopped, "slow", func() (*scip.Prob, float64, error) {
		<-release
		return fixed(0)()
	}); err != errStopped {
		t.Fatalf("Get with fired stop = %v, want errStopped", err)
	}

	// The work was not killed: release it and the entry becomes ready.
	close(release)
	never := make(chan struct{})
	p, _, hit, err := c.Get(never, "slow", nil)
	if err != nil || !hit || p == nil {
		t.Fatalf("after release: p=%v hit=%v err=%v, want ready cached entry", p, hit, err)
	}
}
