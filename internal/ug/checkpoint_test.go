package ug

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// ckCoordinator builds a minimal coordinator carrying exactly the
// state saveCheckpoint persists: pooled subproblems, roots of running
// subtrees, the incumbent, and the worker bounds feeding dualBound.
func ckCoordinator(path string) *coordinator {
	co := &coordinator{
		cfg: Config{CheckpointPath: path},
		pool: subHeap{
			{ID: 1, Depth: 2, Bound: 4.5, Payload: []byte("node-1")},
			{ID: 3, Depth: 5, Bound: 7.25, Payload: []byte("node-3")},
		},
		ranks:     make([]rankState, 3),
		active:    1,
		incumbent: &Solution{Obj: 11.5, Payload: []byte("best")},
	}
	co.ranks[2] = rankState{sub: &Subproblem{ID: 2, Depth: 1, Bound: 3.5, Payload: []byte("node-2")}, bound: 3.25}
	return co
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	co := ckCoordinator(path)
	if err := co.saveCheckpoint(); err != nil {
		t.Fatalf("saveCheckpoint: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after successful save (err=%v)", err)
	}

	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("loadCheckpoint: %v", err)
	}

	// Pool ∪ running, order-insensitive: the heap layout is not part of
	// the checkpoint contract.
	if len(ck.Pool) != 3 {
		t.Fatalf("restored %d primitive nodes, want 3", len(ck.Pool))
	}
	sort.Slice(ck.Pool, func(i, j int) bool { return ck.Pool[i].ID < ck.Pool[j].ID })
	want := []Subproblem{
		{ID: 1, Depth: 2, Bound: 4.5, Payload: []byte("node-1")},
		{ID: 2, Depth: 1, Bound: 3.5, Payload: []byte("node-2")},
		{ID: 3, Depth: 5, Bound: 7.25, Payload: []byte("node-3")},
	}
	for i, w := range want {
		g := ck.Pool[i]
		if g.ID != w.ID || g.Depth != w.Depth || g.Bound != w.Bound || string(g.Payload) != string(w.Payload) {
			t.Errorf("pool[%d] = %+v, want %+v", i, g, w)
		}
	}
	if ck.Incumbent == nil || ck.Incumbent.Obj != 11.5 || string(ck.Incumbent.Payload) != "best" {
		t.Errorf("incumbent = %+v, want Obj=11.5 Payload=best", ck.Incumbent)
	}
	// dualBound = min(pool bounds, reported worker bounds) = 3.25.
	if ck.DualBound != 3.25 {
		t.Errorf("DualBound = %v, want 3.25", ck.DualBound)
	}

	// LoadCheckpointInfo is the exported view over the same file.
	info, err := LoadCheckpointInfo(path)
	if err != nil {
		t.Fatalf("LoadCheckpointInfo: %v", err)
	}
	if len(info.Pool) != 3 || info.DualBound != 3.25 {
		t.Errorf("LoadCheckpointInfo = %d nodes, dual %v; want 3 nodes, dual 3.25",
			len(info.Pool), info.DualBound)
	}
}

func TestCheckpointOverwriteIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	co := ckCoordinator(path)
	if err := co.saveCheckpoint(); err != nil {
		t.Fatalf("first save: %v", err)
	}

	// Later save with fewer nodes must fully replace the earlier file.
	co.pool = subHeap{{ID: 9, Bound: 1.5, Payload: []byte("late")}}
	co.release(2)
	if err := co.saveCheckpoint(); err != nil {
		t.Fatalf("second save: %v", err)
	}
	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("loadCheckpoint: %v", err)
	}
	if len(ck.Pool) != 1 || ck.Pool[0].ID != 9 {
		t.Fatalf("stale checkpoint survived overwrite: %+v", ck.Pool)
	}
}

// TestCheckpointRacingRootOnce: during racing every racer holds the same
// root, dispatched at −Inf. The checkpoint holds it once, at the best
// bound a racer reported; a racer that never reported adds nothing.
func TestCheckpointRacingRootOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.ckpt")
	root := &Subproblem{ID: 1, Bound: math.Inf(-1), Payload: []byte("root")}
	co := &coordinator{cfg: Config{CheckpointPath: path}, ranks: make([]rankState, 4), active: 4}
	for i, b := range []float64{math.Inf(-1), 5, 7, 6} {
		co.ranks[i] = rankState{sub: root, bound: b}
	}
	if err := co.saveCheckpoint(); err != nil {
		t.Fatalf("saveCheckpoint: %v", err)
	}
	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("loadCheckpoint: %v", err)
	}
	if len(ck.Pool) != 1 || ck.Pool[0].ID != 1 || ck.Pool[0].Bound != 7 {
		t.Fatalf("pool = %+v, want the root once at bound 7", ck.Pool)
	}
	if !math.IsInf(root.Bound, -1) {
		t.Errorf("saving raised the running root's own bound to %v", root.Bound)
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	if _, err := loadCheckpoint(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("loadCheckpoint on a missing file should fail")
	}
}

func TestCheckpointCorruptedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("not a gob stream \x00\xff garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Fatal("loadCheckpoint on garbage bytes should fail")
	}

	// Truncated-but-valid-prefix corruption: take a real checkpoint and
	// chop it mid-stream.
	good := filepath.Join(t.TempDir(), "good.ckpt")
	co := ckCoordinator(good)
	if err := co.saveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 {
		t.Fatalf("checkpoint suspiciously small: %d bytes", len(data))
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Fatal("loadCheckpoint on a truncated file should fail")
	}
}

func TestCheckpointSaveError(t *testing.T) {
	// A checkpoint path in a directory that does not exist: Create fails
	// and saveCheckpoint must surface the error (the coordinator counts
	// these in RunStats.CheckpointErrors rather than aborting the run).
	co := ckCoordinator(filepath.Join(t.TempDir(), "no", "such", "dir", "run.ckpt"))
	if err := co.saveCheckpoint(); err == nil {
		t.Fatal("saveCheckpoint into a missing directory should fail")
	}
}
