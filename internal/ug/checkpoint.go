package ug

import (
	"encoding/gob"
	"fmt"
	"os"
)

// Checkpoint is the persisted state of a run: only the primitive nodes —
// subproblems that have no ancestor in the LoadCoordinator (the pool plus
// the roots of currently running subtrees) — and the incumbent. Saving
// only primitive nodes keeps checkpoint I/O small at the cost of
// regenerating worker-local subtrees after a restart, the trade-off the
// paper discusses (bip52u restarts begin with a handful of primitive
// nodes despite hundreds of thousands of open nodes at shutdown).
type Checkpoint struct {
	Pool      []Subproblem
	Incumbent *Solution
	DualBound float64
}

// saveCheckpoint writes the current primitive nodes atomically
// (write-to-temp then rename). Checkpointing is best-effort — a failed
// save must not abort the run — but failures are returned so the
// coordinator can count them in RunStats instead of silently restarting
// from a stale file.
func (co *coordinator) saveCheckpoint() error {
	ck := Checkpoint{DualBound: co.dualBound()}
	for _, sub := range co.pool {
		ck.Pool = append(ck.Pool, *sub)
	}
	// A running subproblem goes in once (during racing every rank holds
	// the same root), raised to the best bound its holders reported, as
	// requeue would return it.
	at := map[*Subproblem]int{}
	for _, r := range co.ranks {
		if r.sub == nil {
			continue
		}
		i, ok := at[r.sub]
		if !ok {
			i = len(ck.Pool)
			at[r.sub] = i
			ck.Pool = append(ck.Pool, *r.sub)
		}
		raiseBound(&ck.Pool[i], r.bound)
	}
	ck.Incumbent = co.incumbent
	tmp := co.cfg.CheckpointPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: create: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(&ck); err != nil {
		_ = f.Close()      // encode error is primary
		_ = os.Remove(tmp) // best-effort cleanup of the partial temp file
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	// Close before rename: a truncated checkpoint must never replace a
	// complete one.
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmp, co.cfg.CheckpointPath); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// loadCheckpoint restores a checkpoint file.
func loadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open checkpoint: %w", err)
	}
	defer f.Close()
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("decode checkpoint: %w", err)
	}
	return &ck, nil
}

// LoadCheckpointInfo exposes checkpoint contents for inspection by tools
// and the experiment harness (run-series tables).
func LoadCheckpointInfo(path string) (*Checkpoint, error) { return loadCheckpoint(path) }
