package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// ReadTrace decodes a JSONL trace stream into events, in file order.
// Decoding stops at the first malformed line. A final line that is not
// newline-terminated is reported as an error even when it parses: every
// sink ends each record with '\n', so a missing terminator means the
// writer died mid-record and the trace is truncated. The events decoded
// before the error are returned alongside it so callers can report how
// far the stream was readable.
func ReadTrace(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var out []Event
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return out, err
		}
		partial := err == io.EOF && len(raw) > 0
		trimmed := bytes.TrimSpace(raw)
		if len(trimmed) > 0 {
			line++
			if partial {
				return out, fmt.Errorf("obs: line %d: partial trailing record (%d bytes, no newline) — trace truncated mid-write", line, len(raw))
			}
			ev, perr := ParseLine(trimmed)
			if perr != nil {
				return out, fmt.Errorf("line %d: %w", line, perr)
			}
			out = append(out, ev)
		}
		if err == io.EOF {
			return out, nil
		}
	}
}

// WriteTrace writes events as JSONL, one newline-terminated record per
// event — the layout the tracer's file sink produces, so ReadTrace reads
// it back and the output is itself a valid ugtrace input.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, ev := range events {
		buf = ev.AppendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ValidateTrace checks the structural invariants every well-formed trace
// satisfies: known event kinds, strictly increasing sequence numbers
// starting at 0, non-decreasing logical ticks, a run.start (or
// scip.node, or — in a distributed run, where rendezvous precedes the
// coordination loop — comm.connect/comm.retry) opener, balanced
// collect-mode brackets, and dispatch/outcome pairing per rank (an
// outcome may only arrive from a rank with a subproblem in flight; an
// unmatched trailing dispatch is legal — it is what a worker-death or
// limit-stop trace looks like). It returns the first violation, or nil.
// This is the check CI's trace smoke test runs.
func ValidateTrace(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("obs: empty trace")
	}
	collectDepth := 0
	inflight := map[int]int{} // rank → dispatched-but-unresolved subproblems
	for i, ev := range events {
		if !KnownKind(ev.Kind) {
			return fmt.Errorf("obs: event %d: unknown kind %q", i, ev.Kind)
		}
		if ev.Seq != int64(i) {
			return fmt.Errorf("obs: event %d: seq %d out of order (want %d)", i, ev.Seq, i)
		}
		if i > 0 && ev.Tick < events[i-1].Tick {
			return fmt.Errorf("obs: event %d: tick %d < previous tick %d", i, ev.Tick, events[i-1].Tick)
		}
		switch ev.Kind {
		case KindCollectStart:
			collectDepth++
			if collectDepth > 1 {
				return fmt.Errorf("obs: event %d: nested collect.start", i)
			}
		case KindCollectStop:
			collectDepth--
			if collectDepth < 0 {
				return fmt.Errorf("obs: event %d: collect.stop without collect.start", i)
			}
		case KindDispatch:
			inflight[ev.Rank]++
		case KindOutcome:
			if inflight[ev.Rank] == 0 {
				return fmt.Errorf("obs: event %d: outcome from rank %d without a dispatch in flight", i, ev.Rank)
			}
			inflight[ev.Rank]--
		}
	}
	switch events[0].Kind {
	case KindRunStart, KindScipNode, KindCommConnect, KindCommRetry:
	default:
		return fmt.Errorf("obs: trace starts with %q, want %q", events[0].Kind, KindRunStart)
	}
	return nil
}
