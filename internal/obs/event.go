// Package obs is the observability layer of the solver stack: a
// structured event tracer, a metrics registry, and the trace codec the
// cmd/ugtrace analysis tool reads. The design constraint throughout is
// determinism safety — the paper's parallel framework supports replayable
// runs, so nothing in this package may feed wall-clock time back into
// solver decisions. Events carry a *logical* timestamp (the coordinator
// loop tick, or the node count in a sequential solve) as their ordering
// key; wall time is recorded as an informational payload field only.
//
// Everything is nil-safe: a nil *Tracer, *Registry, *Counter, *Gauge or
// *Histogram is the disabled implementation, and every operation on it
// is an allocation-free no-op. Instrumented code therefore carries plain
// pointer fields that default to "off" with zero configuration.
package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind names one event type. The set mirrors the signals the paper's
// tables and figures are computed from; cmd/ugtrace groups events by
// these strings, so additions are backward compatible but renames are a
// trace-schema break.
const (
	// KindRunStart opens a trace: Open = number of ParaSolvers.
	KindRunStart = "run.start"
	// KindRunEnd closes a trace: Dual/Primal = final bounds, Nodes = total.
	KindRunEnd = "run.end"
	// KindRunStop marks the coordinator beginning a limit-triggered stop.
	KindRunStop = "run.stop"
	// KindDispatch is a subproblem transfer LC → ParaSolver: Rank, Sub,
	// Dual = subproblem bound, Str = settings name during racing.
	KindDispatch = "dispatch"
	// KindOutcome is a ParaSolver finishing a subproblem: Rank, Nodes,
	// Open = open nodes abandoned, Str = "completed"/"interrupted".
	KindOutcome = "outcome"
	// KindStatus is a periodic ParaSolver status report as received by the
	// coordinator: Rank, Dual = local bound, Open, Nodes.
	KindStatus = "status"
	// KindIncumbent is a new global incumbent: Rank = finder, Primal.
	KindIncumbent = "incumbent"
	// KindDualBound is a change of the global dual bound: Dual, Primal.
	KindDualBound = "dual"
	// KindCollectStart/Stop bracket a collect-mode interval: Open = pool depth.
	KindCollectStart = "collect.start"
	// KindCollectStop ends a collect-mode interval: Open = pool depth.
	KindCollectStop = "collect.stop"
	// KindCollectNode is a node shipped ParaSolver → LC: Rank, Sub, Dual.
	KindCollectNode = "collect.node"
	// KindRacingStart opens the racing ramp-up: Open = ladder length.
	KindRacingStart = "racing.start"
	// KindRacingWinner declares the racing winner: Rank, Sub = settings
	// index, Str = settings name.
	KindRacingWinner = "racing.winner"
	// KindRacingDone marks the end of the racing wind-up phase.
	KindRacingDone = "racing.done"
	// KindCkptSave is a checkpoint write: Open = primitive nodes saved,
	// Str = error text when the save failed.
	KindCkptSave = "ckpt.save"
	// KindCkptRestore is a restart from a checkpoint: Open = nodes restored.
	KindCkptRestore = "ckpt.restore"
	// KindSolverBusy marks a ParaSolver leaving the idle set: Rank.
	KindSolverBusy = "solver.busy"
	// KindSolverIdle marks a ParaSolver entering the idle set: Rank.
	KindSolverIdle = "solver.idle"
	// KindWorkerShip is emitted ParaSolver-side when a node is shipped:
	// Rank, Dual = shipped node's bound, Open = its depth.
	KindWorkerShip = "worker.ship"
	// KindWorkerSol is emitted ParaSolver-side on reporting a solution:
	// Rank, Primal.
	KindWorkerSol = "worker.sol"
	// KindScipNode is a sequential-solver node event (tick = node count):
	// Sub = node ID, Dual = node bound, Open = open nodes after the pop.
	KindScipNode = "scip.node"
	// KindCommConnect is a distributed-transport peer joining the roster:
	// Rank = peer, Open = roster size, Str = remote address.
	KindCommConnect = "comm.connect"
	// KindCommRetry is a failed dial attempt being retried: Rank = dialing
	// worker, Open = attempt number, Str = error text.
	KindCommRetry = "comm.retry"
	// KindCommHeartbeat is a heartbeat frame sent to a peer: Rank = peer.
	KindCommHeartbeat = "comm.heartbeat"
	// KindCommPeerDown is an ungraceful loss of a remote peer: Rank = lost
	// rank, Str = cause.
	KindCommPeerDown = "comm.peerdown"
	// KindWatchdogStall is the stall watchdog firing after a quiet window
	// with no progress events: Rank = the rank quiet longest, Open =
	// number of ranks being tracked, Str = per-rank last-activity ticks
	// ("rank1@42 rank2@37"). Emitted only when -watchdog is enabled, so
	// deterministic-replay traces never contain it.
	KindWatchdogStall = "watchdog.stall"
)

// Event is one trace record. Seq is a monotonic sequence number assigned
// by the tracer; Tick is the logical timestamp (coordinator loop tick or
// sequential node count) — the only time axis solver-side analyses may
// use. Wall is seconds since the tracer was created, recorded for human
// consumption only: two runs of the same seed are expected to agree on
// every field except Wall.
// In a distributed run every endpoint additionally stamps events with a
// Lamport clock (Clock) and its own rank (Orig); see Tracer.EnableCausal.
// Both are zero — and omitted from the JSON encoding — in single-process
// runs, so enabling the distributed transport never perturbs the
// bit-identical-trace property of sequential and ChannelComm solves.
type Event struct {
	Seq    int64   `json:"seq"`
	Tick   int64   `json:"tick"`
	Wall   float64 `json:"wall"`
	Kind   string  `json:"kind"`
	Rank   int     `json:"rank"`
	Sub    int64   `json:"sub"`
	Dual   float64 `json:"dual"`
	Primal float64 `json:"primal"`
	Open   int     `json:"open"`
	Nodes  int64   `json:"nodes"`
	Clock  int64   `json:"clock,omitempty"`
	Orig   int     `json:"orig,omitempty"`
	Str    string  `json:"str,omitempty"`
}

// infEncoded is the JSON stand-in for ±Inf bounds: encoding/json cannot
// represent infinities, so the codec clamps to ±infEncoded and the
// decoder maps anything at or beyond it back to ±Inf.
const infEncoded = 1e308

// encodeFloat clamps non-finite values into JSON-representable range.
func encodeFloat(x float64) float64 {
	if math.IsInf(x, 1) || x > infEncoded {
		return infEncoded
	}
	if math.IsInf(x, -1) || x < -infEncoded {
		return -infEncoded
	}
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// decodeFloat undoes encodeFloat's clamping.
func decodeFloat(x float64) float64 {
	if x >= infEncoded {
		return math.Inf(1)
	}
	if x <= -infEncoded {
		return math.Inf(-1)
	}
	return x
}

// AppendJSON appends the event as one JSON object (no trailing newline)
// to buf. The field order is fixed so identical events encode to
// identical bytes — the property the trace-determinism tests compare.
func (e Event) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, e.Seq, 10)
	buf = append(buf, `,"tick":`...)
	buf = strconv.AppendInt(buf, e.Tick, 10)
	buf = append(buf, `,"wall":`...)
	buf = strconv.AppendFloat(buf, encodeFloat(e.Wall), 'g', -1, 64)
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, e.Kind)
	buf = append(buf, `,"rank":`...)
	buf = strconv.AppendInt(buf, int64(e.Rank), 10)
	buf = append(buf, `,"sub":`...)
	buf = strconv.AppendInt(buf, e.Sub, 10)
	buf = append(buf, `,"dual":`...)
	buf = strconv.AppendFloat(buf, encodeFloat(e.Dual), 'g', -1, 64)
	buf = append(buf, `,"primal":`...)
	buf = strconv.AppendFloat(buf, encodeFloat(e.Primal), 'g', -1, 64)
	buf = append(buf, `,"open":`...)
	buf = strconv.AppendInt(buf, int64(e.Open), 10)
	buf = append(buf, `,"nodes":`...)
	buf = strconv.AppendInt(buf, e.Nodes, 10)
	if e.Clock != 0 {
		buf = append(buf, `,"clock":`...)
		buf = strconv.AppendInt(buf, e.Clock, 10)
	}
	if e.Orig != 0 {
		buf = append(buf, `,"orig":`...)
		buf = strconv.AppendInt(buf, int64(e.Orig), 10)
	}
	if e.Str != "" {
		buf = append(buf, `,"str":`...)
		buf = appendJSONString(buf, e.Str)
	}
	buf = append(buf, '}')
	return buf
}

// appendJSONString appends s as a JSON string literal. Kinds and labels
// are ASCII identifiers in practice; anything else is escaped minimally.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, fmt.Sprintf(`\u%04x`, c)...)
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// ParseLine decodes one JSONL trace line produced by AppendJSON. It
// undoes the encoder's ±Inf clamping on every float field and rejects
// NaN, which AppendJSON never writes, so every event it returns encodes
// back to a line that decodes to the same event.
func ParseLine(line []byte) (Event, error) {
	var e Event
	if err := unmarshalEvent(line, &e); err != nil {
		return Event{}, err
	}
	if math.IsNaN(e.Wall) || math.IsNaN(e.Dual) || math.IsNaN(e.Primal) {
		return Event{}, fmt.Errorf("obs: NaN in %q", line)
	}
	e.Wall = decodeFloat(e.Wall)
	e.Dual = decodeFloat(e.Dual)
	e.Primal = decodeFloat(e.Primal)
	return e, nil
}

// unmarshalEvent is a small hand-rolled object scanner for the fixed
// trace schema: it avoids importing encoding/json in the hot validation
// path and rejects syntactically malformed lines loudly.
func unmarshalEvent(line []byte, e *Event) error {
	s := strings.TrimSpace(string(line))
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return fmt.Errorf("obs: not a JSON object: %q", s)
	}
	body := s[1 : len(s)-1]
	for len(body) > 0 {
		key, rest, err := scanJSONString(body)
		if err != nil {
			return fmt.Errorf("obs: bad key in %q: %w", s, err)
		}
		if len(rest) == 0 || rest[0] != ':' {
			return fmt.Errorf("obs: missing ':' after %q", key)
		}
		rest = rest[1:]
		var raw string
		if len(rest) > 0 && rest[0] == '"' {
			var err error
			raw, rest, err = scanJSONString(rest)
			if err != nil {
				return fmt.Errorf("obs: bad string value for %q: %w", key, err)
			}
		} else {
			end := strings.IndexByte(rest, ',')
			if end < 0 {
				end = len(rest)
			}
			raw, rest = rest[:end], rest[end:]
		}
		if err := setEventField(e, key, raw); err != nil {
			return err
		}
		if len(rest) > 0 {
			if rest[0] != ',' {
				return fmt.Errorf("obs: expected ',' in %q", s)
			}
			rest = rest[1:]
		}
		body = rest
	}
	return nil
}

// scanJSONString reads a leading JSON string literal and returns its
// unescaped value plus the remaining input.
func scanJSONString(s string) (val, rest string, err error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected string, got %q", s)
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch c {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("truncated escape")
			}
			i++
			switch s[i] {
			case '"', '\\', '/':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'u':
				if i+4 >= len(s) {
					return "", "", fmt.Errorf("truncated \\u escape")
				}
				n, err := strconv.ParseUint(s[i+1:i+5], 16, 32)
				if err != nil {
					return "", "", fmt.Errorf("bad \\u escape: %w", err)
				}
				b.WriteRune(rune(n))
				i += 4
			default:
				return "", "", fmt.Errorf("unsupported escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated string")
}

// setEventField assigns one decoded key/value pair. Unknown keys are
// errors: the trace schema is closed, and a typo'd field name should
// fail validation rather than silently decode to zero.
func setEventField(e *Event, key, raw string) error {
	parseI := func() (int64, error) { return strconv.ParseInt(raw, 10, 64) }
	parseF := func() (float64, error) { return strconv.ParseFloat(raw, 64) }
	var err error
	switch key {
	case "seq":
		e.Seq, err = parseI()
	case "tick":
		e.Tick, err = parseI()
	case "wall":
		e.Wall, err = parseF()
	case "kind":
		e.Kind = raw
	case "rank":
		var v int64
		v, err = parseI()
		e.Rank = int(v)
	case "sub":
		e.Sub, err = parseI()
	case "dual":
		e.Dual, err = parseF()
	case "primal":
		e.Primal, err = parseF()
	case "open":
		var v int64
		v, err = parseI()
		e.Open = int(v)
	case "nodes":
		e.Nodes, err = parseI()
	case "clock":
		e.Clock, err = parseI()
	case "orig":
		var v int64
		v, err = parseI()
		e.Orig = int(v)
	case "str":
		e.Str = raw
	default:
		return fmt.Errorf("obs: unknown trace field %q", key)
	}
	if err != nil {
		return fmt.Errorf("obs: field %q: %w", key, err)
	}
	return nil
}
