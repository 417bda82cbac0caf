package obs

import "sort"

// This file is the machine-readable half of the trace schema: which
// event kinds exist (KnownKinds) and which payload fields each kind may
// carry (KindFields). cmd/ugtrace's validator and the tracekind static
// analyzer both read it, so there is exactly one list to keep current
// when an event kind is added.

// kindFields lists, per kind, the payload fields an emit site may set.
// Seq, Tick and Wall are stamped by the Tracer and Clock/Orig by the
// causal decorator, so none of them appear here: an emit site setting
// one is a schema violation. Setting a subset of the listed fields is
// fine (e.g. comm.peerdown with no Str on the synthetic coordinator-side
// event); setting a field outside the list means the emit site and the
// schema have drifted apart.
var kindFields = map[string][]string{
	KindRunStart:      {"Open"},
	KindRunEnd:        {"Dual", "Primal", "Nodes"},
	KindRunStop:       {"Open"},
	KindDispatch:      {"Rank", "Sub", "Dual", "Str"},
	KindOutcome:       {"Rank", "Nodes", "Open", "Str"},
	KindStatus:        {"Rank", "Dual", "Open", "Nodes"},
	KindIncumbent:     {"Rank", "Primal"},
	KindDualBound:     {"Dual", "Primal"},
	KindCollectStart:  {"Open"},
	KindCollectStop:   {"Open"},
	KindCollectNode:   {"Rank", "Sub", "Dual"},
	KindRacingStart:   {"Open"},
	KindRacingWinner:  {"Rank", "Sub", "Str"},
	KindRacingDone:    {"Open"},
	KindCkptSave:      {"Open", "Str"},
	KindCkptRestore:   {"Open", "Str"},
	KindSolverBusy:    {"Rank"},
	KindSolverIdle:    {"Rank"},
	KindWorkerShip:    {"Rank", "Dual", "Open"},
	KindWorkerSol:     {"Rank", "Primal"},
	KindScipNode:      {"Sub", "Dual", "Primal", "Open", "Nodes"},
	KindCommConnect:   {"Rank", "Open", "Str"},
	KindCommRetry:     {"Rank", "Open", "Str"},
	KindCommHeartbeat: {"Rank"},
	KindCommPeerDown:  {"Rank", "Str"},
	KindWatchdogStall: {"Rank", "Open", "Str"},
}

// KnownKind reports whether kind is part of the trace schema.
func KnownKind(kind string) bool {
	_, ok := kindFields[kind]
	return ok
}

// KnownKinds returns the closed set of event kinds, sorted. The slice is
// a fresh copy; callers may keep or mutate it.
func KnownKinds() []string {
	kinds := make([]string, 0, len(kindFields))
	for k := range kindFields {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// KindFields returns the payload fields emit sites may set for kind,
// sorted, or nil for an unknown kind. The slice is a fresh copy.
func KindFields(kind string) []string {
	fields, ok := kindFields[kind]
	if !ok {
		return nil
	}
	out := append([]string(nil), fields...)
	sort.Strings(out)
	return out
}

// KindAllowsField reports whether an emit site may set field on an
// event of the given kind. Unknown kinds allow nothing.
func KindAllowsField(kind, field string) bool {
	for _, f := range kindFields[kind] {
		if f == field {
			return true
		}
	}
	return false
}
