package sim

import (
	"repro/internal/core"
	"repro/internal/policy"
)

// simRefs is the replay's ref catalog (DESIGN.md §15): the same pure
// policy.RefTable the manager's ref plane holds, one per Replay
// whatever the shard count, driven at the same points — ownership
// transfer on by-ref completions (NoteRefResult), resolves at ref-stage
// execution (PlanResolve), holder retraction plus a fresh resolve on
// failed fetches (PlanRestage), rehoming on owner death (PlanRehome) —
// and recording into its own recorder, so the global ref decision
// stream stays a separate trace compared against Manager.RefDecisions
// line for line.
//
// The sequencing is the table's; what is left here is what the manager
// keeps in refplane.go minus the transport. The manager's spill/adopt
// messages (MsgSpillObject/MsgOwnObject) have no view or table effect —
// the catalog re-tiers at decision time — so the replay drops them.
type simRefs struct {
	tab *policy.RefTable
	rec *policy.Recorder
}

func newSimRefs(ownedBytesCap int64) *simRefs {
	return &simRefs{tab: policy.NewRefTable(ownedBytesCap), rec: &policy.Recorder{}}
}

// spec rebuilds the ref's input binding from the catalog, so both
// engines plan over identical FileSpecs. The ref must exist: the
// harness only submits consumers for refs already created.
func (r *simRefs) spec(id string) core.FileSpec {
	ref := r.tab.Get(id)
	if ref == nil {
		panic("sim: ref input " + id + " is not in the replay's ref catalog")
	}
	return core.RefSpec(&core.ObjectRef{ID: ref.ID, Name: ref.Name, Size: ref.Size})
}

// stage plans and executes one proxy-object copy onto dst in view v —
// the manager's execResolveLocked: a first resolve at ref-stage
// execution, or (failed) the recovery of a fetch that failed against
// the whole holder set. catalog is always false: the replay's manager
// never holds by-ref bytes, so ResolveDirect cannot arise. Peer and
// shared fetches mark the in-flight copy (the ack plumbing's record);
// ready and lost stage nothing — a lost ref's dispatch proceeds and
// fails retryably on the worker. A resolved peer source is always live
// in the synchronous replay (rehome retracts a dead owner's records
// before any later resolve), so the manager's dead-source fallback
// never fires.
func (r *simRefs) stage(v *policy.ClusterView, dst *policy.WorkerView, id string, failed bool) {
	var d policy.ResolveDecision
	if failed {
		d, _, _ = r.tab.PlanRestage(dst.ID, id, false, r.rec)
	} else {
		d = r.tab.PlanResolve(dst.ID, id, false, r.rec)
	}
	if d.Mode == policy.ResolvePeer || d.Mode == policy.ResolveShared {
		v.NotePending(dst, id)
	}
}
