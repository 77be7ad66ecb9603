package policy

import (
	"repro/internal/core"
)

// Batched decision entry points (DESIGN.md §12): one call plans K
// placements instead of one, so a driver's lock acquisition and pass
// setup amortize over the whole batch. The contract is strict
// sequential equivalence — PlanTaskBatchInto and PlaceReadyBatchInto
// return exactly the decision sequence the unbatched calls would
// produce if the driver executed each placement before planning the
// next.
//
// Internally each planned placement's view effects (resource
// commitment, in-flight copies, source transfer slots, manager sends,
// free ready slots) are applied to the live view while the rest of the
// batch is planned, then undone in reverse before returning. The view
// is observably unchanged — every count is what it was and the ready
// index gives the same answers, though its members may sit in a
// different valid heap arrangement; the driver executes the returned
// placements in order, re-applying the same effects for real, and
// lands on the identical end state.

// TaskReq is one task placement request in a batch.
type TaskReq struct {
	Key    string
	Res    core.Resources
	Inputs []core.FileSpec
	// Avoid is the avoid-placement preference: planning first excludes
	// this worker, then falls back to anywhere (the avoided worker
	// beats starving) — the same two-stage rule both engines' unbatched
	// paths apply.
	Avoid string
	// Tenant names the submitting tenant (empty for single-tenant
	// work). Placement itself is tenant-neutral — fairness is enforced
	// at the submission plane (tenant.go), not by skewing worker choice
	// — but the identity rides the request so tenant-aware placement
	// policies can read it without another plumbing pass.
	Tenant string
}

// PlanTaskBatchInto plans a placement for every request, in order,
// appending to dst (which may be nil or a recycled scratch slice
// truncated to zero; the returned slice is valid until the caller
// reuses dst). The appended decisions are index-aligned with reqs: a
// zero Worker with Blocked set means "wait for those objects", a zero
// Worker with no Blocked means no candidate fits now — exactly
// PlanTask's contract. The view is unchanged on return.
func (v *ClusterView) PlanTaskBatchInto(dst []PlaceTask, reqs []TaskReq, f Filter) []PlaceTask {
	undo := v.undoScratch[:0]
	for _, r := range reqs {
		d := v.PlanTask(r.Key, r.Res, r.Inputs, andFilters(Excluding(r.Avoid), f))
		if d.Worker == nil && r.Avoid != "" {
			d = v.PlanTask(r.Key, r.Res, r.Inputs, f)
		}
		dst = append(dst, d)
		if d.Worker != nil {
			undo = v.applyPlacement(undo, d.Worker, r.Res, d.Stages)
		}
	}
	v.revert(undo)
	v.undoScratch = undo[:0]
	return dst
}

// PlaceReadyBatchInto picks ready instances for up to k invocations of
// lib, in order, stopping at the first "no ready capacity" — the
// skip-and-stop rule of a library queue pass (every queued invocation
// of one library faces the same cluster state) — appending to dst as
// PlanTaskBatchInto does. The view is unchanged on return.
func (v *ClusterView) PlaceReadyBatchInto(dst []PlaceInvocation, lib string, k int, f Filter) []PlaceInvocation {
	start := len(dst)
	for i := 0; i < k; i++ {
		d := v.PlaceReady(lib, f)
		if d.Worker == nil {
			break
		}
		// The overlay takes one of the candidate's free ready slots, which
		// re-seats it in the ready index (or drops it, at zero).
		v.SetFreeReady(d.Worker, d.Lib, d.Lib.FreeReady-1)
		dst = append(dst, d)
	}
	// The decisions themselves are the undo log: hand each slot back,
	// last taken first.
	for i := len(dst) - 1; i >= start; i-- {
		v.SetFreeReady(dst[i].Worker, dst[i].Lib, dst[i].Lib.FreeReady+1)
	}
	return dst
}

// undoOp records one reversible overlay effect. Exactly one field is
// set.
type undoOp struct {
	commit    *WorkerView // undo: Commit.Sub(res)
	res       core.Resources
	pending   *WorkerView // undo: ClearPending(pending, obj)
	obj       string
	transfers *WorkerView // undo: TransfersOut--
	mgrSend   bool        // undo: ManagerSends--
}

// applyPlacement applies one planned task placement's view effects —
// the commitment and staging bookkeeping the executing driver will
// perform — appending their inverses to undo.
func (v *ClusterView) applyPlacement(undo []undoOp, w *WorkerView, res core.Resources, stages []StageFile) []undoOp {
	w.Commit = w.Commit.Add(res)
	undo = append(undo, undoOp{commit: w, res: res})
	for _, sf := range stages {
		switch sf.Mode {
		case StagePeer:
			// PlanStage only stages objects the destination neither holds
			// nor awaits, so NotePending always inserts and ClearPending
			// is its exact inverse.
			v.NotePending(sf.Dst, sf.Object)
			undo = append(undo, undoOp{pending: sf.Dst, obj: sf.Object})
			sf.Src.TransfersOut++
			undo = append(undo, undoOp{transfers: sf.Src})
		case StageDirect:
			v.NotePending(sf.Dst, sf.Object)
			undo = append(undo, undoOp{pending: sf.Dst, obj: sf.Object})
			v.ManagerSends++
			undo = append(undo, undoOp{mgrSend: true})
		case StageRef:
			// Ref resolution is planned by the global RefTable at
			// execution time and consumes no view-tracked transfer slots,
			// but the pending mark still overlays: without it a later task
			// in the same batch re-stages the same ref to the same dst
			// (PlanStage's ready-check sees neither file nor pending) and
			// the driver issues a duplicate resolve and fetch. Ref inputs
			// bypass the PendingCopies wait rule (PlanStage returns before
			// it), so only the destination's own HasFile check reads this.
			v.NotePending(sf.Dst, sf.Object)
			undo = append(undo, undoOp{pending: sf.Dst, obj: sf.Object})
		}
	}
	return undo
}

// revert undoes overlay effects in reverse application order, leaving
// the view bit-identical to its pre-batch state.
func (v *ClusterView) revert(undo []undoOp) {
	for i := len(undo) - 1; i >= 0; i-- {
		op := undo[i]
		switch {
		case op.commit != nil:
			op.commit.Commit = op.commit.Commit.Sub(op.res)
		case op.pending != nil:
			v.ClearPending(op.pending, op.obj)
		case op.transfers != nil:
			op.transfers.TransfersOut--
		case op.mgrSend:
			v.ManagerSends--
		}
	}
}

// andFilters conjoins two optional view filters.
func andFilters(a, b Filter) Filter {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(w *WorkerView) bool { return a(w) && b(w) }
}
