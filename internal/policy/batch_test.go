package policy

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// buildTaskView constructs one of two identical views for the
// batched-vs-sequential equivalence tests.
func buildTaskView(n int) (*ClusterView, []*WorkerView) {
	v := NewClusterView(Options{PeerTransfers: true, PeerTransferCap: 2, ManagerSourceCap: 1})
	ws := make([]*WorkerView, n)
	for i := 0; i < n; i++ {
		ws[i] = v.AddWorker(fmt.Sprintf("w%04d", i), "", core.Resources{Cores: 2, MemoryMB: 1 << 12, DiskMB: 1 << 12})
	}
	return v, ws
}

// applyTaskDecision mirrors what an executing driver does to the view
// for one placed task: commit resources and account each stage.
func applyTaskDecision(v *ClusterView, d PlaceTask, res core.Resources) {
	d.Worker.Commit = d.Worker.Commit.Add(res)
	for _, sf := range d.Stages {
		switch sf.Mode {
		case StagePeer:
			v.NotePending(sf.Dst, sf.Object)
			sf.Src.TransfersOut++
		case StageDirect:
			v.NotePending(sf.Dst, sf.Object)
			v.ManagerSends++
		}
	}
}

func describeTask(d PlaceTask) string {
	if d.Worker == nil {
		return fmt.Sprintf("blocked=%v", d.Blocked)
	}
	s := "worker=" + d.Worker.ID
	for _, sf := range d.Stages {
		s += fmt.Sprintf(" stage{obj=%s mode=%d", sf.Object, sf.Mode)
		if sf.Src != nil {
			s += " src=" + sf.Src.ID
		}
		s += "}"
	}
	return s
}

// TestPlanTaskBatchMatchesSequential drives the same request list
// through PlanTaskBatchInto and through the unbatched plan-execute-plan
// loop on an identical view, and requires decision-for-decision
// equality plus identical end states.
func TestPlanTaskBatchMatchesSequential(t *testing.T) {
	const workers, tasks = 5, 24
	res := core.Resources{Cores: 1}
	env := fileSpec("env", 1<<20)

	batchView, _ := buildTaskView(workers)
	seqView, _ := buildTaskView(workers)

	reqs := make([]TaskReq, tasks)
	for i := range reqs {
		avoid := ""
		if i%5 == 3 {
			avoid = fmt.Sprintf("w%04d", i%workers)
		}
		reqs[i] = TaskReq{
			Key:    fmt.Sprintf("task-%d", i+1),
			Res:    res,
			Inputs: []core.FileSpec{env},
			Avoid:  avoid,
		}
	}

	// Sequential baseline: plan one, execute one.
	seq := make([]PlaceTask, len(reqs))
	for i, r := range reqs {
		d := seqView.PlanTask(r.Key, r.Res, r.Inputs, Excluding(r.Avoid))
		if d.Worker == nil && r.Avoid != "" {
			d = seqView.PlanTask(r.Key, r.Res, r.Inputs, nil)
		}
		seq[i] = d
		if d.Worker != nil {
			applyTaskDecision(seqView, d, r.Res)
		}
	}

	pendingBefore := len(batchView.PendingCopies)
	sendsBefore := batchView.ManagerSends
	got := batchView.PlanTaskBatchInto(nil, reqs, nil)

	// The view must be observably unchanged before the driver executes.
	if len(batchView.PendingCopies) != pendingBefore || batchView.ManagerSends != sendsBefore {
		t.Fatalf("PlanTaskBatchInto mutated the view: pending %d→%d, sends %d→%d",
			pendingBefore, len(batchView.PendingCopies), sendsBefore, batchView.ManagerSends)
	}
	for id, w := range batchView.Workers {
		if w.Commit != (core.Resources{}) || w.TransfersOut != 0 {
			t.Fatalf("PlanTaskBatchInto left residue on %s: commit=%+v transfers=%d", id, w.Commit, w.TransfersOut)
		}
	}

	if len(got) != len(seq) {
		t.Fatalf("batch returned %d decisions, want %d", len(got), len(seq))
	}
	for i := range seq {
		gd, sd := describeTask(got[i]), describeTask(seq[i])
		if gd != sd {
			t.Fatalf("decision %d diverges:\n  batch: %s\n  seq:   %s", i, gd, sd)
		}
		if got[i].Worker != nil {
			applyTaskDecision(batchView, got[i], reqs[i].Res)
		}
	}

	// End states agree.
	if batchView.ManagerSends != seqView.ManagerSends || len(batchView.PendingCopies) != len(seqView.PendingCopies) {
		t.Fatalf("end state diverges: sends %d vs %d, pending %d vs %d",
			batchView.ManagerSends, seqView.ManagerSends, len(batchView.PendingCopies), len(seqView.PendingCopies))
	}
	for id, bw := range batchView.Workers {
		sw := seqView.Workers[id]
		if bw.Commit != sw.Commit || bw.TransfersOut != sw.TransfersOut || len(bw.Pending) != len(sw.Pending) {
			t.Fatalf("worker %s end state diverges: commit %+v vs %+v, transfers %d vs %d",
				id, bw.Commit, sw.Commit, bw.TransfersOut, sw.TransfersOut)
		}
	}
}

// TestPlaceReadyBatchMatchesSequential checks the ready-instance batch
// against the unbatched place-then-decrement loop.
func TestPlaceReadyBatchMatchesSequential(t *testing.T) {
	build := func() (*ClusterView, []*WorkerView, []*LibraryView) {
		v, ws := newView(t, Options{}, 4)
		lvs := make([]*LibraryView, len(ws))
		frees := []int{1, 3, 3, 2}
		for i, w := range ws {
			lvs[i] = addReadyLib(v, w, "lib", 4, 4-frees[i])
		}
		return v, ws, lvs
	}

	batchView, _, _ := build()
	seqView, seqWs, seqLvs := build()

	const k = 12 // more than the 9 free slots: the batch must stop at capacity
	got := batchView.PlaceReadyBatchInto(nil, "lib", k, nil)

	// View unchanged before execution.
	for i, w := range seqWs {
		_ = w
		if batchView.Workers[seqWs[i].ID].Libs["lib"].FreeReady != seqLvs[i].FreeReady {
			t.Fatalf("PlaceReadyBatchInto mutated FreeReady on %s", seqWs[i].ID)
		}
	}

	var seq []PlaceInvocation
	for i := 0; i < k; i++ {
		d := seqView.PlaceReady("lib", nil)
		if d.Worker == nil {
			break
		}
		seq = append(seq, d)
		d.Lib.SlotsUsed++
		seqView.SetFreeReady(d.Worker, d.Lib, d.Lib.Slots-d.Lib.SlotsUsed)
	}

	if len(got) != len(seq) {
		t.Fatalf("batch placed %d, sequential placed %d", len(got), len(seq))
	}
	for i := range seq {
		if got[i].Worker.ID != seq[i].Worker.ID {
			t.Fatalf("placement %d diverges: batch %s, sequential %s", i, got[i].Worker.ID, seq[i].Worker.ID)
		}
	}
	if len(got) != 9 {
		t.Fatalf("placed %d invocations, want all 9 free slots", len(got))
	}
}

// TestPlaceReadyBatchRespectsFilter pins that the filter applies to
// every element of the batch.
func TestPlaceReadyBatchRespectsFilter(t *testing.T) {
	v, ws := newView(t, Options{}, 2)
	addReadyLib(v, ws[0], "lib", 2, 0)
	addReadyLib(v, ws[1], "lib", 2, 0)
	got := v.PlaceReadyBatchInto(nil, "lib", 4, Excluding(ws[0].ID))
	if len(got) != 2 {
		t.Fatalf("placed %d, want 2 (only the admitted worker's slots)", len(got))
	}
	for _, d := range got {
		if d.Worker.ID != ws[1].ID {
			t.Fatalf("filter violated: placed on %s", d.Worker.ID)
		}
	}
}
