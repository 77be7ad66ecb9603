package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/hashring"
)

func newView(t *testing.T, opts Options, n int) (*ClusterView, []*WorkerView) {
	t.Helper()
	v := NewClusterView(opts)
	ws := make([]*WorkerView, n)
	for i := 0; i < n; i++ {
		id := string(rune('a' + i))
		ws[i] = v.AddWorker("w-"+id, "c0", core.Resources{Cores: 8, MemoryMB: 1 << 14, DiskMB: 1 << 14})
	}
	return v, ws
}

func addReadyLib(v *ClusterView, w *WorkerView, name string, slots, used int) *LibraryView {
	lv := &LibraryView{
		Name: name, Ready: true, Slots: slots, SlotsUsed: used,
		MaxInstances: 1, Res: core.Resources{Cores: 2},
	}
	v.AddInstance(w, lv)
	v.SetFreeReady(w, lv, slots-used)
	return lv
}

// TestPlaceReadyTieBreak pins the unified deterministic placement
// order shared by the manager and the simulator: most free ready
// slots first, minimum worker ID on ties (satellite 1).
func TestPlaceReadyTieBreak(t *testing.T) {
	v, ws := newView(t, Options{}, 4)
	addReadyLib(v, ws[0], "lib", 4, 3) // free 1
	addReadyLib(v, ws[1], "lib", 4, 1) // free 3
	addReadyLib(v, ws[2], "lib", 4, 1) // free 3 — ties with w-b, higher ID
	addReadyLib(v, ws[3], "lib", 4, 4) // free 0 — not a candidate

	d := v.PlaceReady("lib", nil)
	if d.Worker == nil || d.Worker.ID != "w-b" {
		t.Fatalf("PlaceReady picked %+v, want w-b (max free, min ID tie-break)", d.Worker)
	}

	// Equal free counts everywhere: strictly minimum worker ID wins.
	v.SetFreeReady(ws[0], ws[0].Libs["lib"], 3)
	d = v.PlaceReady("lib", nil)
	if d.Worker == nil || d.Worker.ID != "w-a" {
		t.Fatalf("PlaceReady picked %v, want w-a on all-equal tie", d.Worker)
	}

	// The avoid filter skips the would-be winner deterministically.
	d = v.PlaceReady("lib", Excluding("w-a"))
	if d.Worker == nil || d.Worker.ID != "w-b" {
		t.Fatalf("PlaceReady with avoid=w-a picked %v, want w-b", d.Worker)
	}
}

func fileSpec(id string, bytes int64) core.FileSpec {
	return core.FileSpec{
		Object:       &content.Object{ID: id, LogicalSize: bytes},
		Cache:        true,
		PeerTransfer: true,
	}
}

func TestPickSourceCapAndDeterminism(t *testing.T) {
	v, ws := newView(t, Options{PeerTransfers: true, PeerTransferCap: 2}, 4)
	v.NoteReplica(ws[2], "obj")
	v.NoteReplica(ws[1], "obj")

	if src := v.PickSource(ws[0], "obj"); src == nil || src.ID != "w-b" {
		t.Fatalf("PickSource = %v, want min-ID holder w-b", src)
	}
	// Saturated sources are skipped (per-source cap N, §3.3).
	ws[1].TransfersOut = 2
	if src := v.PickSource(ws[0], "obj"); src == nil || src.ID != "w-c" {
		t.Fatalf("PickSource with w-b saturated = %v, want w-c", src)
	}
	ws[2].TransfersOut = 2
	if src := v.PickSource(ws[0], "obj"); src != nil {
		t.Fatalf("PickSource with all saturated = %v, want nil (manager sends)", src)
	}
	// The destination itself is never a source.
	ws[1].TransfersOut = 0
	if src := v.PickSource(ws[1], "obj"); src != nil {
		t.Fatalf("PickSource for a holder dst = %v, want nil", src)
	}
}

func TestPickSourceClusterRule(t *testing.T) {
	v := NewClusterView(Options{PeerTransfers: true, ClusterAware: true, ManagerSourceCap: 1})
	dst := v.AddWorker("w-a", "c0", core.Resources{Cores: 8})
	far := v.AddWorker("w-b", "c1", core.Resources{Cores: 8})
	v.NoteReplica(far, "obj")

	// Manager link free: cross-cluster peers are ignored; the manager
	// (equidistant from every cluster) sends the copy itself.
	if src := v.PickSource(dst, "obj"); src != nil {
		t.Fatalf("cross-cluster source %v chosen with manager link free", src)
	}
	// Manager link saturated: the cross-cluster peer becomes eligible.
	v.ManagerSends = 1
	if src := v.PickSource(dst, "obj"); src == nil || src.ID != "w-b" {
		t.Fatalf("PickSource under manager saturation = %v, want w-b", src)
	}
	// A same-cluster holder always wins over cross-cluster.
	near := v.AddWorker("w-c", "c0", core.Resources{Cores: 8})
	v.NoteReplica(near, "obj")
	if src := v.PickSource(dst, "obj"); src == nil || src.ID != "w-c" {
		t.Fatalf("PickSource = %v, want same-cluster w-c", src)
	}
}

// TestPlanStageTakesAnotherViewsHolderLast: views that share one Holders
// index (a plane's shards) source a copy from their own holders first,
// then wait on a copy of their own on its way, and only then take
// another view's holder under the cap, before the manager's link.
func TestPlanStageTakesAnotherViewsHolderLast(t *testing.T) {
	opts := Options{PeerTransfers: true, PeerTransferCap: 1}
	here, there := NewClusterView(opts), NewClusterView(opts)
	there.Holders = here.Holders
	res := core.Resources{Cores: 8}
	dst, mate := here.AddWorker("w-d", "", res), here.AddWorker("w-e", "", res)
	far := there.AddWorker("w-a", "", res)
	there.NoteReplica(far, "obj")
	fs := fileSpec("obj", 1<<20)

	if sf := here.PlanStage(dst, fs, nil); sf.Mode != StagePeer || sf.Src != far {
		t.Fatalf("with only another view's holder: %v from %v, want peer from w-a", sf.Mode, sf.Src)
	}
	if src := here.PickSource(dst, "obj"); src != nil {
		t.Fatalf("PickSource = %v, another view's holder", src)
	}
	here.NotePending(mate, "obj")
	if sf := here.PlanStage(dst, fs, nil); sf.Mode != StageWait {
		t.Fatalf("with a copy on its way here: %v, want wait", sf.Mode)
	}
	here.ClearPending(mate, "obj")
	here.NoteReplica(mate, "obj")
	if sf := here.PlanStage(dst, fs, nil); sf.Mode != StagePeer || sf.Src != mate {
		t.Fatalf("with a holder here: %v from %v, want peer from w-e", sf.Mode, sf.Src)
	}
	mate.TransfersOut, far.TransfersOut = 1, 1
	if sf := here.PlanStage(dst, fs, nil); sf.Mode != StageDirect {
		t.Fatalf("with every holder at its cap: %v, want direct", sf.Mode)
	}
}

func TestPlanStageFirstCopySuppression(t *testing.T) {
	v, ws := newView(t, Options{PeerTransfers: true}, 3)
	fs := fileSpec("obj", 1<<20)

	// No replica, nothing in flight: the manager sends the first copy.
	if sf := v.PlanStage(ws[0], fs, nil); sf.Mode != StageDirect {
		t.Fatalf("first copy mode = %v, want StageDirect", sf.Mode)
	}
	v.NotePending(ws[0], "obj")
	// First copy in flight elsewhere: later destinations wait for a
	// peer source instead of drawing another manager copy.
	if sf := v.PlanStage(ws[1], fs, nil); sf.Mode != StageWait {
		t.Fatalf("second copy mode = %v, want StageWait", sf.Mode)
	}
	// The in-flight destination itself needs nothing more.
	if sf := v.PlanStage(ws[0], fs, nil); sf.Mode != StageReady {
		t.Fatalf("in-flight dst mode = %v, want StageReady", sf.Mode)
	}
	// Copy confirmed: the holder serves the next destination.
	v.ClearPending(ws[0], "obj")
	v.NoteReplica(ws[0], "obj")
	sf := v.PlanStage(ws[1], fs, nil)
	if sf.Mode != StagePeer || sf.Src.ID != "w-a" {
		t.Fatalf("post-confirm stage = %+v, want peer from w-a", sf)
	}
	// Non-peer files skip suppression entirely.
	plain := core.FileSpec{Object: &content.Object{ID: "plain"}}
	v.NotePending(ws[0], "plain")
	if sf := v.PlanStage(ws[1], plain, nil); sf.Mode != StageDirect {
		t.Fatalf("non-peer file mode = %v, want StageDirect", sf.Mode)
	}
}

func TestPlanEvictionOrderAndAllOrNothing(t *testing.T) {
	v, ws := newView(t, Options{EvictEmptyLibraries: true}, 1)
	w := ws[0]
	addReadyLib(v, w, "zeta", 1, 0)
	addReadyLib(v, w, "alpha", 1, 0)
	busy := addReadyLib(v, w, "busy", 1, 1)
	_ = busy
	w.Commit = core.Resources{Cores: 6} // three instances × 2 cores

	// Needs 6 free cores: evicting alpha then zeta (sorted order) frees
	// exactly enough; the busy library is never a candidate.
	evict, ok := v.PlanEviction(w, "incoming", core.Resources{Cores: 6})
	if !ok {
		t.Fatalf("eviction plan should fit: %+v", evict)
	}
	got := make([]string, len(evict))
	for i, e := range evict {
		got[i] = e.Lib
	}
	if !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Fatalf("eviction order = %v, want [alpha zeta]", got)
	}
	// Impossible ask: ok=false so the driver evicts nothing.
	if _, ok := v.PlanEviction(w, "incoming", core.Resources{Cores: 1 << 20}); ok {
		t.Fatal("oversized eviction plan reported ok")
	}
}

func TestPlanDeploySaturationGuard(t *testing.T) {
	v, ws := newView(t, Options{}, 2)
	spec := DeploySpec{Name: "lib", Res: core.Resources{Cores: 2}}

	d := v.PlanDeploy(spec, nil)
	if d.Worker == nil {
		t.Fatal("PlanDeploy found no worker on an empty cluster")
	}
	addReadyLib(v, ws[0], "lib", 4, 0)
	addReadyLib(v, ws[1], "lib", 4, 0)
	// Every worker at MaxInstances: the guard skips the ring walk.
	if d := v.PlanDeploy(spec, nil); d.Worker != nil {
		t.Fatalf("PlanDeploy placed on saturated cluster: %v", d.Worker.ID)
	}
	v.RemoveLibrary(ws[1], "lib")
	d = v.PlanDeploy(spec, nil)
	if d.Worker == nil || d.Worker.ID != "w-b" {
		t.Fatalf("PlanDeploy after desaturation = %v, want w-b", d.Worker)
	}
}

func TestRemoveWorkerCleansIndexes(t *testing.T) {
	v, ws := newView(t, Options{PeerTransfers: true}, 2)
	w := ws[0]
	v.NoteReplica(w, "cached")
	v.NotePending(w, "inflight")
	addReadyLib(v, w, "lib", 4, 0)

	dropped, cleared := v.RemoveWorker(w)
	if !reflect.DeepEqual(dropped, []string{"cached"}) || !reflect.DeepEqual(cleared, []string{"inflight"}) {
		t.Fatalf("RemoveWorker = (%v, %v)", dropped, cleared)
	}
	if len(v.Holders["cached"]) != 0 || v.PendingCopies["inflight"] != 0 {
		t.Fatal("replica indexes survived worker removal")
	}
	if len(v.ReadyWorkers()) != 0 || v.LibFull["lib"] != 0 {
		t.Fatal("library indexes survived worker removal")
	}
	if d := v.PlaceReady("lib", nil); d.Worker != nil {
		t.Fatalf("dead worker still placeable: %v", d.Worker.ID)
	}
}

// TestAddWorkersEqualsJoinByJoin: a roster registered in one AddWorkers
// call leaves Sorted, the worker table and the ring as the same workers
// joined one by one do, in another order and onto a view that already
// lost a worker.
func TestAddWorkersEqualsJoinByJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := make([]string, 400)
	for i, k := range rng.Perm(len(ids)) {
		ids[i] = fmt.Sprintf("w%05d", k*37)
	}
	res := core.Resources{Cores: 4}

	one := NewClusterView(Options{})
	one.RemoveWorker(one.AddWorker("gone", "", res))
	for _, i := range rng.Perm(len(ids)) {
		one.AddWorker(ids[i], "c"+ids[i][5:], res)
	}
	batch := NewClusterView(Options{})
	roster := make([]*WorkerView, len(ids))
	for i, id := range ids {
		roster[i] = &WorkerView{ID: id, Cluster: "c" + id[5:], Total: res}
	}
	batch.AddWorkers(roster)

	if len(one.Sorted) != len(ids) || len(batch.Sorted) != len(ids) {
		t.Fatalf("Sorted holds %d and %d workers, want %d", len(one.Sorted), len(batch.Sorted), len(ids))
	}
	for i := range one.Sorted {
		a, b := one.Sorted[i], batch.Sorted[i]
		if a.view != one || b.view != batch {
			t.Fatalf("Sorted[%d] is not bound to its own view", i)
		}
		ac, bc := *a, *b
		ac.view, bc.view = nil, nil
		if !reflect.DeepEqual(ac, bc) || batch.Workers[b.ID] != b {
			t.Fatalf("Sorted[%d]: %+v join by join, %+v in a batch", i, a, b)
		}
		if i > 0 && a.ID <= one.Sorted[i-1].ID {
			t.Fatalf("Sorted out of order at %d: %s after %s", i, a.ID, one.Sorted[i-1].ID)
		}
	}
	var seenA, seenB hashring.Visited
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("lib-%d", k)
		var a, b []string
		one.Ring.Walk(key, &seenA, func(m string) bool { a = append(a, m); return true })
		batch.Ring.Walk(key, &seenB, func(m string) bool { b = append(b, m); return true })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ring walk from %q differs between a batch and joins one by one", key)
		}
	}
}
