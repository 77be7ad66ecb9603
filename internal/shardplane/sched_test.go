package shardplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
)

// The scheduler on bare policy.ClusterViews: no engine, only a shell
// that commits placements into the view and records what crossed.

type testSpec struct {
	need   core.Resources
	inputs []core.FileSpec
}

func (p testSpec) Need() core.Resources { return p.need }

type testTask = Task[testSpec]

// delivery is one Deliver call, flattened.
type delivery struct {
	to   int
	key  string
	hops int
}

type testShell struct {
	idx   int
	plane *testPlane
	view  *policy.ClusterView
	sched *Sched[testSpec]
	mu    sync.Mutex

	intake []testTask // guarded by inMu: pushed from any goroutine
	inMu   sync.Mutex
	quiet  bool
	invs   int // pretend invocation pool, evacuated whole

	placed            []string // "key@worker", in execution order
	passes, evacuated int
	ran, coalesced    int
}

// testPlane is a Plane with a recording shell per shard. forward makes
// Deliver hand tasks on (Push + Wake); otherwise it only records.
type testPlane struct {
	*Plane[testSpec]
	shells    []*testShell
	forward   bool
	delivered []delivery
	invsMoved []int
}

func newTestPlane(n int, forward bool) *testPlane {
	tp := &testPlane{Plane: NewPlane[testSpec](n), forward: forward}
	for i := range tp.Shards {
		sh := &testShell{idx: i, plane: tp, quiet: true,
			view: policy.NewClusterView(policy.Options{PeerTransfers: true})}
		sh.sched = tp.Attach(i, sh.view, &sh.mu, sh)
		tp.shells = append(tp.shells, sh)
	}
	return tp
}

// join adds a worker of the given size to its home shard; the ID is the
// first unused one that hashes there.
func (tp *testPlane) join(shard, cores int) *policy.WorkerView {
	for i := 0; ; i++ {
		id := fmt.Sprintf("w%04d", i)
		sh := tp.shells[shard]
		if tp.ShardOf(id) != shard || sh.view.Workers[id] != nil {
			continue
		}
		tp.Add(id)
		return sh.view.AddWorker(id, "", core.Resources{Cores: cores})
	}
}

func (sh *testShell) Intake() (int, bool, bool) {
	sh.inMu.Lock()
	defer sh.inMu.Unlock()
	sh.sched.Push(sh.intake...)
	sh.intake = nil
	return sh.invs, false, true
}
func (sh *testShell) Quiet() bool { return sh.quiet }
func (sh *testShell) Nudged()     {}

func (sh *testShell) Plan(dst []policy.PlaceTask, tasks []testTask) []policy.PlaceTask {
	var reqs []policy.TaskReq
	for _, t := range tasks {
		reqs = append(reqs, policy.TaskReq{Key: t.Key, Res: t.Spec.need, Inputs: t.Spec.inputs, Avoid: t.Avoid})
	}
	return sh.view.PlanTaskBatchInto(dst, reqs, nil)
}

func (sh *testShell) Place(t testTask, d policy.PlaceTask) {
	sh.placed = append(sh.placed, execPlacement(sh.view, t, d))
}

// execPlacement applies a placement to the view the way an engine does.
func execPlacement(v *policy.ClusterView, t testTask, d policy.PlaceTask) string {
	d.Worker.Commit = d.Worker.Commit.Add(t.Spec.need)
	for _, sf := range d.Stages {
		v.NotePending(sf.Dst, sf.Object)
	}
	return t.Key + "@" + d.Worker.ID
}

func (sh *testShell) PassInvs(evacuate bool) bool {
	if !evacuate {
		sh.passes++
		return false
	}
	sh.evacuated, sh.invs = sh.invs, 0
	return sh.evacuated > 0
}

func (sh *testShell) ForwardInvs() {
	sh.plane.invsMoved = append(sh.plane.invsMoved, sh.evacuated)
}

func (sh *testShell) Deliver(i int, tasks []testTask) {
	tp := sh.plane
	for _, t := range tasks {
		tp.delivered = append(tp.delivered, delivery{i, t.Key, t.Hops})
	}
	if tp.forward {
		to := tp.shells[i]
		to.mu.Lock()
		to.sched.Push(tasks...)
		to.mu.Unlock()
		to.sched.Wake()
	}
}

func (sh *testShell) Woke(ran bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ran {
		sh.ran++
	} else {
		sh.coalesced++
	}
}

// blocker is an input whose first copy is in flight to another worker:
// planning it anywhere else is refused as Blocked.
var blocker = core.FileSpec{Object: &content.Object{ID: "blk", Name: "blk"}, Cache: true, PeerTransfer: true}

// TestPassMatchesPlanOneExecuteOneOracle holds the batched pass, on
// seeded random queues, to the loop it replaced written out longhand:
// the static dead-end rule by a scan of the worker table, then one
// PlanTask per task against the state its predecessors left.
func TestPassMatchesPlanOneExecuteOneOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const shards = 3
		build := func() (*testPlane, []*policy.WorkerView) {
			r := rand.New(rand.NewSource(seed))
			tp := newTestPlane(shards, false)
			var ws []*policy.WorkerView
			for i, n := 0, 1+r.Intn(4); i < n; i++ {
				w := tp.join(0, []int{1, 2, 4}[r.Intn(3)])
				w.Commit.Cores = r.Intn(w.Total.Cores + 1)
				ws = append(ws, w)
			}
			tp.shells[0].view.NotePending(ws[0], blocker.Object.ID)
			if r.Intn(4) > 0 {
				tp.join(1+r.Intn(2), 1)
			}
			return tp, ws
		}
		tp, ws := build()
		sh := tp.shells[0]
		sh.quiet = rng.Intn(2) == 0
		var queue []testTask
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			task := testTask{Key: TaskKey(int64(i + 1)), Hops: rng.Intn(shards + 1),
				Spec: testSpec{need: core.Resources{Cores: []int{1, 2, 4, 8}[rng.Intn(4)]}}}
			if rng.Intn(3) == 0 {
				task.Avoid = ws[rng.Intn(len(ws))].ID
			}
			if rng.Intn(4) == 0 {
				task.Spec.inputs = []core.FileSpec{blocker}
			}
			queue = append(queue, task)
		}

		// The oracle, on a second identical plane.
		ref, _ := build()
		v := ref.shells[0].view
		next, hasNext := ref.NextAlive(0)
		var wantPlaced []string
		var wantKept []testTask
		var wantFwd []delivery
		for _, task := range queue {
			eligible := false
			for _, w := range v.Workers {
				eligible = eligible || (w.ID != task.Avoid && task.Spec.need.Fits(w.Total))
			}
			if hasNext && task.Hops < shards && !eligible {
				wantFwd = append(wantFwd, delivery{next, task.Key, task.Hops + 1})
				continue
			}
			wantKept = append(wantKept, task)
		}
		planned := wantKept
		wantKept = nil
		for _, task := range planned {
			d := v.PlanTask(task.Key, task.Spec.need, task.Spec.inputs, policy.Excluding(task.Avoid))
			if d.Worker == nil && task.Avoid != "" {
				d = v.PlanTask(task.Key, task.Spec.need, task.Spec.inputs, nil)
			}
			switch {
			case d.Worker != nil:
				wantPlaced = append(wantPlaced, execPlacement(v, task, d))
			case len(d.Blocked) == 0 && hasNext && task.Hops < shards && sh.quiet:
				wantFwd = append(wantFwd, delivery{next, task.Key, task.Hops + 1})
			default:
				wantKept = append(wantKept, task)
			}
		}

		sh.sched.Push(queue...)
		sh.sched.Wake()
		if !reflect.DeepEqual(sh.placed, wantPlaced) {
			t.Fatalf("seed %d: placed %v, oracle %v", seed, sh.placed, wantPlaced)
		}
		if got := sh.sched.Tasks(); !reflect.DeepEqual(got, wantKept) && len(got)+len(wantKept) > 0 {
			t.Fatalf("seed %d: kept %+v, oracle %+v", seed, got, wantKept)
		}
		if !reflect.DeepEqual(tp.delivered, wantFwd) {
			t.Fatalf("seed %d: forwarded %+v, oracle %+v", seed, tp.delivered, wantFwd)
		}
		if sh.passes != 1 || !sh.sched.Settled() {
			t.Fatalf("seed %d: %d passes, idle=%v after one wake", seed, sh.passes, sh.sched.Settled())
		}
	}
}

// TestOversizedTaskRestsUntilNudged: a task no worker anywhere can
// hold visits every live shard once, rests where its hop budget ran
// out, ignores local events, and circulates again only after a nudge.
func TestOversizedTaskRestsUntilNudged(t *testing.T) {
	tp := newTestPlane(3, true)
	for i := range tp.shells {
		tp.join(i, 1)
	}
	home := tp.shells[0]
	home.sched.Push(testTask{Key: TaskKey(1), Spec: testSpec{need: core.Resources{Cores: 8}}})
	home.sched.Wake()
	oneRound := []delivery{{1, "task-1", 1}, {2, "task-1", 2}, {0, "task-1", 3}}
	if !reflect.DeepEqual(tp.delivered, oneRound) {
		t.Fatalf("first circulation: %+v, want %+v", tp.delivered, oneRound)
	}
	if q := home.sched.Tasks(); len(q) != 1 || q[0].Hops != 3 {
		t.Fatalf("task should rest in shard 0 with its budget spent, queue %+v", q)
	}
	if !home.sched.starving.Load() || tp.starving.Load() != 1 {
		t.Fatalf("resting shard not registered as starving (flag %v, count %d)", home.sched.starving.Load(), tp.starving.Load())
	}
	// A local event re-runs the pass but moves nothing.
	home.mu.Lock()
	home.sched.MarkDirty()
	home.mu.Unlock()
	home.sched.Wake()
	if len(tp.delivered) != len(oneRound) {
		t.Fatalf("rested task moved without a nudge: %+v", tp.delivered[len(oneRound):])
	}
	tp.Nudge()
	if got := tp.delivered[len(oneRound):]; !reflect.DeepEqual(got, oneRound) {
		t.Fatalf("after the nudge: %+v, want one more circulation %+v", got, oneRound)
	}
	if q := home.sched.Tasks(); len(q) != 1 || q[0].Hops != 3 {
		t.Fatalf("task should rest in shard 0 again, queue %+v", q)
	}
}

// TestEvacuationKeepsOrderAndHops: specs parked in a workerless shard
// leave on the first join — tasks one by one to their key's shard, in
// queue order, hop counts untouched; the invocation pool whole.
func TestEvacuationKeepsOrderAndHops(t *testing.T) {
	tp := newTestPlane(3, false)
	parked := tp.shells[0]
	var want []delivery
	for i, hops := range []int{2, 0, 3, 1, 0} {
		parked.intake = append(parked.intake, testTask{Key: TaskKey(int64(i + 1)), Hops: hops, Spec: testSpec{need: core.Resources{Cores: 1}}})
		want = append(want, delivery{1, TaskKey(int64(i + 1)), hops})
	}
	parked.invs = 7
	parked.sched.Wake()
	if len(tp.delivered) != 0 || len(parked.sched.Tasks()) != 5 || parked.passes != 1 {
		t.Fatalf("with no worker anywhere the specs must park: delivered %+v, queue %d, passes %d", tp.delivered, len(parked.sched.Tasks()), parked.passes)
	}
	tp.join(1, 1)
	tp.WakeParked()
	if !reflect.DeepEqual(tp.delivered, want) {
		t.Fatalf("evacuated %+v, want %+v", tp.delivered, want)
	}
	if !reflect.DeepEqual(tp.invsMoved, []int{7}) || parked.invs != 0 || len(parked.sched.Tasks()) != 0 {
		t.Fatalf("pool moved %v, left %d invocations and %d tasks behind", tp.invsMoved, parked.invs, len(parked.sched.Tasks()))
	}
	if parked.sched.starving.Load() || tp.starving.Load() != 0 {
		t.Fatal("an emptied shard is still registered as starving")
	}
	tp.WakeParked() // nothing parked: no loop runs
	if parked.ran != 2 {
		t.Fatalf("WakeParked woke a shard with nothing queued (%d loop runs)", parked.ran)
	}
}

// TestReentrantWakeCoalesces: a forward chain that comes back to a
// shard whose loop is running is absorbed by the latch, and the
// running loop picks the delivery up on its next look.
func TestReentrantWakeCoalesces(t *testing.T) {
	tp := newTestPlane(2, true)
	a, b := tp.shells[0], tp.shells[1]
	tp.join(0, 1)
	tp.join(1, 1)
	a.sched.Push(testTask{Key: TaskKey(1), Spec: testSpec{need: core.Resources{Cores: 8}}})
	a.sched.Wake()
	if want := []delivery{{1, "task-1", 1}, {0, "task-1", 2}}; !reflect.DeepEqual(tp.delivered, want) {
		t.Fatalf("chain %+v, want %+v", tp.delivered, want)
	}
	if a.ran != 1 || a.coalesced != 1 || a.passes != 2 || b.ran != 1 || b.coalesced != 0 {
		t.Fatalf("a: ran %d coalesced %d passes %d; b: ran %d coalesced %d — want the return delivery absorbed by a's one running loop",
			a.ran, a.coalesced, a.passes, b.ran, b.coalesced)
	}
	if q := a.sched.Tasks(); len(q) != 1 || q[0].Hops != 2 || !a.sched.Settled() || !b.sched.Settled() {
		t.Fatalf("task should rest in shard 0 with both loops idle, queue %+v", q)
	}
}

// TestConcurrentWakesLoseNothing: many goroutines publish to the intake
// and wake; when the last Wake has returned every item has been
// drained and the loop is idle.
func TestConcurrentWakesLoseNothing(t *testing.T) {
	tp := newTestPlane(1, false)
	sh := tp.shells[0]
	const producers, each = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				sh.inMu.Lock()
				sh.intake = append(sh.intake, testTask{Key: TaskKey(int64(p*each + k + 1)), Spec: testSpec{need: core.Resources{Cores: 1}}})
				sh.inMu.Unlock()
				sh.sched.Wake()
			}
		}(p)
	}
	wg.Wait()
	if got := len(sh.sched.Tasks()); got != producers*each || !sh.sched.Settled() {
		t.Fatalf("%d of %d specs reached the queue, idle=%v", got, producers*each, sh.sched.Settled())
	}
	if sh.ran+sh.coalesced != producers*each || sh.ran < 1 {
		t.Fatalf("ran %d + coalesced %d wakes, want %d in all", sh.ran, sh.coalesced, producers*each)
	}
}
