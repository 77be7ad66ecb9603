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

// testInv is a queued invocation's payload: its spec number.
type testInv int64

type (
	testTask  = Task[testSpec]
	testCall  = Inv[testInv]
	testSched = Sched[testSpec, testInv]
)

// delivery is one Deliver call, flattened; an invocation's key is
// "lib#id".
type delivery struct {
	to   int
	key  string
	hops int
}

type testShell struct {
	idx   int
	plane *testPlane
	view  *policy.ClusterView
	sched *testSched
	mu    sync.Mutex

	intake []testTask // guarded by inMu: pushed from any goroutine
	inMu   sync.Mutex
	// planOne makes Ready answer for one invocation at a time.
	planOne bool

	placed         []string // "key@worker" / "lib#id@worker" / "deploy lib@worker", in execution order
	rejected       []int64
	ran, coalesced int
}

// testPlane is a Plane with a recording shell per shard. forward makes
// Deliver hand specs on (Push + Wake); otherwise it only records. libs is the registered libraries' per-instance need
// (every instance has two slots); reject the invocations Reject fails.
type testPlane struct {
	*Plane[testSpec, testInv]
	shells        []*testShell
	forward       bool
	delivered     []delivery
	invsDelivered []delivery
	libs          map[string]core.Resources
	reject        map[int64]bool
}

const (
	testSlots = 2
	// testBudget is the plane's retry budget.
	testBudget = 2
)

func newTestPlane(n int, forward bool) *testPlane {
	tp := &testPlane{Plane: NewPlane[testSpec, testInv](n, testBudget), forward: forward,
		libs: map[string]core.Resources{}, reject: map[int64]bool{}}
	for i := range tp.Shards {
		sh := &testShell{idx: i, plane: tp,
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

func (sh *testShell) Intake() bool {
	sh.inMu.Lock()
	defer sh.inMu.Unlock()
	sh.sched.Push(sh.intake...)
	sh.intake = nil
	return true
}

func (sh *testShell) Plan(dst []policy.PlaceTask, tasks []testTask) []policy.PlaceTask {
	var reqs []policy.TaskReq
	for _, t := range tasks {
		reqs = append(reqs, policy.TaskReq{Key: t.Key, Res: t.Spec.need, Inputs: t.Spec.inputs, Avoid: t.Avoid})
	}
	return sh.view.PlanTaskBatchInto(dst, reqs, nil)
}

func (sh *testShell) Place(t *testTask, d policy.PlaceTask) {
	sh.placed = append(sh.placed, execPlacement(sh.view, *t, d))
}

// execPlacement applies a placement to the view the way an engine does.
func execPlacement(v *policy.ClusterView, t testTask, d policy.PlaceTask) string {
	d.Worker.Commit = d.Worker.Commit.Add(t.Spec.need)
	for _, sf := range d.Stages {
		v.NotePending(sf.Dst, sf.Object)
	}
	return t.Key + "@" + d.Worker.ID
}

func (sh *testShell) LibNeed(lib string) (core.Resources, bool) {
	need, known := sh.plane.libs[lib]
	return need, known
}

func (sh *testShell) Reject(inv testCall) bool {
	if sh.plane.reject[int64(inv.Spec)] {
		sh.rejected = append(sh.rejected, int64(inv.Spec))
		return true
	}
	return false
}

func (sh *testShell) Ready(dst []policy.PlaceInvocation, lib string, k int, avoid string) []policy.PlaceInvocation {
	if sh.planOne {
		k = 1
	}
	return sh.view.PlaceReadyBatchInto(dst, lib, k, policy.Excluding(avoid))
}

func (sh *testShell) PlaceInv(inv testCall, d policy.PlaceInvocation) {
	sh.placed = append(sh.placed, execInvPlacement(sh.view, inv, d))
}

// execInvPlacement takes one free ready slot the way an engine does.
func execInvPlacement(v *policy.ClusterView, inv testCall, d policy.PlaceInvocation) string {
	v.SetFreeReady(d.Worker, d.Lib, d.Lib.FreeReady-1)
	return fmt.Sprintf("%s#%d@%s", inv.Lib, inv.Spec, d.Worker.ID)
}

func (sh *testShell) Deploy(lib string) (string, bool) {
	on := execDeploy(sh.view, lib, sh.plane.libs[lib])
	if on != "" {
		sh.placed = append(sh.placed, "deploy "+lib+"@"+on)
	}
	return on, on != ""
}

// execDeploy installs one instance where PlanDeploy finds room and names
// the worker; "" if it finds none.
func execDeploy(v *policy.ClusterView, lib string, need core.Resources) string {
	d := v.PlanDeploy(policy.DeploySpec{Name: lib, Res: need}, nil)
	if d.Worker == nil {
		return ""
	}
	v.AddInstance(d.Worker, &policy.LibraryView{Name: lib, Slots: testSlots, MaxInstances: 1, Res: d.Res})
	d.Worker.Commit = d.Worker.Commit.Add(d.Res)
	return d.Worker.ID
}

// ack brings lib's installing instance on w up: ready with every slot
// free, its claim released, the library marked.
func (sh *testShell) ack(w *policy.WorkerView, lib string) {
	lv := w.Libs[lib]
	lv.Ready = true
	sh.view.SetFreeReady(w, lv, lv.Slots)
	sh.sched.Unclaim(w.ID, lib)
	sh.sched.MarkLib(lib)
}

func (sh *testShell) Deliver(i int, tasks []testTask, invs []testCall) {
	tp := sh.plane
	for _, t := range tasks {
		tp.delivered = append(tp.delivered, delivery{i, t.Key, t.Hops})
	}
	for _, inv := range invs {
		tp.invsDelivered = append(tp.invsDelivered, delivery{i, fmt.Sprintf("%s#%d", inv.Lib, inv.Spec), inv.Hops})
	}
	if tp.forward {
		to := tp.shells[i]
		to.mu.Lock()
		to.sched.Push(tasks...)
		to.sched.PushInvs(invs...)
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

// blocker is an input that, once its first copy is in flight to one
// worker, is refused as Blocked anywhere else.
var blocker = core.FileSpec{Object: &content.Object{ID: "blk", Name: "blk"}, Cache: true, PeerTransfer: true}

// TestPassMatchesPlanOneExecuteOneOracle holds the batched pass, on
// seeded random queues, to the loop it replaced written out longhand:
// the static dead-end rule by a scan of the worker table, then one
// PlanTask per task against the state its predecessors left — the shard
// quiet only while nothing runs in it, this pass's own placements
// included, and no copy is in flight.
func TestPassMatchesPlanOneExecuteOneOracle(t *testing.T) {
	quietHops, busyRefusals := 0, 0
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
			if r.Intn(2) == 0 {
				tp.shells[0].view.NotePending(ws[0], blocker.Object.ID)
			}
			if r.Intn(4) > 0 {
				tp.join(1+r.Intn(2), 1)
			}
			return tp, ws
		}
		tp, ws := build()
		sh := tp.shells[0]
		busy := rng.Intn(2) == 0
		if busy {
			sh.sched.register(ws[0].ID, Run[testSpec, testInv]{Inv: testCall{Lib: "other", ID: 1000}})
		}
		var queue []testTask
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			task := testTask{Key: TaskKey(int64(i + 1)), ID: int64(i + 1), Hops: rng.Intn(shards + 1),
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
			case len(d.Blocked) == 0 && hasNext && task.Hops < shards && !busy && len(wantPlaced) == 0 && len(v.PendingCopies) == 0:
				wantFwd = append(wantFwd, delivery{next, task.Key, task.Hops + 1})
				quietHops++
			default:
				wantKept = append(wantKept, task)
				if len(d.Blocked) == 0 && hasNext && task.Hops < shards {
					busyRefusals++
				}
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
		if sh.sched.Passes() != 1 || !sh.sched.Settled() {
			t.Fatalf("seed %d: %d passes, idle=%v after one wake", seed, sh.sched.Passes(), sh.sched.Settled())
		}
	}
	if quietHops == 0 || busyRefusals == 0 {
		t.Fatalf("degenerate seeds: %d refusals hopped from a quiet shard, %d stayed in a busy one", quietHops, busyRefusals)
	}
}

// TestInvPassMatchesPlaceOneExecuteOneOracle holds the invocation pass,
// on seeded random queues with mixed avoid preferences, to the loop
// written out longhand: one PlaceReady per entry under its own avoid
// filter, the unfiltered retry, the claim count, one PlanDeploy — each
// against the state its predecessors left — whether the shell answers
// Ready for whole runs or for one entry at a time.
func TestInvPassMatchesPlaceOneExecuteOneOracle(t *testing.T) {
	const shards, lib = 3, "lib"
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		need := core.Resources{Cores: 1 + rng.Intn(2)}
		// build makes a plane whose shard 0 holds 1–4 workers: some with a
		// ready instance and 0–2 free slots, some with one installing (a
		// claim), some part committed; maybe a second live shard.
		build := func() (*testPlane, []*policy.WorkerView, int) {
			r := rand.New(rand.NewSource(seed))
			tp := newTestPlane(shards, false)
			tp.libs[lib] = need
			v := tp.shells[0].view
			var ws []*policy.WorkerView
			claims, lq := 0, tp.shells[0].sched.lib(lib, true)
			for i, n := 0, 1+r.Intn(4); i < n; i++ {
				w := tp.join(0, []int{1, 2, 4}[r.Intn(3)])
				ws = append(ws, w)
				switch r.Intn(4) {
				case 0:
					w.Commit.Cores = r.Intn(w.Total.Cores + 1)
				case 1, 2:
					if need.Fits(w.Total) {
						lv := &policy.LibraryView{Name: lib, Slots: testSlots, MaxInstances: 1, Res: need}
						v.AddInstance(w, lv)
						w.Commit = w.Commit.Add(need)
						if r.Intn(3) == 0 {
							claims++
							lq.claims, tp.shells[0].sched.claims = append(lq.claims, w.ID), claims
						} else {
							lv.Ready = true
							v.SetFreeReady(w, lv, r.Intn(testSlots+1))
						}
					}
				}
			}
			if r.Intn(4) > 0 {
				tp.join(1+r.Intn(2), 1)
			}
			return tp, ws, claims
		}
		tp, ws, claims := build()
		sh := tp.shells[0]
		sh.planOne = rng.Intn(2) == 0
		var queue []testCall
		hops := rng.Intn(shards + 1)
		for i, n := 0, 1+rng.Intn(12); i < n; i++ {
			inv := testCall{Lib: lib, Hops: hops, Spec: testInv(i + 1)}
			if rng.Intn(3) == 0 {
				inv.Avoid = ws[rng.Intn(len(ws))].ID
			}
			if rng.Intn(8) == 0 {
				tp.reject[int64(i+1)] = true
			}
			queue = append(queue, inv)
		}

		// The oracle, on a second identical plane.
		ref, _, _ := build()
		v := ref.shells[0].view
		var wantPlaced []string
		var wantRejected []int64
		var wantKept []testCall
		var wantFwd []delivery
		hostable := false
		for _, w := range v.Workers {
			hostable = hostable || need.Fits(w.Total)
		}
		if next, hasNext := ref.NextAlive(0); hasNext && hops < shards && !hostable {
			for _, inv := range queue {
				wantFwd = append(wantFwd, delivery{next, fmt.Sprintf("%s#%d", lib, inv.Spec), hops + 1})
			}
		} else {
			wantClaims := claims
			for i, inv := range queue {
				if tp.reject[int64(inv.Spec)] {
					wantRejected = append(wantRejected, int64(inv.Spec))
					continue
				}
				d := v.PlaceReady(lib, policy.Excluding(inv.Avoid))
				if d.Worker == nil && inv.Avoid != "" {
					d = v.PlaceReady(lib, nil)
				}
				if d.Worker != nil {
					wantPlaced = append(wantPlaced, execInvPlacement(v, inv, d))
					continue
				}
				wantKept = append(wantKept, inv)
				if claims > 0 {
					claims--
					continue
				}
				on := execDeploy(v, lib, need)
				if on == "" {
					wantKept = append(wantKept, queue[i+1:]...)
					break
				}
				wantPlaced = append(wantPlaced, "deploy "+lib+"@"+on)
				wantClaims++
			}
			claims = wantClaims
		}

		sh.sched.PushInvs(queue...)
		sh.sched.Wake()
		if !reflect.DeepEqual(sh.placed, wantPlaced) {
			t.Fatalf("seed %d (planOne=%v): placed %v, oracle %v", seed, sh.planOne, sh.placed, wantPlaced)
		}
		if !reflect.DeepEqual(sh.rejected, wantRejected) {
			t.Fatalf("seed %d: rejected %v, oracle %v", seed, sh.rejected, wantRejected)
		}
		if got := sh.sched.lib(lib, false).q; !reflect.DeepEqual(got, wantKept) && len(got)+len(wantKept) > 0 {
			t.Fatalf("seed %d: kept %+v, oracle %+v", seed, got, wantKept)
		}
		if !reflect.DeepEqual(tp.invsDelivered, wantFwd) {
			t.Fatalf("seed %d: forwarded %+v, oracle %+v", seed, tp.invsDelivered, wantFwd)
		}
		if got := len(sh.sched.lib(lib, false).claims); got != claims || sh.sched.claims != claims || sh.sched.Invs() != len(wantKept) {
			t.Fatalf("seed %d: %d claims (%d in all), %d queued; oracle %d and %d", seed, got, sh.sched.claims, sh.sched.Invs(), claims, len(wantKept))
		}
		if sh.sched.Passes() != 1 || !sh.sched.Settled() {
			t.Fatalf("seed %d: %d passes, idle=%v after one wake", seed, sh.sched.Passes(), sh.sched.Settled())
		}
	}
}

// TestInstallClaimsAbsorbQueuedInvocations: k installs in flight absorb
// exactly k queued entries, so no burst of passes deploys more instances
// than the queue is long; a claim released without an instance coming up
// (a failed install, a dead worker) lets the next pass deploy again.
func TestInstallClaimsAbsorbQueuedInvocations(t *testing.T) {
	const lib = "lib"
	tp := newTestPlane(1, false)
	tp.libs[lib] = core.Resources{Cores: 1}
	sh := tp.shells[0]
	var ws []*policy.WorkerView
	for i := 0; i < 4; i++ {
		ws = append(ws, tp.join(0, 1))
	}
	deploys := func() int {
		n := 0
		for _, p := range sh.placed {
			if len(p) > 7 && p[:7] == "deploy " {
				n++
			}
		}
		return n
	}
	pass := func() {
		sh.mu.Lock()
		sh.sched.MarkLib(lib)
		sh.mu.Unlock()
		sh.sched.Wake()
	}
	push := func(from, n int) {
		sh.mu.Lock()
		for i := 0; i < n; i++ {
			sh.sched.PushInvs(testCall{Lib: lib, Spec: testInv(from + i)})
		}
		if !sh.sched.lib(lib, false).dirty || sh.sched.Settled() {
			t.Fatal("PushInvs did not mark the library for a pass")
		}
		sh.mu.Unlock()
		sh.sched.Wake()
	}

	push(1, 3)
	for i := 0; i < 5; i++ {
		pass()
	}
	if deploys() != 3 || sh.sched.claims != 3 || sh.sched.Invs() != 3 {
		t.Fatalf("3 queued through 6 passes: %d deploys, %d claims, %d queued — want 3, 3, 3 (%v)", deploys(), sh.sched.claims, sh.sched.Invs(), sh.placed)
	}
	if sh.sched.starving.Load() {
		t.Fatal("a shard with installs in flight is not starving")
	}
	// Two more: one worker is left to deploy on, the fifth entry waits.
	push(4, 2)
	pass()
	if deploys() != 4 || sh.sched.claims != 4 || sh.sched.Invs() != 5 {
		t.Fatalf("5 queued on 4 workers: %d deploys, %d claims, %d queued — want 4, 4, 5", deploys(), sh.sched.claims, sh.sched.Invs())
	}
	// One instance comes up with two slots: two entries run, and the three
	// installs still in flight absorb exactly the three that remain.
	var up *policy.WorkerView
	for _, w := range ws {
		if w.Libs[lib] != nil {
			up = w
			break
		}
	}
	sh.mu.Lock()
	sh.ack(up, lib)
	sh.mu.Unlock()
	sh.sched.Wake()
	pass()
	if got := sh.placed[len(sh.placed)-2:]; !reflect.DeepEqual(got, []string{"lib#1@" + up.ID, "lib#2@" + up.ID}) {
		t.Fatalf("after the ack: %v, want the two oldest entries on %s", got, up.ID)
	}
	if deploys() != 4 || sh.sched.claims != 3 || sh.sched.Invs() != 3 {
		t.Fatalf("after the ack: %d deploys, %d claims, %d queued — want 4, 3, 3", deploys(), sh.sched.claims, sh.sched.Invs())
	}
	// Two installs fail: their claims go, their workers are free again,
	// and the pass deploys for exactly the two entries no claim covers.
	failed := 0
	sh.mu.Lock()
	for _, w := range ws {
		if lv := w.Libs[lib]; lv != nil && !lv.Ready && failed < 2 {
			failed++
			sh.view.RemoveLibrary(w, lib)
			w.Commit = w.Commit.Sub(lv.Res)
			sh.sched.Unclaim(w.ID, lib)
		}
	}
	sh.mu.Unlock()
	pass()
	pass()
	if deploys() != 6 || sh.sched.claims != 3 || sh.sched.Invs() != 3 {
		t.Fatalf("after two failed installs: %d deploys, %d claims, %d queued — want 6, 3, 3 (%v)", deploys(), sh.sched.claims, sh.sched.Invs(), sh.placed)
	}
}

// TestDeathRequeuesInSpecOrderWithinBudget: a death requeues exactly
// that worker's in-flight specs — in ascending spec order whatever order
// they were placed in, one retry spent, the worker avoided, the hop
// budget fresh — hands back exactly those past the budget, in the same
// order, and releases exactly that worker's install claims.
func TestDeathRequeuesInSpecOrderWithinBudget(t *testing.T) {
	const lib = "lib"
	tp := newTestPlane(1, false)
	sh, s := tp.shells[0], tp.shells[0].sched
	doomed, other := tp.join(0, 8), tp.join(0, 8)
	one := core.Resources{Cores: 1}
	task := func(id int64, retries int) Run[testSpec, testInv] {
		return Run[testSpec, testInv]{IsTask: true, Task: testTask{Key: TaskKey(id), ID: id, Retries: retries, Hops: 2, Spec: testSpec{need: one}}}
	}
	call := func(id int64, retries int) Run[testSpec, testInv] {
		return Run[testSpec, testInv]{Inv: testCall{Lib: lib, ID: id, Retries: retries, Hops: 2, Spec: testInv(id)}}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, r := range []Run[testSpec, testInv]{task(9, 0), call(7, testBudget), task(3, testBudget), call(5, 0), task(8, 1), call(2, 1)} {
		s.register(doomed.ID, r)
	}
	s.register(other.ID, call(6, 0))
	s.register(other.ID, task(4, 0))
	s.lib(lib, true).claims = []string{doomed.ID, other.ID}
	s.lib("zlib", true).claims = []string{doomed.ID}
	s.claims = 3

	requeued, lost := s.Died(doomed.ID)

	if want := []Run[testSpec, testInv]{task(3, testBudget), call(7, testBudget)}; requeued != 4 || !reflect.DeepEqual(lost, want) {
		t.Fatalf("requeued %d and handed back %+v, want 4 and %+v", requeued, lost, want)
	}
	again := func(r Run[testSpec, testInv]) Run[testSpec, testInv] {
		r.Task.Retries, r.Task.Avoid, r.Task.Hops = r.Task.Retries+1, doomed.ID, 0
		r.Inv.Retries, r.Inv.Avoid, r.Inv.Hops = r.Inv.Retries+1, doomed.ID, 0
		return r
	}
	if want := []testTask{again(task(8, 1)).Task, again(task(9, 0)).Task}; !reflect.DeepEqual(s.Tasks(), want) {
		t.Fatalf("task queue %+v, want %+v", s.Tasks(), want)
	}
	if want := []testCall{again(call(2, 1)).Inv, again(call(5, 0)).Inv}; !reflect.DeepEqual(s.lib(lib, false).q, want) || s.Invs() != 2 {
		t.Fatalf("library queue %+v (%d counted), want %+v", s.lib(lib, false).q, s.Invs(), want)
	}
	if want := []Run[testSpec, testInv]{task(4, 0), call(6, 0)}; !reflect.DeepEqual(s.Running(other.ID), want) || s.Running(doomed.ID) != nil || s.InFlight() != 2 {
		t.Fatalf("still running: %+v on the survivor, %+v on the dead worker, %d in all", s.Running(other.ID), s.Running(doomed.ID), s.InFlight())
	}
	if l, z := s.lib(lib, false).claims, s.lib("zlib", false).claims; !reflect.DeepEqual(l, []string{other.ID}) || len(z) != 0 || s.claims != 1 {
		t.Fatalf("claims after the death: %s %v, zlib %v, %d in all — want only the survivor's", lib, l, z, s.claims)
	}
	s.Unclaim(doomed.ID, lib)
	if again, _ := s.Died(doomed.ID); again != 0 || s.claims != 1 || s.InFlight() != 2 {
		t.Fatalf("a second death notice requeued %d, left %d claims and %d in flight", again, s.claims, s.InFlight())
	}
}

// TestBackingOffSpecHoldsTheShardBusy: a spec a worker failed retryably
// is neither queued nor on any worker until Retry, yet keeps the shard
// from reading quiet — so nothing overflow-forwards past it — and Retry
// still places it after the worker it avoids has died.
func TestBackingOffSpecHoldsTheShardBusy(t *testing.T) {
	tp := newTestPlane(2, false)
	sh, s := tp.shells[0], tp.shells[0].sched
	w := tp.join(0, 1)
	tp.join(1, 1)
	one := testSpec{need: core.Resources{Cores: 1}}
	s.Push(testTask{Key: TaskKey(1), ID: 1, Spec: one})
	s.Wake()
	if got := s.Running(w.ID); len(got) != 1 || got[0].ID() != 1 {
		t.Fatalf("task 1 should run on %s: %+v", w.ID, got)
	}
	// The worker fails it; its core stays taken (by other work, say), so
	// the next task is refused on capacity alone.
	sh.mu.Lock()
	r, retry, ok := s.Done(w.ID, 1, true)
	if !ok || retry != 1 || r.Task.Retries != 1 || r.Task.Avoid != w.ID {
		t.Fatalf("Done(failed) = %+v, retry %v, ok %v", r, retry, ok)
	}
	if _, _, again := s.Done(w.ID, 1, true); again {
		t.Fatal("a spec backing off is still on its worker")
	}
	if s.InFlight() != 0 || s.BackingOff() != 1 || len(s.Tasks()) != 0 {
		t.Fatalf("backing off: %d in flight, %d backing off, %d queued — want 0, 1, 0", s.InFlight(), s.BackingOff(), len(s.Tasks()))
	}
	s.Push(testTask{Key: TaskKey(2), ID: 2, Spec: one})
	sh.mu.Unlock()
	s.Wake()
	if len(tp.delivered) != 0 || len(s.Tasks()) != 1 || s.starving.Load() {
		t.Fatalf("a refusal hopped past a backing-off spec: delivered %+v, %d queued, starving %v", tp.delivered, len(s.Tasks()), s.starving.Load())
	}
	sh.mu.Lock()
	s.Retry(1)
	sh.mu.Unlock()
	s.Wake()
	// The retry leaves first, by the static rule — the only worker here is
	// the one it avoids; task 2 follows from the now quiet shard.
	if want := []delivery{{1, "task-1", 1}, {1, "task-2", 1}}; !reflect.DeepEqual(tp.delivered, want) || s.BackingOff() != 0 {
		t.Fatalf("once the retry landed the quiet shard should forward both: %+v, want %+v", tp.delivered, want)
	}

	// Again with room to place: the avoided worker dies during the backoff.
	tp = newTestPlane(1, false)
	sh, s = tp.shells[0], tp.shells[0].sched
	a, b := tp.join(0, 1), tp.join(0, 1)
	s.Push(testTask{Key: TaskKey(1), ID: 1, Spec: one})
	s.Wake()
	failed, survivor := a, b
	if len(s.Running(a.ID)) == 0 {
		failed, survivor = b, a
	}
	sh.mu.Lock()
	s.Done(failed.ID, 1, true)
	tp.Remove(failed.ID)
	sh.view.RemoveWorker(failed)
	if requeued, lost := s.Died(failed.ID); requeued != 0 || lost != nil || s.BackingOff() != 1 {
		t.Fatalf("the death touched a spec no longer on the worker: requeued %d, lost %+v, %d backing off", requeued, lost, s.BackingOff())
	}
	s.Retry(1)
	sh.mu.Unlock()
	s.Wake()
	if got := s.Running(survivor.ID); len(got) != 1 || got[0].Task.Retries != 1 || got[0].Task.Avoid != failed.ID || s.BackingOff() != 0 {
		t.Fatalf("the retry should run on %s, avoiding the dead %s: %+v", survivor.ID, failed.ID, got)
	}
}

// TestLibraryQueueOverflowsWholeAndRests: a library queue whose
// instances no worker anywhere can host visits every live shard whole —
// order kept, every entry one hop on per move — rests where the hop
// budget ran out, ignores local events, and circulates again only after
// a nudge.
func TestLibraryQueueOverflowsWholeAndRests(t *testing.T) {
	const lib = "big"
	tp := newTestPlane(3, true)
	tp.libs[lib] = core.Resources{Cores: 8}
	for i := range tp.shells {
		tp.join(i, 1)
	}
	home := tp.shells[0]
	home.sched.PushInvs(testCall{Lib: lib, Spec: 1}, testCall{Lib: lib, Spec: 2, Avoid: "w0000"}, testCall{Lib: lib, Spec: 3})
	home.sched.Wake()
	var oneRound []delivery
	for hop, to := range []int{1, 2, 0} {
		for id := 1; id <= 3; id++ {
			oneRound = append(oneRound, delivery{to, fmt.Sprintf("%s#%d", lib, id), hop + 1})
		}
	}
	if !reflect.DeepEqual(tp.invsDelivered, oneRound) {
		t.Fatalf("first circulation: %+v, want %+v", tp.invsDelivered, oneRound)
	}
	rested := func() bool {
		q := home.sched.lib(lib, false).q
		return len(q) == 3 && q[0].Hops == 3 && q[1].Hops == 3 && q[1].Avoid == "w0000" && q[2].Spec == 3 && home.sched.Invs() == 3
	}
	if !rested() || !home.sched.starving.Load() || tp.starving.Load() != 1 {
		t.Fatalf("queue should rest whole in shard 0, starving: %+v (flag %v, count %d)", home.sched.lib(lib, false).q, home.sched.starving.Load(), tp.starving.Load())
	}
	if len(home.placed) != 0 || tp.shells[1].sched.Invs()+tp.shells[2].sched.Invs() != 0 {
		t.Fatalf("an unhostable library deployed or left entries behind: %v", home.placed)
	}
	home.mu.Lock()
	home.sched.MarkAll()
	home.mu.Unlock()
	home.sched.Wake()
	if len(tp.invsDelivered) != len(oneRound) {
		t.Fatalf("rested queue moved without a nudge: %+v", tp.invsDelivered[len(oneRound):])
	}
	tp.Nudge()
	if got := tp.invsDelivered[len(oneRound):]; !reflect.DeepEqual(got, oneRound) || !rested() {
		t.Fatalf("after the nudge: %+v, want one more circulation %+v", got, oneRound)
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
// queue order; each library's queue whole to its name's shard, libraries
// in name order, entries in queue order; hop counts untouched.
func TestEvacuationKeepsOrderAndHops(t *testing.T) {
	tp := newTestPlane(3, false)
	parked := tp.shells[0]
	var want, wantInvs []delivery
	for i, hops := range []int{2, 0, 3, 1, 0} {
		parked.intake = append(parked.intake, testTask{Key: TaskKey(int64(i + 1)), Hops: hops, Spec: testSpec{need: core.Resources{Cores: 1}}})
		want = append(want, delivery{1, TaskKey(int64(i + 1)), hops})
	}
	for i, lib := range []string{"zlib", "alib", "zlib", "alib", "alib", "zlib", "zlib"} {
		parked.sched.PushInvs(testCall{Lib: lib, Hops: i % 3, Spec: testInv(i)})
	}
	for _, lib := range []string{"alib", "zlib"} {
		for i, l := range []string{"zlib", "alib", "zlib", "alib", "alib", "zlib", "zlib"} {
			if l == lib {
				wantInvs = append(wantInvs, delivery{1, fmt.Sprintf("%s#%d", lib, i), i % 3})
			}
		}
	}
	parked.sched.Wake()
	if len(tp.delivered) != 0 || len(parked.sched.Tasks()) != 5 || parked.sched.Invs() != 7 || parked.sched.Passes() != 1 {
		t.Fatalf("with no worker anywhere the specs must park: delivered %+v, queue %d+%d, passes %d", tp.delivered, len(parked.sched.Tasks()), parked.sched.Invs(), parked.sched.Passes())
	}
	tp.join(1, 1)
	tp.WakeParked()
	if !reflect.DeepEqual(tp.delivered, want) {
		t.Fatalf("evacuated %+v, want %+v", tp.delivered, want)
	}
	if !reflect.DeepEqual(tp.invsDelivered, wantInvs) || parked.sched.Invs() != 0 || len(parked.sched.Tasks()) != 0 {
		t.Fatalf("library queues moved %+v, want %+v; left %d invocations and %d tasks behind", tp.invsDelivered, wantInvs, parked.sched.Invs(), len(parked.sched.Tasks()))
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
	if a.ran != 1 || a.coalesced != 1 || a.sched.Passes() != 2 || b.ran != 1 || b.coalesced != 0 {
		t.Fatalf("a: ran %d coalesced %d passes %d; b: ran %d coalesced %d — want the return delivery absorbed by a's one running loop",
			a.ran, a.coalesced, a.sched.Passes(), b.ran, b.coalesced)
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
