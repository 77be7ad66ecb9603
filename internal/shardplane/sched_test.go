package shardplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// The scheduler on bare policy.ClusterViews: no engine, only a shell
// that records what it is handed to send.

type testSpec struct {
	need   core.Resources
	inputs []core.FileSpec
}

func (p testSpec) Need() core.Resources    { return p.need }
func (p testSpec) Inputs() []core.FileSpec { return p.inputs }
func (testSpec) Tenant() string            { return "" }

// testInv is a queued invocation's payload: its spec number.
type testInv int64

func (testInv) Tenant() string { return "" }

type (
	testTask  = Task[testSpec]
	testCall  = Inv[testInv]
	testSched = Sched[testSpec, testInv]
	testRun   = Run[testSpec, testInv]
)

// delivery is one spec that crossed to shard to, flattened; an
// invocation's key is "lib#id".
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

	placed   []string // "key@worker" / "lib#id@worker" / "deploy lib@worker", in execution order
	rejected []int64
}

// testPlane is a Plane with a recording shell per shard. libs is the
// registered libraries' per-instance need (every instance has two slots)
// and files what an instance needs staged; reject the invocations Reject
// fails.
type testPlane struct {
	*Plane[testSpec, testInv]
	shells []*testShell
	libs   map[string]core.Resources
	files  map[string][]core.FileSpec
	reject map[int64]bool
}

const (
	testSlots = 2
	// testBudget is the plane's retry budget.
	testBudget = 2
)

func newTestPlane(n int) *testPlane {
	return newPlaneWith(Config{Shards: n, MaxRetries: testBudget}, policy.Options{PeerTransfers: true})
}

// newPlaneWith is newTestPlane with the plane's config and the shards'
// view options given.
func newPlaneWith(cfg Config, opts policy.Options) *testPlane {
	tp := &testPlane{Plane: NewPlane[testSpec, testInv](cfg),
		libs: map[string]core.Resources{}, files: map[string][]core.FileSpec{}, reject: map[int64]bool{}}
	for i := range tp.Shards {
		sh := &testShell{idx: i, plane: tp, view: policy.NewClusterView(opts)}
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

// freeze holds each shard's loop as if it were running, so what crosses
// to it waits in its queues for arrived to read; thaw lets shard i's loop
// run what waits there.
func (tp *testPlane) freeze(shards ...int) {
	for _, i := range shards {
		tp.Shards[i].latch.Store(latchRunning)
	}
}

func (tp *testPlane) thaw(i int) {
	tp.Shards[i].latch.Store(latchIdle)
	tp.Shards[i].Wake()
}

// arrived lists what waits in shard i's queues: its tasks in order, then
// each library's invocations in order, libraries by name.
func (tp *testPlane) arrived(i int) []delivery {
	s := tp.Shards[i]
	var out []delivery
	for _, t := range s.q {
		out = append(out, delivery{i, t.Key, t.Hops})
	}
	for _, lq := range s.order {
		for _, inv := range lq.q {
			out = append(out, delivery{i, fmt.Sprintf("%s#%d", inv.Lib, inv.Spec), inv.Hops})
		}
	}
	return out
}

// follow walks a forward chain one frozen shard at a time: at each what
// arrived is recorded before the shard is thawed to pass it on; the
// chain ends at home, whose queues are recorded last.
func (tp *testPlane) follow(home int, via ...int) []delivery {
	var got []delivery
	for _, i := range via {
		got = append(got, tp.arrived(i)...)
		tp.thaw(i)
	}
	return append(got, tp.arrived(home)...)
}

func (sh *testShell) Place(t *testTask, d policy.PlaceTask) {
	sh.placed = append(sh.placed, t.Key+"@"+d.Worker.ID)
}

// execPlacement applies a placement to the view the way the plane and a
// shell do together: the oracles' longhand.
func execPlacement(v *policy.ClusterView, t testTask, d policy.PlaceTask) string {
	d.Worker.Commit = d.Worker.Commit.Add(t.Spec.need)
	for _, sf := range d.Stages {
		v.NotePending(sf.Dst, sf.Object)
	}
	return t.Key + "@" + d.Worker.ID
}

func (sh *testShell) Library(lib string) (*policy.DeploySpec, bool) {
	need, known := sh.plane.libs[lib]
	if !known {
		return nil, false
	}
	return &policy.DeploySpec{Name: lib, Res: need, Slots: testSlots, Files: sh.plane.files[lib]}, true
}

func (sh *testShell) Stage(policy.StageFile) {}

func (sh *testShell) Resolve(_, _, _ string, d policy.ResolveDecision) bool {
	return d.Mode == policy.ResolvePeer || d.Mode == policy.ResolveShared
}

func (sh *testShell) Reject(inv testCall) bool {
	if sh.plane.reject[int64(inv.Spec)] {
		sh.rejected = append(sh.rejected, int64(inv.Spec))
		return true
	}
	return false
}

func (sh *testShell) PlaceInv(inv testCall, d policy.PlaceInvocation) {
	sh.placed = append(sh.placed, invPlaced(inv, d))
}

// invPlaced names an invocation placement as the shell records it.
func invPlaced(inv testCall, d policy.PlaceInvocation) string {
	return fmt.Sprintf("%s#%d@%s", inv.Lib, inv.Spec, d.Worker.ID)
}

// execInvPlacement takes one free ready slot the way the plane does: the
// oracles' longhand.
func execInvPlacement(v *policy.ClusterView, inv testCall, d policy.PlaceInvocation) string {
	d.Lib.SlotsUsed++
	v.SetFreeReady(d.Worker, d.Lib, d.Lib.FreeReady-1)
	return invPlaced(inv, d)
}

func (sh *testShell) Deploy(lib string, d policy.DeployLibrary) {
	sh.placed = append(sh.placed, "deploy "+lib+"@"+d.Worker.ID)
}

// execDeploy installs one instance where PlanDeploy finds room, staging
// its files, and names the worker; else "" and what blocked it.
func execDeploy(v *policy.ClusterView, lib string, need core.Resources, files []core.FileSpec) (string, []string) {
	d := v.PlanDeploy(policy.DeploySpec{Name: lib, Res: need, Files: files}, nil)
	if d.Worker == nil {
		return "", d.Blocked
	}
	return install(v, lib, d), nil
}

// install starts the instance d plans the way the plane and a shell do
// together: its evictions, its staged files, its instance and commitment
// — the oracles' longhand.
func install(v *policy.ClusterView, lib string, d policy.DeployLibrary) string {
	for _, e := range d.Evict {
		d.Worker.Commit = d.Worker.Commit.Sub(d.Worker.Libs[e.Lib].Res)
		v.RemoveLibrary(d.Worker, e.Lib)
	}
	for _, sf := range d.Stages {
		v.NotePending(sf.Dst, sf.Object)
	}
	v.AddInstance(d.Worker, &policy.LibraryView{Name: lib, Slots: testSlots, MaxInstances: 1, Res: d.Res})
	d.Worker.Commit = d.Worker.Commit.Add(d.Res)
	return d.Worker.ID
}

// The events' engine work: a joining worker has testJoinCores cores,
// and a retry's backoff is over at once.
const testJoinCores = 4

func (sh *testShell) Join(worker string) *policy.WorkerView {
	return &policy.WorkerView{ID: worker, Total: core.Resources{Cores: testJoinCores}}
}

func (sh *testShell) Leave(string) {}

func (sh *testShell) Installed(string, proto.LibraryAck)      {}
func (sh *testShell) Restage(string, proto.FileAck) bool      { return false }
func (sh *testShell) Acked(string, proto.FileAck, bool)       {}
func (sh *testShell) Refs([]policy.Rehome, []policy.RefSpill) {}

func (sh *testShell) Done(_ string, r testRun, _ core.Result, retry int) {
	if retry > 0 {
		sh.mu.Lock()
		sh.sched.Retry(r.ID())
		sh.mu.Unlock()
	}
}

// blocker is an input that, once its first copy is in flight to one
// worker, is refused as Blocked anywhere else.
var blocker = core.FileSpec{Object: &content.Object{ID: "blk", Name: "blk"}, Cache: true, PeerTransfer: true}

// TestPassMatchesPlanOneExecuteOneOracle holds the task pass, on seeded
// random queues, to the same loop written out longhand: the static
// dead-end rule by a scan of the worker table, then one PlanTask per
// task against the state its predecessors left — the shard quiet only
// while nothing runs in it, this pass's own placements included, and no
// copy is in flight.
func TestPassMatchesPlanOneExecuteOneOracle(t *testing.T) {
	quietHops, busyRefusals := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const shards = 3
		build := func() (*testPlane, []*policy.WorkerView) {
			r := rand.New(rand.NewSource(seed))
			tp := newTestPlane(shards)
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
		tp.freeze(1, 2)
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
		if got := append(tp.arrived(1), tp.arrived(2)...); !reflect.DeepEqual(got, wantFwd) {
			t.Fatalf("seed %d: forwarded %+v, oracle %+v", seed, got, wantFwd)
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
// against the state its predecessors left.
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
			tp := newTestPlane(shards)
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
							free := r.Intn(testSlots + 1)
							lv.Ready, lv.SlotsUsed = true, testSlots-free
							v.SetFreeReady(w, lv, free)
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
		tp.freeze(1, 2)
		sh := tp.shells[0]
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
				on, _ := execDeploy(v, lib, need, nil)
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
			t.Fatalf("seed %d: placed %v, oracle %v", seed, sh.placed, wantPlaced)
		}
		if !reflect.DeepEqual(sh.rejected, wantRejected) {
			t.Fatalf("seed %d: rejected %v, oracle %v", seed, sh.rejected, wantRejected)
		}
		if got := sh.sched.lib(lib, false).q; !reflect.DeepEqual(got, wantKept) && len(got)+len(wantKept) > 0 {
			t.Fatalf("seed %d: kept %+v, oracle %+v", seed, got, wantKept)
		}
		if got := append(tp.arrived(1), tp.arrived(2)...); !reflect.DeepEqual(got, wantFwd) {
			t.Fatalf("seed %d: forwarded %+v, oracle %+v", seed, got, wantFwd)
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
	tp := newTestPlane(1)
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
		sh.sched.markLib(lib)
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
	tp.LibAck(up.ID, proto.LibraryAck{Library: lib, Ok: true})
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
			sh.sched.LibAcked(w.ID, lib, false)
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
	tp := newTestPlane(1)
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

	requeued, lost := s.Died(doomed.ID, nil)

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
	s.unclaim(doomed.ID, lib)
	if again, _ := s.Died(doomed.ID, nil); again != 0 || s.claims != 1 || s.InFlight() != 2 {
		t.Fatalf("a second death notice requeued %d, left %d claims and %d in flight", again, s.claims, s.InFlight())
	}
}

// TestBackingOffSpecHoldsTheShardBusy: a spec a worker failed retryably
// is neither queued nor on any worker until Retry, yet keeps the shard
// from reading quiet — so nothing overflow-forwards past it — and Retry
// still places it after the worker it avoids has died.
func TestBackingOffSpecHoldsTheShardBusy(t *testing.T) {
	tp := newTestPlane(2)
	tp.freeze(1)
	sh, s := tp.shells[0], tp.shells[0].sched
	w := tp.join(0, 1)
	tp.join(1, 1)
	one := testSpec{need: core.Resources{Cores: 1}}
	s.Push(testTask{Key: TaskKey(1), ID: 1, Spec: one})
	s.Wake()
	if got := s.Running(w.ID); len(got) != 1 || got[0].ID() != 1 {
		t.Fatalf("task 1 should run on %s: %+v", w.ID, got)
	}
	// The worker fails it, and other work takes the core it freed, so the
	// next task is refused on capacity alone.
	sh.mu.Lock()
	r, retry, ok := s.Done(w.ID, 1, true)
	if !ok || retry != 1 || r.Task.Retries != 1 || r.Task.Avoid != w.ID {
		t.Fatalf("Done(failed) = %+v, retry %v, ok %v", r, retry, ok)
	}
	if w.Commit.Cores != 0 {
		t.Fatalf("the failed task still holds %+v", w.Commit)
	}
	w.Commit = w.Total
	if _, _, again := s.Done(w.ID, 1, true); again {
		t.Fatal("a spec backing off is still on its worker")
	}
	if s.InFlight() != 0 || s.BackingOff() != 1 || len(s.Tasks()) != 0 {
		t.Fatalf("backing off: %d in flight, %d backing off, %d queued — want 0, 1, 0", s.InFlight(), s.BackingOff(), len(s.Tasks()))
	}
	s.Push(testTask{Key: TaskKey(2), ID: 2, Spec: one})
	sh.mu.Unlock()
	s.Wake()
	if got := tp.arrived(1); len(got) != 0 || len(s.Tasks()) != 1 || s.starving.Load() {
		t.Fatalf("a refusal hopped past a backing-off spec: delivered %+v, %d queued, starving %v", got, len(s.Tasks()), s.starving.Load())
	}
	sh.mu.Lock()
	s.Retry(1)
	sh.mu.Unlock()
	s.Wake()
	// The retry leaves first, by the static rule — the only worker here is
	// the one it avoids; task 2 follows from the now quiet shard.
	if want := []delivery{{1, "task-1", 1}, {1, "task-2", 1}}; !reflect.DeepEqual(tp.arrived(1), want) || s.BackingOff() != 0 {
		t.Fatalf("once the retry landed the quiet shard should forward both: %+v, want %+v", tp.arrived(1), want)
	}

	// Again with room to place: the avoided worker dies during the backoff.
	tp = newTestPlane(1)
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
	_, cleared := sh.view.RemoveWorker(failed)
	if requeued, lost := s.Died(failed.ID, cleared); requeued != 0 || lost != nil || s.BackingOff() != 1 {
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
	tp := newTestPlane(3)
	tp.libs[lib] = core.Resources{Cores: 8}
	for i := range tp.shells {
		tp.join(i, 1)
	}
	home := tp.shells[0]
	tp.freeze(1, 2)
	home.sched.PushInvs(testCall{Lib: lib, Spec: 1}, testCall{Lib: lib, Spec: 2, Avoid: "w0000"}, testCall{Lib: lib, Spec: 3})
	home.sched.Wake()
	var oneRound []delivery
	for hop, to := range []int{1, 2, 0} {
		for id := 1; id <= 3; id++ {
			oneRound = append(oneRound, delivery{to, fmt.Sprintf("%s#%d", lib, id), hop + 1})
		}
	}
	if got := tp.follow(0, 1, 2); !reflect.DeepEqual(got, oneRound) {
		t.Fatalf("first circulation: %+v, want %+v", got, oneRound)
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
	home.sched.markAll()
	home.mu.Unlock()
	home.sched.Wake()
	if f := tp.Forwards(); f != int64(len(oneRound)) {
		t.Fatalf("rested queue moved without a nudge: %d forwards, want %d", f, len(oneRound))
	}
	tp.freeze(1, 2)
	tp.Nudge()
	if got := tp.follow(0, 1, 2); !reflect.DeepEqual(got, oneRound) || !rested() {
		t.Fatalf("after the nudge: %+v, want one more circulation %+v", got, oneRound)
	}
}

// TestOversizedTaskRestsUntilNudged: a task no worker anywhere can
// hold visits every live shard once, rests where its hop budget ran
// out, ignores local events, and circulates again only after a nudge.
func TestOversizedTaskRestsUntilNudged(t *testing.T) {
	tp := newTestPlane(3)
	for i := range tp.shells {
		tp.join(i, 1)
	}
	home := tp.shells[0]
	tp.freeze(1, 2)
	home.sched.Push(testTask{Key: TaskKey(1), Spec: testSpec{need: core.Resources{Cores: 8}}})
	home.sched.Wake()
	oneRound := []delivery{{1, "task-1", 1}, {2, "task-1", 2}, {0, "task-1", 3}}
	if got := tp.follow(0, 1, 2); !reflect.DeepEqual(got, oneRound) {
		t.Fatalf("first circulation: %+v, want %+v", got, oneRound)
	}
	if q := home.sched.Tasks(); len(q) != 1 || q[0].Hops != 3 {
		t.Fatalf("task should rest in shard 0 with its budget spent, queue %+v", q)
	}
	if !home.sched.starving.Load() || tp.starving.Load() != 1 {
		t.Fatalf("resting shard not registered as starving (flag %v, count %d)", home.sched.starving.Load(), tp.starving.Load())
	}
	// A local event re-runs the pass but moves nothing.
	home.mu.Lock()
	home.sched.dirty = true
	home.mu.Unlock()
	home.sched.Wake()
	if f := tp.Forwards(); f != int64(len(oneRound)) {
		t.Fatalf("rested task moved without a nudge: %d forwards, want %d", f, len(oneRound))
	}
	tp.freeze(1, 2)
	tp.Nudge()
	if got := tp.follow(0, 1, 2); !reflect.DeepEqual(got, oneRound) {
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
	tp := newTestPlane(3)
	tp.freeze(1)
	parked := tp.shells[0]
	var want, wantInvs []delivery
	for i, hops := range []int{2, 0, 3, 1, 0} {
		parked.sched.post(testRun{IsTask: true, Task: testTask{Key: TaskKey(int64(i + 1)), Hops: hops, Spec: testSpec{need: core.Resources{Cores: 1}}}})
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
	if f := tp.Forwards(); f != 0 || len(parked.sched.Tasks()) != 5 || parked.sched.Invs() != 7 || parked.sched.Passes() != 1 {
		t.Fatalf("with no worker anywhere the specs must park: %d forwarded, queue %d+%d, passes %d", f, len(parked.sched.Tasks()), parked.sched.Invs(), parked.sched.Passes())
	}
	tp.join(1, 1)
	tp.WakeParked()
	if got := tp.arrived(1); !reflect.DeepEqual(got, append(want, wantInvs...)) {
		t.Fatalf("evacuated %+v, want tasks %+v then library queues %+v", got, want, wantInvs)
	}
	if parked.sched.Invs() != 0 || len(parked.sched.Tasks()) != 0 || tp.Forwards() != 12 {
		t.Fatalf("left %d invocations and %d tasks behind, %d forwarded", parked.sched.Invs(), len(parked.sched.Tasks()), tp.Forwards())
	}
	if parked.sched.starving.Load() || tp.starving.Load() != 0 {
		t.Fatal("an emptied shard is still registered as starving")
	}
	tp.WakeParked() // nothing parked: no loop runs
	if ran, _ := parked.sched.Wakes(); ran != 2 {
		t.Fatalf("WakeParked woke a shard with nothing queued (%d loop runs)", ran)
	}
}

// TestReentrantWakeCoalesces: a forward chain that comes back to a
// shard whose loop is running is absorbed by the latch, and the
// running loop picks the delivery up on its next look.
func TestReentrantWakeCoalesces(t *testing.T) {
	tp := newTestPlane(2)
	a, b := tp.shells[0], tp.shells[1]
	tp.join(0, 1)
	tp.join(1, 1)
	a.sched.Push(testTask{Key: TaskKey(1), Spec: testSpec{need: core.Resources{Cores: 8}}})
	a.sched.Wake()
	// Two forwards over two shards, resting at home with two hops: the
	// chain went 0 → 1 → 0.
	if f := tp.Forwards(); f != 2 {
		t.Fatalf("chain of %d forwards, want 0 → 1 → 0", f)
	}
	aRan, aAbsorbed := a.sched.Wakes()
	bRan, bAbsorbed := b.sched.Wakes()
	if aRan != 1 || aAbsorbed != 1 || a.sched.Passes() != 2 || bRan != 1 || bAbsorbed != 0 {
		t.Fatalf("a: ran %d coalesced %d passes %d; b: ran %d coalesced %d — want the return delivery absorbed by a's one running loop",
			aRan, aAbsorbed, a.sched.Passes(), bRan, bAbsorbed)
	}
	if q := a.sched.Tasks(); len(q) != 1 || q[0].Hops != 2 || !a.sched.Settled() || !b.sched.Settled() {
		t.Fatalf("task should rest in shard 0 with both loops idle, queue %+v", q)
	}
}

// TestConcurrentWakesLoseNothing: many goroutines submit — post to the
// intake and wake; when the last Wake has returned every item has been
// drained and the loop is idle.
func TestConcurrentWakesLoseNothing(t *testing.T) {
	tp := newTestPlane(1)
	sh := tp.shells[0]
	const producers, each = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				id := int64(p*each + k + 1)
				tp.Submit(testRun{IsTask: true, Task: testTask{Key: TaskKey(id), ID: id, Spec: testSpec{need: core.Resources{Cores: 1}}}})
			}
		}(p)
	}
	wg.Wait()
	if got := len(sh.sched.Tasks()); got != producers*each || !sh.sched.Settled() {
		t.Fatalf("%d of %d specs reached the queue, idle=%v", got, producers*each, sh.sched.Settled())
	}
	if ran, absorbed := sh.sched.Wakes(); ran+absorbed != producers*each || ran < 1 {
		t.Fatalf("ran %d + coalesced %d wakes, want %d in all", ran, absorbed, producers*each)
	}
}

// ---- the intake ----

// intakeItem identifies one posted spec for the cross-check: producer
// p's k-th submission.
type intakeItem struct{ p, k int }

// mutexIntake is the reference the lock-free intake is cross-checked
// against: a mutex-guarded append. Its guarantee — every item appears
// exactly once, and one producer's items drain in the order that
// producer posted them — is the contract the intake must preserve.
type mutexIntake struct {
	mu sync.Mutex
	q  []intakeItem
}

func (m *mutexIntake) push(it intakeItem) {
	m.mu.Lock()
	m.q = append(m.q, it)
	m.mu.Unlock()
}

func (m *mutexIntake) drain() []intakeItem {
	m.mu.Lock()
	out := m.q
	m.q = nil
	m.mu.Unlock()
	return out
}

// runIntakeWorkload pushes producers×perProducer items through push
// while a concurrent drainer calls drain until everything arrived,
// returning the drained items in drain order.
func runIntakeWorkload(t *testing.T, producers, perProducer int, push func(intakeItem), drain func() []intakeItem) []intakeItem {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				push(intakeItem{p: p, k: k})
			}
		}(p)
	}
	var got []intakeItem
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for len(got) < producers*perProducer {
			got = append(got, drain()...)
			if time.Now().After(deadline) {
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if len(got) != producers*perProducer {
		t.Fatalf("drained %d of %d items", len(got), producers*perProducer)
	}
	return got
}

// perProducerOrder projects the drain order onto one producer's items.
func perProducerOrder(items []intakeItem, producers int) [][]int {
	seqs := make([][]int, producers)
	for _, it := range items {
		seqs[it.p] = append(seqs[it.p], it.k)
	}
	return seqs
}

// TestIntakeConcurrentSubmitDrain floods one shard's intake from many
// producers while a concurrent consumer drains it, and cross-checks the
// result against the mutex reference: same item multiset, same
// per-producer FIFO order.
func TestIntakeConcurrentSubmitDrain(t *testing.T) {
	const producers, perProducer = 8, 500
	sh := newTestPlane(1).shells[0]
	push := func(it intakeItem) {
		id := int64(it.p*perProducer + it.k)
		sh.sched.post(testRun{Inv: testCall{Lib: fmt.Sprintf("lib%d", it.p), ID: id, Spec: testInv(id)}})
	}
	drain := func() []intakeItem {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.sched.drain()
		var out []intakeItem
		for p := 0; p < producers; p++ {
			for _, inv := range sh.sched.DrainLib(fmt.Sprintf("lib%d", p)) {
				id := int(inv.Spec)
				out = append(out, intakeItem{p: id / perProducer, k: id % perProducer})
			}
		}
		return out
	}
	got := runIntakeWorkload(t, producers, perProducer, push, drain)

	// Reference run: same workload through the mutex version.
	ref := &mutexIntake{}
	want := runIntakeWorkload(t, producers, perProducer, ref.push, ref.drain)

	gotSeqs := perProducerOrder(got, producers)
	wantSeqs := perProducerOrder(want, producers)
	for p := 0; p < producers; p++ {
		if len(gotSeqs[p]) != perProducer || len(wantSeqs[p]) != perProducer {
			t.Fatalf("producer %d: drained %d items lock-free, %d mutex (want %d)", p, len(gotSeqs[p]), len(wantSeqs[p]), perProducer)
		}
		for k := 0; k < perProducer; k++ {
			if gotSeqs[p][k] != k {
				t.Fatalf("producer %d: lock-free intake reordered item %d to position %d", p, gotSeqs[p][k], k)
			}
			if wantSeqs[p][k] != k {
				t.Fatalf("producer %d: mutex reference reordered item %d to position %d", p, wantSeqs[p][k], k)
			}
		}
	}
}

// TestIntakeMixedTasksAndInvocations drains a racing mix of tasks and
// invocations and checks both kinds land in their queues in
// per-producer order.
func TestIntakeMixedTasksAndInvocations(t *testing.T) {
	const producers, perProducer = 4, 300
	sh := newTestPlane(1).shells[0]
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				id := int64(p*perProducer + k)
				if k%2 == 0 {
					sh.sched.post(testRun{IsTask: true, Task: testTask{Key: TaskKey(id), ID: id}})
				} else {
					sh.sched.post(testRun{Inv: testCall{Lib: "lib", ID: id, Spec: testInv(id)}})
				}
			}
		}(p)
	}
	wg.Wait()
	sh.mu.Lock()
	sh.sched.drain()
	if sh.sched.Settled() {
		t.Fatal("drain did not mark the drained queues dirty")
	}
	tasks, invs := sh.sched.Tasks(), sh.sched.DrainLib("lib")
	sh.mu.Unlock()
	if len(tasks)+len(invs) != producers*perProducer {
		t.Fatalf("drained %d tasks + %d invs, want %d total", len(tasks), len(invs), producers*perProducer)
	}
	lastK := map[int]int{}
	for _, pt := range tasks {
		p, k := int(pt.ID)/perProducer, int(pt.ID)%perProducer
		if prev, ok := lastK[p]; ok && k <= prev {
			t.Fatalf("producer %d: task %d drained after item %d", p, k, prev)
		}
		lastK[p] = k
	}
	lastK = map[int]int{}
	for _, pi := range invs {
		p, k := int(pi.ID)/perProducer, int(pi.ID)%perProducer
		if prev, ok := lastK[p]; ok && k <= prev {
			t.Fatalf("producer %d: invocation %d drained after item %d", p, k, prev)
		}
		lastK[p] = k
	}
}

// ---- the event verbs ----

// envFile and datFile are the cacheable inputs the verb tests block on.
var (
	envFile = core.FileSpec{Object: &content.Object{ID: "env", Name: "env"}, Cache: true, PeerTransfer: true}
	datFile = core.FileSpec{Object: &content.Object{ID: "dat", Name: "dat"}, Cache: true, PeerTransfer: true}
)

// marks reports which queues are marked: the task queue, then each
// library's by name ("*": all of them).
func marks(s *testSched) []string {
	var out []string
	if s.dirty {
		out = append(out, "tasks")
	}
	if s.allLibs {
		out = append(out, "*")
	}
	for _, lq := range s.order {
		if lq.dirty {
			out = append(out, lq.name)
		}
	}
	return out
}

// TestFileAckMarksExactlyWhatItsObjectBlocked: a task refused over the
// environment's first copy in flight, a deploy refused over the same
// copy and another over a second object each wait on their own object;
// an ack marks exactly the queues its object held up, once.
func TestFileAckMarksExactlyWhatItsObjectBlocked(t *testing.T) {
	tp := newTestPlane(1)
	sh, s := tp.shells[0], tp.shells[0].sched
	tp.libs["la"], tp.files["la"] = core.Resources{Cores: 1}, []core.FileSpec{envFile}
	tp.libs["lb"], tp.files["lb"] = core.Resources{Cores: 1}, []core.FileSpec{datFile}
	fetching := tp.join(0, 1)
	fetching.Commit.Cores = 1
	tp.join(0, 2)
	sh.view.NotePending(fetching, "env")
	sh.view.NotePending(fetching, "dat")
	s.Push(testTask{Key: TaskKey(1), ID: 1, Spec: testSpec{need: core.Resources{Cores: 1}, inputs: []core.FileSpec{envFile}}})
	s.PushInvs(testCall{Lib: "la", ID: 2, Spec: 2}, testCall{Lib: "lb", ID: 3, Spec: 3})
	s.Wake()
	if len(sh.placed) != 0 || len(s.Tasks()) != 1 || s.Invs() != 2 || !s.Settled() {
		t.Fatalf("every queue should wait on a first copy: placed %v, %d tasks, %d invocations", sh.placed, len(s.Tasks()), s.Invs())
	}
	for _, ack := range []struct {
		obj  string
		want []string
	}{{"other", nil}, {"env", []string{"tasks", "la"}}, {"env", nil}, {"dat", []string{"lb"}}} {
		s.FileAcked(ack.obj)
		if got := marks(s); !reflect.DeepEqual(got, ack.want) {
			t.Fatalf("ack of %s marked %v, want %v", ack.obj, got, ack.want)
		}
		s.dirty, s.libsDirty = false, false
		for _, lq := range s.order {
			lq.dirty = false
		}
	}
	if len(s.waiting) != 0 {
		t.Fatalf("acked objects still hold waiters: %v", s.waiting)
	}
}

// TestDeathWakesTheWaitersOfItsClearedCopies: a death that clears an
// object's last copy in flight releases what waited on it — the copy will
// never confirm — while one that leaves another copy in flight does not,
// and the task then stages directly on the survivor.
func TestDeathWakesTheWaitersOfItsClearedCopies(t *testing.T) {
	tp := newTestPlane(1)
	sh, s := tp.shells[0], tp.shells[0].sched
	a, b := tp.join(0, 1), tp.join(0, 1)
	a.Commit.Cores, b.Commit.Cores = 1, 1
	survivor := tp.join(0, 1)
	sh.view.NotePending(a, "env")
	sh.view.NotePending(b, "env")
	s.Push(testTask{Key: TaskKey(1), ID: 1, Spec: testSpec{need: core.Resources{Cores: 1}, inputs: []core.FileSpec{envFile}}})
	s.Wake()
	if len(sh.placed) != 0 || s.waiting["env"] == nil || !s.waiting["env"].tasks {
		t.Fatalf("the task should wait on env's copies in flight: placed %v, waiting %v", sh.placed, s.waiting)
	}
	die := func(w *policy.WorkerView) {
		sh.mu.Lock()
		tp.Remove(w.ID)
		_, cleared := sh.view.RemoveWorker(w)
		s.Died(w.ID, cleared)
		sh.mu.Unlock()
	}
	die(a)
	if s.waiting["env"] == nil {
		t.Fatal("a death that left a copy of env in flight released its waiters")
	}
	die(b)
	if s.waiting["env"] != nil {
		t.Fatal("a death that cleared env's last copy in flight kept its waiters")
	}
	s.Wake()
	if want := []string{"task-1@" + survivor.ID}; !reflect.DeepEqual(sh.placed, want) {
		t.Fatalf("placed %v, want %v", sh.placed, want)
	}
}

// verbEvent is one scripted engine event: its effect on an engine's view
// and the verb that reports it, under the shard lock; false if it does
// not apply.
type verbEvent func(tp *testPlane) bool

// TestEventVerbsPlaceAsMarkingEverythingWould keeps, as a reference, the
// rule sim.Replay ran before the verbs: after any event, mark every
// queue. Seeded random event scripts — submissions, joins, deaths, file
// acks ok and failed, library acks ok and failed, results and retryable
// failures — drive two single-shard planes over bare views, one woken
// after each verb, the other after marking everything too. The
// placements must be identical event by event: a precise mark never
// misses a queue a pass would have served.
func TestEventVerbsPlaceAsMarkingEverythingWould(t *testing.T) {
	placed, woken := 0, 0
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		precise, all := newTestPlane(1), newTestPlane(1)
		for _, tp := range []*testPlane{precise, all} {
			tp.libs["la"], tp.files["la"] = core.Resources{Cores: 1}, []core.FileSpec{envFile}
			tp.libs["lb"], tp.files["lb"] = core.Resources{Cores: 2}, []core.FileSpec{datFile}
		}
		next := int64(0)
		for step := 0; step < 120; step++ {
			ev, what := scriptEvent(rng, precise, &next)
			if ev == nil {
				continue
			}
			if w := precise.Shards[0].waiting; len(what) > 4 && what[:4] == "ack " && w[what[4:]] != nil {
				woken++
			}
			for _, tp := range []*testPlane{precise, all} {
				sh := tp.shells[0]
				sh.mu.Lock()
				if !ev(tp) {
					t.Fatalf("seed %d step %d: %s does not apply to both planes", seed, step, what)
				}
				if tp == all {
					sh.sched.markAll()
				}
				sh.mu.Unlock()
				sh.sched.Wake()
			}
			if p, a := precise.shells[0].placed, all.shells[0].placed; !reflect.DeepEqual(p, a) {
				t.Fatalf("seed %d step %d (%s): precise marks placed %v, marking everything %v", seed, step, what, p, a)
			}
		}
		placed += len(precise.shells[0].placed)
	}
	if placed < 1000 || woken < 50 {
		t.Fatalf("degenerate scripts: %d placements, %d acks woke a waiting queue", placed, woken)
	}
}

// scriptEvent draws the next event against tp's state, naming it.
func scriptEvent(rng *rand.Rand, tp *testPlane, next *int64) (verbEvent, string) {
	v, s := tp.shells[0].view, tp.Shards[0]
	pick := func() *policy.WorkerView {
		if len(v.Sorted) == 0 {
			return nil
		}
		return v.Sorted[rng.Intn(len(v.Sorted))]
	}
	switch k := rng.Intn(14); {
	case k < 3:
		*next++
		id := *next
		task := testTask{Key: TaskKey(id), ID: id, Spec: testSpec{need: core.Resources{Cores: 1 + rng.Intn(2)}}}
		if rng.Intn(3) > 0 {
			task.Spec.inputs = append(task.Spec.inputs, envFile)
		}
		if rng.Intn(3) == 0 {
			task.Spec.inputs = append(task.Spec.inputs, datFile)
		}
		return func(tp *testPlane) bool { tp.Shards[0].post(testRun{IsTask: true, Task: task}); return true }, "submit " + task.Key
	case k < 5:
		*next++
		inv := testCall{Lib: []string{"la", "lb"}[rng.Intn(2)], ID: *next, Spec: testInv(*next)}
		return func(tp *testPlane) bool { tp.Shards[0].post(testRun{Inv: inv}); return true }, fmt.Sprintf("submit %s#%d", inv.Lib, inv.ID)
	case k < 6:
		cores := []int{1, 2, 4}[rng.Intn(3)]
		return func(tp *testPlane) bool { tp.join(0, cores); tp.Shards[0].Joined(); return true }, "join"
	case k < 7:
		w := pick()
		if w == nil || len(v.Sorted) < 2 {
			return nil, ""
		}
		id := w.ID
		return func(tp *testPlane) bool {
			s := tp.Shards[0]
			if s.view.Workers[id] == nil {
				return false
			}
			tp.Remove(id)
			s.Died(id, s.remove(id))
			return true
		}, "kill " + id
	case k < 9:
		w := pick()
		if w == nil || len(w.Pending) == 0 {
			return nil, ""
		}
		objs := core.SortedKeys(w.Pending)
		id, obj, ok := w.ID, objs[rng.Intn(len(objs))], rng.Intn(4) > 0
		return func(tp *testPlane) bool {
			s := tp.Shards[0]
			if w := s.view.Workers[id]; w == nil || !w.Pending[obj] {
				return false
			}
			s.fileAck(id, proto.FileAck{ID: obj, Ok: ok, Cache: true})
			return true
		}, "ack " + obj
	case k < 10:
		w := pick()
		if w == nil {
			return nil, ""
		}
		var lib string
		for _, name := range core.SortedKeys(w.Libs) {
			if lv := w.Libs[name]; !lv.Ready && w.Files[tp.files[name][0].Object.ID] {
				lib = name
			}
		}
		if lib == "" {
			return nil, ""
		}
		id, ok := w.ID, rng.Intn(4) > 0
		return func(tp *testPlane) bool {
			v := tp.shells[0].view
			w := v.Workers[id]
			if w == nil || w.Libs[lib] == nil || w.Libs[lib].Ready {
				return false
			}
			return tp.Shards[0].LibAcked(id, lib, ok)
		}, "lib ack " + lib
	default:
		w := pick()
		if w == nil || len(s.Running(w.ID)) == 0 {
			return nil, ""
		}
		runs := s.Running(w.ID)
		id, spec, failed := w.ID, runs[rng.Intn(len(runs))].ID(), k == 13
		return func(tp *testPlane) bool {
			s := tp.Shards[0]
			_, retry, ok := s.Done(id, spec, failed)
			if !ok {
				return false
			}
			if retry > 0 {
				s.Retry(spec)
			}
			return true
		}, fmt.Sprintf("result %d", spec)
	}
}

// TestPlaneOwnsCapacity runs TestEventVerbsPlaceAsMarkingEverythingWould's
// seeded event scripts on a plane whose shell writes nothing in the view,
// and after every event holds the view to what the in-flight table and
// the copy records say: each worker commits its running tasks' needs plus
// its instances' resources, each instance holds one slot per invocation
// running on it, and it offers the others only once it is ready; each
// worker's TransfersOut is the copies in flight that name it as source,
// and the manager sends the copies that name none.
func TestPlaneOwnsCapacity(t *testing.T) {
	busy, ready, tasks, serving := 0, 0, 0, 0
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp := newTestPlane(1)
		tp.libs["la"], tp.files["la"] = core.Resources{Cores: 1}, []core.FileSpec{envFile}
		tp.libs["lb"], tp.files["lb"] = core.Resources{Cores: 2}, []core.FileSpec{datFile}
		sh, s := tp.shells[0], tp.Shards[0]
		next := int64(0)
		for step := 0; step < 120; step++ {
			ev, what := scriptEvent(rng, tp, &next)
			if ev == nil {
				continue
			}
			sh.mu.Lock()
			if !ev(tp) {
				t.Fatalf("seed %d step %d: %s does not apply", seed, step, what)
			}
			sh.mu.Unlock()
			s.Wake()
			sh.mu.Lock()
			out, direct := map[*policy.WorkerView]int{}, 0
			for k, src := range s.sources {
				if w := sh.view.Workers[k.dst]; w == nil || !w.Pending[k.obj] {
					t.Fatalf("seed %d step %d (%s): %s's copy of %s has a source but is not in flight", seed, step, what, k.dst, k.obj)
				}
				if src == nil {
					direct++
				} else {
					out[src]++
				}
			}
			if sh.view.ManagerSends != direct {
				t.Fatalf("seed %d step %d (%s): %d manager sends counted, %d copies in flight from the manager", seed, step, what, sh.view.ManagerSends, direct)
			}
			for _, w := range sh.view.Sorted {
				if w.TransfersOut != out[w] {
					t.Fatalf("seed %d step %d (%s): %s serves %d transfers, %d copies in flight name it as source", seed, step, what, w.ID, w.TransfersOut, out[w])
				}
				if w.TransfersOut > 0 {
					serving++
				}
				var commit core.Resources
				running := map[string]int{}
				for _, r := range s.Running(w.ID) {
					if r.IsTask {
						commit = commit.Add(r.Task.Spec.need)
						tasks++
					} else {
						running[r.Inv.Lib]++
					}
				}
				for _, lib := range core.SortedKeys(running) {
					if w.Libs[lib] == nil {
						t.Fatalf("seed %d step %d (%s): %d invocations of %s run on %s, which holds no instance", seed, step, what, running[lib], lib, w.ID)
					}
				}
				for _, lib := range core.SortedKeys(w.Libs) {
					lv := w.Libs[lib]
					commit = commit.Add(lv.Res)
					if lv.SlotsUsed != running[lib] {
						t.Fatalf("seed %d step %d (%s): %s's %s uses %d slots, %d invocations run there", seed, step, what, w.ID, lib, lv.SlotsUsed, running[lib])
					}
					want := 0
					if lv.Ready {
						want = lv.Slots - lv.SlotsUsed
						ready++
					}
					if lv.FreeReady != want {
						t.Fatalf("seed %d step %d (%s): %s's %s offers %d free slots, want %d (ready %v, %d of %d used)", seed, step, what, w.ID, lib, lv.FreeReady, want, lv.Ready, lv.SlotsUsed, lv.Slots)
					}
					if lv.SlotsUsed > 0 {
						busy++
					}
				}
				if w.Commit != commit {
					t.Fatalf("seed %d step %d (%s): %s commits %+v, what runs there %+v", seed, step, what, w.ID, w.Commit, commit)
				}
			}
			sh.mu.Unlock()
		}
	}
	if busy < 500 || ready < 1000 || tasks < 1000 || serving < 100 {
		t.Fatalf("degenerate scripts: %d busy instances, %d ready, %d running tasks, %d serving workers checked", busy, ready, tasks, serving)
	}
	t.Logf("checked %d busy instances, %d ready, %d running tasks, %d serving workers", busy, ready, tasks, serving)
}
