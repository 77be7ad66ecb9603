package sim

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/shardplane"
)

// Replay drives the simulator's scheduling state machine from an
// explicit event sequence instead of the virtual clock. Placement,
// staging and deploy decisions still come from the shared policy core
// against live ClusterViews; what Replay removes is time — the caller
// says when transfers land (or fail), libraries come up, workers join
// and die, and invocations finish. It is the manager's architecture
// (DESIGN.md §12) without sockets or locks, and answers every event the
// manager can see:
//
//   - globally it holds what the manager holds globally: the router
//     (every worker lives in exactly one shard, tasks route to the
//     shard owning their ring key, invocations round-robin across live
//     shards), the spec and worker counters, one submission plane and
//     one ref catalog;
//   - per shard (replayShard) it holds a cluster view, the pending
//     queues, the intake and a coalesced wake loop, and between local
//     passes it runs the shard-crossing paths — overflow forwarding,
//     evacuation of workerless shards, starvation nudges — exactly
//     where the manager's wake loop does.
//
// One shard is the degenerate case: nothing to forward to, nothing to
// nudge. The differential harness (internal/manager) feeds one event
// trace through a Replay and through the real manager and diffs the
// plane stream, the ref stream, each shard's trace and the merged
// trace line for line.
type Replay struct {
	cfg    Config
	shards []*replayShard
	router *shardplane.Router
	// nextID numbers specs globally — the manager's nextID counter,
	// shared by tasks and invocations — so ring keys, owner IDs and
	// round-robin routing agree across engines whatever the mix.
	nextID int
	// nextWorker numbers workers globally ("wNNNN", dead IDs never
	// reused). A worker's locality cluster is a function of this index,
	// as the manager's is a function of the worker's Hello — not of the
	// shard count.
	nextWorker int
	// home maps each live worker to its shard.
	home map[string]*replayShard
	// plane is the submission plane (cfg.Tenants): one plane in front
	// of all shards with its own recorder — the manager's plane trace is
	// a separate stream from the shard traces. Specs released by the
	// fair-share drain route to shard intake queues (routePlane) as the
	// manager's submitPlane.route pushes them; fed lists the shards fed
	// and not yet woken, in first-fed order.
	plane *policy.TenantPlane[simIntake]
	fed   []*replayShard
	// refs is the one ref catalog (refs.go), shared by every shard's
	// state as the manager's ref plane is shared by every shard.
	refs *simRefs
}

// replayShard is one shard's scheduling state and wake-loop marks.
type replayShard struct {
	idx int
	st  *state
	// pendq is the keyed pending-task queue (task workloads): ring keys
	// are assigned at submission — mirroring the manager, which assigns
	// task IDs in Submit — and requeued verbatim on worker death or
	// retryable failure, carrying the failed worker as the avoid
	// preference. Invocation workloads keep the plain counter
	// (st.pending): invocations of one library are interchangeable.
	pendq []replayTask
	// intake mirrors the manager's lock-free submit intake: routed
	// specs queue here rather than going straight into the pending
	// queues, and the wake loop drains them (in submission order) at
	// the top of each pass — so the decision order stays byte-identical
	// to the manager's MPSC hand-off.
	intake []simIntake
	// dirty and scheduling implement the manager's coalescing rule: a
	// wake arriving while the loop runs leaves its mark and returns;
	// the running loop observes it on the re-check.
	dirty      bool
	scheduling bool
	// starving mirrors the manager's starvation registry entry: queued
	// work survives a wake with nothing in flight locally, so only a
	// capacity event in another shard (nudge) can unblock it.
	starving bool
}

type replayTask struct {
	key   string
	avoid string
	// hops counts overflow forwards: once a task has visited every
	// shard without placing it rests until a membership change or
	// starvation nudge resets the budget — the manager's
	// pendingTask.hops.
	hops int
	// tenant names the submitting tenant (requeued verbatim, like the
	// manager's pendingTask.t.TenantID) so completions release the
	// right quota.
	tenant string
	// refs are proxy-object input IDs (§15): the task's inputs are the
	// environment plus one RefSpec per entry, resolved through the ref
	// catalog at stage execution. Requeued verbatim, like the manager
	// requeueing the task spec whose Inputs carry the refs.
	refs []string
}

// simIntake is one submitted spec on its way to a shard's pending
// state — waiting in the submission plane, then in a shard's intake
// queue: a task by ring key, or (isTask false) one pooled invocation
// carrying its owner ref (tenant runs thread identity through the
// pool).
type simIntake struct {
	isTask bool
	task   replayTask
	ref    specRef
}

// NewReplay builds an untimed simulation over shards partitions;
// shards < 1 means shardplane.DefaultShards, as manager.New reads
// Options.Shards. cfg.Workers initial workers join through the event
// surface (global numbering, shard routing). cfg.Invocations is ignored
// (work arrives via Submit) and so is cfg.DecisionTrace: every shard
// records into a recorder of its own.
func NewReplay(cfg Config, shards int) *Replay {
	if shards < 1 {
		shards = shardplane.DefaultShards
	}
	cfg.defaults()
	cfg.Invocations = 0
	r := &Replay{
		cfg:    cfg,
		router: shardplane.NewRouter(shards),
		home:   map[string]*replayShard{},
		refs:   newSimRefs(cfg.RefOwnedBytesCap),
	}
	if len(cfg.Tenants) > 0 {
		r.plane = policy.NewTenantPlane[simIntake](cfg.Tenants, &policy.Recorder{})
	}
	for i := 0; i < shards; i++ {
		scfg := cfg
		scfg.DecisionTrace = &policy.Recorder{}
		st := newState(scfg, true)
		st.refs = r.refs
		st.trackOwners = r.plane != nil
		r.shards = append(r.shards, &replayShard{idx: i, st: st})
	}
	for i := 0; i < cfg.Workers; i++ {
		r.AddWorker()
	}
	return r
}

func (r *Replay) lib() string { return r.shards[0].st.lib }

// ---- the wake loop and the shard-crossing paths ----

// kick marks shard sh dirty and runs its wake loop — what every local
// event handler of the manager ends in.
func (r *Replay) kick(sh *replayShard) {
	sh.dirty = true
	r.wake(sh)
}

// wake runs sh's coalesced schedule loop — the manager's shard.wake
// without the locking. A re-entrant call (a forward chain arriving back
// here) finds scheduling set and returns; its dirty mark or intake is
// picked up by the running loop's re-check. Termination: hop counters
// only grow within a nudge epoch, so forward chains die out.
func (r *Replay) wake(sh *replayShard) {
	if sh.scheduling {
		return
	}
	sh.scheduling = true
	for {
		sh.drainIntake()
		if !sh.dirty {
			break
		}
		// Evacuation: a workerless shard can place nothing and no local
		// event will change that — its queues leave for live shards
		// before the pass snapshot. Routing cannot pick a workerless
		// shard, so this never cycles back here.
		if len(sh.st.byID) == 0 && sh.pending() > 0 && r.router.Live() > 0 {
			r.forwardEvacuated(sh.extractPending())
			continue
		}
		sh.dirty = false
		if r.cfg.Level == core.L3 {
			// Invocation pools never overflow-forward on saturation
			// (only the static no-worker-ever-fits rule moves them, and
			// a one-slot instance fits any live worker; the workerless
			// case evacuated above). The local pass is the whole pass.
			sh.drainInvs()
			continue
		}
		next, hasNext := r.router.NextAlive(sh.idx)
		if forward := sh.drainTasks(hasNext, len(r.shards)); len(forward) > 0 {
			r.forwardTasksTo(r.shards[next], forward)
		}
	}
	sh.starving = sh.pending() > 0 && sh.quiet()
	sh.scheduling = false
}

// routeTask delivers a task to the shard owning its ring key — or, in
// an empty cluster, parks it in the key's home shard (shardplane
// routing rules, shared verbatim with the manager). Like the manager's
// routeTask, the spec goes through the shard's intake queue and the
// wake loop moves it into the pending queue.
func (r *Replay) routeTask(pt replayTask) {
	sh := r.shards[r.router.KeyShard(pt.key)]
	sh.intake = append(sh.intake, simIntake{isTask: true, task: pt})
	r.wake(sh)
}

// routeInv delivers one invocation to a live shard by round-robin over
// its spec ID, parking in the library's home shard when no worker is
// live anywhere. Intake hand-off, like routeTask.
func (r *Replay) routeInv(ref specRef) {
	sh := r.shards[r.router.InvShard(ref.id, r.lib())]
	sh.intake = append(sh.intake, simIntake{ref: ref})
	r.wake(sh)
}

// forwardTasksTo moves overflow tasks into a target shard's queue and
// wakes it — the manager's forwardTasksTo.
func (r *Replay) forwardTasksTo(sh *replayShard, tasks []replayTask) {
	sh.pendq = append(sh.pendq, tasks...)
	r.kick(sh)
}

// forwardEvacuated re-routes an evacuated shard's specs: tasks
// individually by ring key (hop counts preserved), the invocation pool
// whole — count and owner FIFO, in order — to the library's owner
// shard, the manager's forwardEvacuated.
func (r *Replay) forwardEvacuated(tasks []replayTask, invs int, owners []specRef) {
	for _, pt := range tasks {
		r.routeTask(pt)
	}
	if invs > 0 {
		sh := r.shards[r.router.KeyShard(r.lib())]
		sh.st.pending += invs
		for _, ref := range owners {
			sh.st.pushOwner(ref)
		}
		r.kick(sh)
	}
}

// wakeParked nudges every workerless shard holding queued specs after
// a join: its wake loop evacuates them to live shards.
func (r *Replay) wakeParked() {
	for _, sh := range r.shards {
		if len(sh.st.byID) == 0 && sh.pending() > 0 {
			r.kick(sh)
		}
	}
}

// nudgeStarving wakes every starving shard after a capacity-freeing
// event anywhere, resetting overflow hop budgets so rested work
// circulates again. The starving set is snapshotted first (the
// manager's rule), then drained in shard-index order — the manager's
// map order is unordered but its wakes commute.
func (r *Replay) nudgeStarving() {
	var starving []*replayShard
	for _, sh := range r.shards {
		if sh.starving {
			starving = append(starving, sh)
		}
	}
	for _, sh := range starving {
		for j := range sh.pendq {
			sh.pendq[j].hops = 0
		}
		r.kick(sh)
	}
}

// routePlane appends one fair-share-released spec to its shard's
// intake queue — the manager's submitPlane.route. Invocations route by
// the tenant's own cursor (Router.TenantInvShard); tasks keep ring-key
// locality.
func (r *Replay) routePlane(it simIntake, tenant string, seq int64) {
	var idx int
	if it.isTask {
		idx = r.router.KeyShard(it.task.key)
	} else {
		idx = r.router.TenantInvShard(tenant, seq, r.lib())
	}
	sh := r.shards[idx]
	sh.intake = append(sh.intake, it)
	if !slices.Contains(r.fed, sh) {
		r.fed = append(r.fed, sh)
	}
}

// wakeFed wakes the shards a plane drain fed, in first-fed order — the
// manager's wakeShards.
func (r *Replay) wakeFed() {
	fed := r.fed
	r.fed = nil
	for _, sh := range fed {
		r.wake(sh)
	}
}

// ---- one shard's passes ----

// pending reports the specs queued in this shard.
func (sh *replayShard) pending() int { return sh.st.pending + len(sh.pendq) }

// drainIntake replays queued intake items into the shard's pending
// state, marking it dirty — the manager's drainIntakeLocked.
func (sh *replayShard) drainIntake() {
	if len(sh.intake) == 0 {
		return
	}
	for _, it := range sh.intake {
		if it.isTask {
			sh.pendq = append(sh.pendq, it.task)
			continue
		}
		sh.st.pending++
		if sh.st.trackOwners {
			sh.st.pushOwner(it.ref)
		}
	}
	sh.intake = sh.intake[:0]
	sh.dirty = true
}

// drainInvs places pending invocations until the policy core reports
// no placement is possible — scheduleLibQueueLocked's skip-and-stop
// pass (every queued invocation of the one library would hit the same
// cluster state, so the first failure ends the pass).
func (sh *replayShard) drainInvs() {
	st := sh.st
	if st.cfg.Batched && st.pending > 0 {
		// The same pass through the batched entry point the manager
		// uses: one PlaceReadyBatch call covers the whole pool (its
		// overlay stops exactly where sequential execution would), and
		// the remainder tries deploys one at a time — an instance
		// deployed mid-pass is not Ready until its ack, so no ready
		// capacity can appear between the batch and the deploys.
		for _, d := range st.view.PlaceReadyBatch(st.lib, st.pending, nil) {
			st.execReady(d)
		}
		for st.pending > 0 && st.tryDeploy() != nil {
		}
		return
	}
	for st.pending > 0 && st.place() != nil {
	}
}

// drainTasks runs one skip-and-continue pass over the keyed queue — the
// manager's scheduleTasksLocked: a task that cannot place is skipped in
// place, later tasks still get their try, and queue order is preserved
// (it matters once requeues make the queue heterogeneous: different
// keys, different avoid preferences). With another live shard to hop to
// (hasNext), statically ineligible tasks leave before planning — the
// avoid fallback would otherwise pin them to the avoided worker forever
// — and planner failures leave only while the shard is quiet, no local
// event ever going to free capacity, and within the hop budget. Returns
// the tasks to forward.
func (sh *replayShard) drainTasks(hasNext bool, maxHops int) (forward []replayTask) {
	if len(sh.pendq) == 0 {
		return nil
	}
	if hasNext {
		keep := sh.pendq[:0]
		for _, pt := range sh.pendq {
			if pt.hops < maxHops && !sh.anyEligible(pt.avoid) {
				pt.hops++
				forward = append(forward, pt)
				continue
			}
			keep = append(keep, pt)
		}
		sh.pendq = keep
		if len(sh.pendq) == 0 {
			return forward
		}
	}
	// Batched mode plans the whole queue up front (the manager's
	// PlanTaskBatch call); unbatched plans each task against the
	// executed state of its predecessors. The batch contract is strict
	// sequential equivalence, so the decision streams are identical —
	// batched_test.go proves it — and quiet() is evaluated at the same
	// point either way: during execution, after every earlier placement
	// in the pass has landed.
	var decisions []policy.PlaceTask
	if sh.st.cfg.Batched {
		reqs := make([]policy.TaskReq, len(sh.pendq))
		for i, pt := range sh.pendq {
			reqs[i] = policy.TaskReq{Key: pt.key, Res: oneSlot, Inputs: sh.taskInputs(pt), Avoid: pt.avoid, Tenant: pt.tenant}
		}
		decisions = sh.st.view.PlanTaskBatch(reqs, sh.st.stackFilter())
	}
	remaining := sh.pendq[:0]
	for i, pt := range sh.pendq {
		var d policy.PlaceTask
		if decisions != nil {
			d = decisions[i]
		} else {
			d = sh.planKeyed(pt)
		}
		if d.Worker != nil {
			sh.execKeyed(pt, d)
			continue
		}
		// A placement refused only because first copies are in flight
		// (Blocked) stays local, like the manager's: the copy's ack
		// re-runs the pass.
		if len(d.Blocked) == 0 && hasNext && pt.hops < maxHops && sh.quiet() {
			pt.hops++
			forward = append(forward, pt)
			continue
		}
		remaining = append(remaining, pt)
	}
	sh.pendq = remaining
	return forward
}

// taskInputs builds one task's input specs: the environment (L2/L3)
// plus a RefSpec per proxy-object input, rebuilt from the ref catalog
// so both engines plan over identical bindings.
func (sh *replayShard) taskInputs(pt replayTask) []core.FileSpec {
	st := sh.st
	var inputs []core.FileSpec
	if st.cfg.Level != core.L1 {
		inputs = append(inputs, st.envSpec)
	}
	for _, id := range pt.refs {
		inputs = append(inputs, st.refs.spec(id))
	}
	return inputs
}

// planKeyed plans one keyed task the way the manager's task pass does:
// first excluding the avoid worker, then anywhere — the avoided worker
// beats starving.
func (sh *replayShard) planKeyed(pt replayTask) policy.PlaceTask {
	st := sh.st
	inputs := sh.taskInputs(pt)
	base := st.stackFilter()
	d := st.view.PlanTask(pt.key, oneSlot, inputs, andFilter(policy.Excluding(pt.avoid), base))
	if d.Worker == nil && pt.avoid != "" {
		d = st.view.PlanTask(pt.key, oneSlot, inputs, base)
	}
	return d
}

// execKeyed carries out one planned keyed placement: trace, staging,
// slot binding.
func (sh *replayShard) execKeyed(pt replayTask, d policy.PlaceTask) {
	st := sh.st
	w := st.byID[d.Worker.ID]
	if st.rec != nil {
		st.rec.Record(policy.TraceTask(pt.key, d))
	}
	for _, sf := range d.Stages {
		st.execStage(sf)
	}
	sl := w.firstFree(false)
	st.takeSlot(w, sl)
	sl.invIdx = st.nextInv
	st.nextInv++
	sl.key = pt.key
	sl.refs = pt.refs
	sl.owner, sl.tenant = int64(taskKeyNum(pt.key)), pt.tenant
}

// quiet is the manager's quietLocked: no local event is pending that
// could change this shard's placement state — nothing dispatched
// (busy slots double as the inflight table), no copies awaiting acks.
func (sh *replayShard) quiet() bool {
	if len(sh.st.view.PendingCopies) > 0 {
		return false
	}
	for _, w := range sh.st.workers {
		if !w.dead && w.busySlots > 0 {
			return false
		}
	}
	return true
}

// anyEligible is the manager's anyEligibleWorkerLocked: some live
// non-avoided worker is large enough to ever hold a one-slot task.
// The append-only worker slice gives a deterministic scan (the
// manager's map scan is an existence check, so order is immaterial
// there too).
func (sh *replayShard) anyEligible(avoid string) bool {
	for _, w := range sh.st.workers {
		if !w.dead && w.id != avoid && oneSlot.Fits(w.v.Total) {
			return true
		}
	}
	return false
}

// extractPending removes and returns every queued spec of a workerless
// shard — the manager's extractPendingLocked. owners carries the
// invocation pool's owner FIFO (tenant runs): a workerless shard holds
// no claimed installs, so the FIFO and the pool move whole, in order.
func (sh *replayShard) extractPending() (tasks []replayTask, invs int, owners []specRef) {
	tasks, sh.pendq = sh.pendq, nil
	invs, sh.st.pending = sh.st.pending, 0
	for sh.st.owners.Len() > 0 {
		owners = append(owners, sh.st.popOwner())
	}
	return tasks, invs, owners
}

// kill is the owning shard's half of a worker death: the source serving
// the dead worker's inbound fetch gets its transfer slot back, the view
// drops its replicas, in-flight copies, instances and ring position,
// and everything bound to its slots requeues in ascending spec order
// with the dead worker as the avoid preference.
func (sh *replayShard) kill(w *wstate) {
	st := sh.st
	if src := w.envSrc; src != nil {
		w.envSrc = nil
		if !src.dead && src.v.TransfersOut > 0 {
			src.v.TransfersOut--
		}
	} else if w.v.Pending[st.envObj] && st.view.ManagerSends > 0 {
		st.view.ManagerSends--
	}
	st.view.RemoveWorker(w.v)
	delete(st.byID, w.id)
	w.dead = true
	// Bound invocations (L3) — dispatched or riding a deploy — go back
	// to the interchangeable pending pool, matching the manager's
	// requeue of its inflight plus the released install claim. In
	// tenant runs, dispatched (libReady) slots re-enter the owner FIFO
	// tail in ascending spec order — the manager requeues its inflight
	// sorted by ID — while a riding deploy's claim keeps its original
	// FIFO position (the owner was never popped). Bound tasks requeue
	// by key, in the same ascending order.
	var owners []specRef
	var requeue []replayTask
	for _, sl := range w.slots {
		if !sl.busy {
			continue
		}
		sl.busy = false
		if st.cfg.Level != core.L3 {
			requeue = append(requeue, replayTask{key: sl.key, avoid: w.id, tenant: sl.tenant, refs: sl.refs})
		} else {
			if st.trackOwners && sl.libReady {
				owners = append(owners, specRef{id: sl.owner, tenant: sl.tenant})
			}
			st.pending++
		}
		sl.unbind()
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].id < owners[j].id })
	for _, ref := range owners {
		st.pushOwner(ref)
	}
	sort.Slice(requeue, func(i, j int) bool { return taskKeyNum(requeue[i].key) < taskKeyNum(requeue[j].key) })
	sh.pendq = append(sh.pendq, requeue...)
}

// unbind clears the slot's record of the spec it ran.
func (sl *slot) unbind() {
	sl.key, sl.refs = "", nil
	sl.owner, sl.tenant = 0, ""
}

// andFilter conjoins two optional view filters.
func andFilter(a, b policy.Filter) policy.Filter {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(w *policy.WorkerView) bool { return a(w) && b(w) }
}

func taskKeyNum(k string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(k, "task-"))
	return n
}

// ---- the event surface ----

// find returns live worker id and its home shard, nils if unknown.
func (r *Replay) find(id string) (*replayShard, *wstate) {
	sh := r.home[id]
	if sh == nil {
		return nil, nil
	}
	return sh, sh.st.byID[id]
}

// nextTask numbers one new keyed task off the shared spec counter (the
// manager derives the ring key from the spec ID).
func (r *Replay) nextTask() replayTask {
	r.nextID++
	return replayTask{key: "task-" + strconv.Itoa(r.nextID)}
}

// Submit enqueues n specs, routing each like the manager's Submit /
// SubmitInvocation, and schedules as much as possible.
func (r *Replay) Submit(n int) {
	for k := 0; k < n; k++ {
		if r.cfg.Level == core.L3 {
			r.nextID++
			r.routeInv(specRef{id: int64(r.nextID)})
		} else {
			r.routeTask(r.nextTask())
		}
	}
}

// SubmitTaskRefs enqueues one task consuming the given proxy-object
// results (inputs: environment + one RefSpec per ID) and schedules it
// if possible — the manager's Submit of a TaskSpec whose Inputs carry
// core.RefSpec bindings. The refs must already exist in the catalog
// (created by earlier CompleteTaskRef calls).
func (r *Replay) SubmitTaskRefs(refs ...string) {
	pt := r.nextTask()
	pt.refs = refs
	r.routeTask(pt)
}

// SubmitTenant submits one spec for tenant through the submission
// plane — the manager's Submit/SubmitInvocation with a TenantID:
// admission, plane queue, fair-share drain into shard intake, a wake
// for every shard fed. Unregistered tenants degrade to the direct
// routing path.
func (r *Replay) SubmitTenant(tenant string) {
	var it simIntake
	if r.cfg.Level == core.L3 {
		r.nextID++
		it = simIntake{ref: specRef{id: int64(r.nextID), tenant: tenant}}
	} else {
		it = simIntake{isTask: true, task: r.nextTask()}
		it.task.tenant = tenant
	}
	if r.plane != nil {
		if _, _, known := r.plane.Submit(tenant, it, r.routePlane); known {
			r.wakeFed()
			return
		}
	}
	if it.isTask {
		r.routeTask(it.task)
	} else {
		r.routeInv(it.ref)
	}
}

// AddWorker joins a fresh worker in its home shard, continuing the
// wNNNN numbering, in the manager's adoptWorker order: register, route,
// wake the shard, then evacuate parked work and reset starving shards'
// hop budgets. Returns the new worker's ID.
func (r *Replay) AddWorker() string {
	i := r.nextWorker
	r.nextWorker++
	id := "w" + pad4(i)
	sh := r.shards[r.router.ShardOf(id)]
	sh.st.addWorker(i)
	r.home[id] = sh
	r.router.Add(id)
	r.kick(sh)
	r.wakeParked()
	r.nudgeStarving()
	return id
}

// KillWorker removes worker id mid-run in the manager's onWorkerGone
// order: membership first (forward targets and ring ownership move),
// then every ref the dead worker owned re-homes — before its queue
// teardown, trace-silent when it owned nothing — then the owning
// shard's surgery, requeue and pass, then the membership-change nudge.
// Transfers the dead worker was *serving* are not failed here; the
// caller fails each stranded destination via EnvFailed, exactly as the
// real destinations' own failing FileAcks would arrive later.
func (r *Replay) KillWorker(id string) bool {
	sh, w := r.find(id)
	if w == nil {
		return false
	}
	r.router.Remove(id)
	delete(r.home, id)
	r.refs.tab.PlanRehome(id, r.refs.rec)
	sh.kill(w)
	r.kick(sh)
	r.nudgeStarving()
	return true
}

// EnvArrived delivers the environment tarball on worker id (the
// FileAck): the in-flight copy becomes a replica, the serving slot is
// released, and the environment is immediately usable. File acks free
// no invocation capacity, so no nudge. Returns false if no copy was in
// flight there.
func (r *Replay) EnvArrived(id string) bool {
	sh, w := r.find(id)
	if w == nil || w.hasEnv || !w.v.Pending[sh.st.envObj] {
		return false
	}
	sh.st.envLanded(w)
	w.hasEnv = true
	r.kick(sh)
	return true
}

// EnvFailed fails worker id's in-flight *peer* environment fetch (the
// FileAck{Ok:false} path): the source's transfer slot comes back (if
// the source is still alive), the in-flight copy is cleared, and —
// mirroring the manager's recovery — the copy is immediately restaged
// over the manager's own link. Recovery bypasses the policy core on
// both engines, so no decision is traced. Returns false if no peer
// fetch is in flight there (failed direct sends are never restaged).
func (r *Replay) EnvFailed(id string) bool {
	sh, w := r.find(id)
	if w == nil || w.hasEnv || !w.v.Pending[sh.st.envObj] || w.envSrc == nil {
		return false
	}
	st := sh.st
	src := w.envSrc
	w.envSrc = nil
	if !src.dead && src.v.TransfersOut > 0 {
		src.v.TransfersOut--
	}
	st.view.ClearPending(w.v, st.envObj)
	st.view.NotePending(w.v, st.envObj)
	st.view.ManagerSends++
	st.res.EnvDirect++
	r.kick(sh)
	return true
}

// RefArrived confirms a consumer's ref fetch on worker id (the
// FileAck{Ok:true, Cache:true}): the in-flight copy becomes a view
// replica and the consumer registers as a holder in the ref catalog.
// Returns false if no ref copy is in flight there.
func (r *Replay) RefArrived(id, refID string) bool {
	sh, w := r.find(id)
	if w == nil || !w.v.Pending[refID] {
		return false
	}
	sh.st.view.ClearPending(w.v, refID)
	sh.st.view.NoteReplica(w.v, refID)
	r.refs.tab.AddRefHolder(id, refID)
	r.kick(sh)
	return true
}

// RefFailed fails a consumer's in-flight ref fetch on worker id (the
// FileAck{Ok:false} path), recovered by policy.RefTable.PlanRestage on
// both engines. Returns false if no ref copy is in flight there.
func (r *Replay) RefFailed(id, refID string) bool {
	sh, w := r.find(id)
	if w == nil || !w.v.Pending[refID] {
		return false
	}
	sh.st.view.ClearPending(w.v, refID)
	r.refs.stage(sh.st.view, w.v, refID, true)
	r.kick(sh)
	return true
}

// LibReady marks the oldest deploy-bound slot on worker id ready (the
// LibraryAck), which places the invocation bound to it; a new ready
// instance is capacity starving shards may be waiting for. Returns
// false if the worker has no deploy in progress or its environment has
// not arrived.
func (r *Replay) LibReady(id string) bool {
	sh, w := r.find(id)
	if w == nil || !w.hasEnv {
		return false
	}
	for _, sl := range w.slots {
		if sl.busy && !sl.libReady {
			sh.st.markLibReady(w, sl)
			r.kick(sh)
			r.nudgeStarving()
			return true
		}
	}
	return false
}

// Complete finishes one running invocation on worker id: the first
// completable slot, or in tenant runs the one with the lowest owner,
// because the differential harness completes the manager's lowest
// in-flight spec ID on that worker.
// Returns false if nothing on the worker is in a completable state.
// Task workloads under churn should use CompleteTask: requeues carry
// ring keys, so the engines must agree on which task each slot was
// running.
func (r *Replay) Complete(id string) bool {
	sh, w := r.find(id)
	if w == nil || !w.hasEnv {
		return false
	}
	needLib := r.cfg.Level == core.L3
	var pick *slot
	for _, sl := range w.slots {
		if !sl.busy || (needLib && !sl.libReady) {
			continue
		}
		if pick == nil || (sh.st.trackOwners && sl.owner < pick.owner) {
			pick = sl
		}
	}
	if pick == nil {
		return false
	}
	r.finish(sh, w, pick, true)
	return true
}

// CompleteTask finishes the task bound to ring key key on worker id.
func (r *Replay) CompleteTask(id, key string) bool {
	sh, w, sl := r.running(id, key)
	if sl == nil {
		return false
	}
	r.finish(sh, w, sl, true)
	return true
}

// CompleteTaskRef finishes the task bound to ring key key on worker id
// with a pass-by-reference result — the manager's onResult for a
// Result carrying an ObjectRef: the producing worker becomes the ref's
// owner and holder of record (refPlane.noteResult; the spills the
// owner's budget cascades re-tier the catalog at decision time, the
// spill messages themselves carry no state), and the catalog — not the
// manager's wire — carries the object from then on. The transfer lands
// before the freed slot's schedule pass, exactly where the manager's
// hook runs.
func (r *Replay) CompleteTaskRef(id, key string, ref core.ObjectRef) bool {
	sh, w, sl := r.running(id, key)
	if sl == nil {
		return false
	}
	r.refs.tab.NoteRefResult(id, ref.ID, ref.Name, ref.Size, r.refs.rec)
	r.finish(sh, w, sl, true)
	return true
}

// Fail fails the task bound to ring key key on worker id retryably —
// the manager's Retryable-result path: the slot frees and the key
// requeues at the back of its shard's queue (requeueAfter stays
// shard-local) with this worker as the avoid preference — the retry
// prefers any other placement, falling back to the avoided worker over
// starving. A retry holds its quota unit — the manager releases only on
// final delivery — so the requeue carries the tenant and nothing is
// released.
func (r *Replay) Fail(id, key string) bool {
	sh, w, sl := r.running(id, key)
	if sl == nil {
		return false
	}
	sh.pendq = append(sh.pendq, replayTask{key: key, avoid: id, tenant: sl.tenant, refs: sl.refs})
	r.finish(sh, w, sl, false)
	return true
}

// running returns the busy slot bound to ring key key on worker id,
// with its worker and shard; nils if there is none.
func (r *Replay) running(id, key string) (*replayShard, *wstate, *slot) {
	sh, w := r.find(id)
	if w == nil || !w.hasEnv {
		return nil, nil, nil
	}
	for _, sl := range w.slots {
		if sl.busy && sl.key == key {
			return sh, w, sl
		}
	}
	return nil, nil, nil
}

// finish is the tail of every result event — the manager's onResult:
// the slot frees, the finished task's cacheable inputs are noted as
// replicas (the bytes are resident whatever the outcome; the
// environment's note is a dedup no-op since its ack gated the result,
// so only proxy-object inputs are recorded — including a lost ref that
// never staged, the same vacuous replica on both engines), the shard
// runs its pass, a delivered result returns its quota unit to the plane
// and wakes what that feeds, and freed capacity nudges starving shards.
func (r *Replay) finish(sh *replayShard, w *wstate, sl *slot, delivered bool) {
	tenant := sl.tenant
	sh.st.freeSlot(w, sl)
	for _, id := range sl.refs {
		sh.st.view.NoteReplica(w.v, id)
	}
	sl.unbind()
	if delivered {
		sl.served++
	}
	r.kick(sh)
	if delivered && r.plane != nil {
		r.plane.Release(tenant, r.routePlane)
		r.wakeFed()
	}
	r.nudgeStarving()
}

// Pending reports specs submitted but not yet placed, over all shards.
func (r *Replay) Pending() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.pending()
	}
	return n
}

// The decision trace is composed by one rule on both engines
// (Manager.MergedDecisions): the submission plane's stream, then the
// ref catalog's stream — each global, each recorded once — then the
// shard recorders concatenated in shard-index order
// (shardplane.MergeTraces). The three parts are also readable apart,
// which is how the harness localizes a divergence.

// PlaneDecisions returns the submission plane's recorded trace.
func (r *Replay) PlaneDecisions() []string { return r.plane.Decisions() }

// RefDecisions returns a copy of the ref catalog's recorded stream.
func (r *Replay) RefDecisions() []string {
	return append([]string(nil), r.refs.rec.Decisions...)
}

// ShardDecisions returns each shard's own decision trace.
func (r *Replay) ShardDecisions() [][]string {
	out := make([][]string, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.st.rec.Decisions
	}
	return out
}

// Decisions returns the composed trace.
func (r *Replay) Decisions() []string {
	merged := shardplane.MergeTraces(r.ShardDecisions())
	if refs := r.RefDecisions(); len(refs) > 0 {
		merged = append(refs, merged...)
	}
	if plane := r.PlaneDecisions(); len(plane) > 0 {
		return append(plane, merged...)
	}
	return merged
}

// Dump renders the composed trace (diagnostics).
func (r *Replay) Dump() string { return strings.Join(r.Decisions(), "\n") + "\n" }

// ViewFor returns worker id's view entry in its owning shard, nil if
// the worker is not live — the cross-check hook for per-worker
// accounting.
func (r *Replay) ViewFor(id string) *policy.WorkerView {
	if _, w := r.find(id); w != nil {
		return w.v
	}
	return nil
}
