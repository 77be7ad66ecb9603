package sim

import (
	"fmt"
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
// and die, and invocations finish. It is the second shell of the shared
// dispatch plane (DESIGN.md §12), the one with no sockets and no locks,
// and answers every event the manager can see. Globally it holds the
// shardplane.Plane (the router and one scheduler per shard), the spec
// and worker counters, one submission plane and one ref catalog; per
// shard (replayShard) a cluster view around that shard's scheduler, which
// owns the intake, the keyed task queue, the library's invocation queue
// with its install claims, what each queue waits on, the wake loop, both
// passes, every shard-crossing path and the in-flight table: what runs on
// which worker, each spec's retry budget, the order a death requeues in.
// Each event handler is the manager's: the scheduler's verb for the
// event, then the manager's wakes and nudges. The replay models no slots
// of its own. Like the manager, it hosts one
// instance per worker with Config.SlotsPerWorker slots and binds an
// invocation when the instance is ready — a deploy consumes none (the
// timed Run hosts one single-slot instance per slot and binds at deploy
// start: sim.go, placeL3).
//
// One shard is the degenerate case: nothing to forward to, nothing to
// nudge. The differential harness (internal/manager) feeds one event
// trace through a Replay and through the real manager and diffs the
// plane stream, the ref stream, each shard's trace and the merged
// trace line for line.
type Replay struct {
	cfg        Config
	shards     []*replayShard
	shardPlane *shardplane.Plane[replaySpec, specRef]
	// nextID numbers specs globally — one counter shared by tasks and
	// invocations, as the manager's is — so ring keys, spec IDs and
	// round-robin routing agree across engines whatever the mix.
	nextID int
	// nextWorker numbers workers globally ("wNNNN", dead IDs never
	// reused). A worker's locality cluster is a function of this index,
	// as the manager's is a function of the worker's Hello — not of the
	// shard count.
	nextWorker int
	// plane is the submission plane (cfg.Tenants): one plane in front
	// of all shards with its own recorder, as the manager's plane trace
	// is a stream apart from the shard traces. Specs the fair-share drain
	// releases go to the shards' intakes through shardplane's Route.
	plane *policy.TenantPlane[replayRun]
	// refs is the one ref catalog (refs.go), shared by every shard's
	// state as the manager's ref plane is shared by every shard.
	refs *simRefs
}

// replayShard is one shard's scheduling state: the Shell of its
// scheduler.
type replayShard struct {
	st *state
	// sched holds the pending specs: tasks by ring key (assigned at
	// submission, requeued verbatim), invocations in the library's queue.
	sched *shardplane.Sched[replaySpec, specRef]
}

// replaySpec is the replay's payload of a task.
type replaySpec struct {
	// tenant is the submitter, whose quota the completion releases.
	tenant string
	// refs are proxy-object input IDs (§15): the task's inputs are the
	// environment plus one RefSpec per entry, resolved through the ref
	// catalog at stage execution.
	refs []string
}

func (replaySpec) Need() core.Resources { return oneSlot }

type (
	replayTask = shardplane.Task[replaySpec]
	replayInv  = shardplane.Inv[specRef]
	replayRun  = shardplane.Run[replaySpec, specRef]
)

// NewReplay builds an untimed simulation over shards partitions;
// shards < 1 means shardplane.DefaultShards, as manager.New reads
// Options.Shards. cfg.Workers initial workers join through the event
// surface (global numbering, shard routing). cfg.Invocations is ignored
// (work arrives via Submit) and so is cfg.DecisionTrace: every shard
// records into a recorder of its own.
func NewReplay(cfg Config, shards int) *Replay {
	cfg.defaults()
	cfg.Invocations = 0
	r := &Replay{
		cfg:        cfg,
		shardPlane: shardplane.NewPlane[replaySpec, specRef](shards, shardplane.DefaultMaxRetries),
		refs:       newSimRefs(cfg.RefOwnedBytesCap),
	}
	if len(cfg.Tenants) > 0 {
		r.plane = policy.NewTenantPlane[replayRun](cfg.Tenants, &policy.Recorder{})
	}
	for i := range r.shardPlane.Shards {
		scfg := cfg
		scfg.DecisionTrace = &policy.Recorder{}
		st := newState(scfg, true)
		st.refs = r.refs
		sh := &replayShard{st: st}
		sh.sched = r.shardPlane.Attach(i, st.view, shardplane.NoLock{}, sh)
		r.shards = append(r.shards, sh)
	}
	for i := 0; i < cfg.Workers; i++ {
		r.AddWorker()
	}
	return r
}

func (r *Replay) lib() string { return r.shards[0].st.lib }

// release returns the quota unit of a spec that will not run again — a
// final result, or a retry budget spent — to the submission plane, if
// there is one; the shards its drain feeds wake at the next loop exit.
func (r *Replay) release(run *replayRun) {
	if r.plane == nil {
		return
	}
	tenant := run.Inv.Spec.tenant
	if run.IsTask {
		tenant = run.Task.Spec.tenant
	}
	r.plane.Release(tenant, r.shardPlane.Route)
}

// ---- one shard's shell (shardplane.Shell; there is no lock) ----

// LibNeed: an instance takes its worker whole, and any live worker can
// host one — the queue never overflow-forwards.
func (sh *replayShard) LibNeed(string) (core.Resources, bool) {
	return core.Resources{Cores: sh.st.cfg.SlotsPerWorker}, true
}

func (sh *replayShard) Reject(replayInv) bool { return false }

// PlaceInv carries out one ready placement: trace, one slot taken.
func (sh *replayShard) PlaceInv(inv replayInv, d policy.PlaceInvocation) {
	st := sh.st
	w := st.byID[d.Worker.ID]
	if st.rec != nil {
		st.rec.Record(policy.TracePlace(inv.Lib, d))
	}
	w.freeReady--
	st.syncLib(w)
}

// Deploy starts the worker's instance where the policy core finds room;
// LibReady is its ack.
func (sh *replayShard) Deploy(lib string) (string, []string) {
	need, _ := sh.LibNeed(lib)
	w, blocked := sh.st.deploy(need, nil)
	if w == nil {
		return "", blocked
	}
	return w.id, nil
}

// Plan plans the queue through the batched entry point the manager uses.
func (sh *replayShard) Plan(dst []policy.PlaceTask, tasks []replayTask) []policy.PlaceTask {
	reqs := make([]policy.TaskReq, len(tasks))
	for i, pt := range tasks {
		reqs[i] = policy.TaskReq{Key: pt.Key, Res: oneSlot, Inputs: sh.taskInputs(pt), Avoid: pt.Avoid, Tenant: pt.Spec.tenant}
	}
	return sh.st.view.PlanTaskBatchInto(dst, reqs, nil)
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
	for _, id := range pt.Spec.refs {
		inputs = append(inputs, st.refs.spec(id))
	}
	return inputs
}

// Place carries out one planned keyed placement: trace, staging, the
// task's resource commitment.
func (sh *replayShard) Place(pt *replayTask, d policy.PlaceTask) {
	st := sh.st
	if st.rec != nil {
		st.rec.Record(policy.TraceTask(pt.Key, d))
	}
	for _, sf := range d.Stages {
		st.execStage(sf)
	}
	d.Worker.Commit = d.Worker.Commit.Add(oneSlot)
}

// kill is the owning shard's half of a worker death: the source serving
// the dead worker's inbound fetch gets its transfer slot back, the view
// drops its replicas, in-flight copies, instance and ring position, and
// the scheduler requeues what ran there (Sched.Died), handing back the
// specs whose retry budget is spent.
func (sh *replayShard) kill(w *wstate) []replayRun {
	st := sh.st
	if src := w.envSrc; src != nil {
		w.envSrc = nil
		if !src.dead && src.v.TransfersOut > 0 {
			src.v.TransfersOut--
		}
	} else if w.v.Pending[st.envObj] && st.view.ManagerSends > 0 {
		st.view.ManagerSends--
	}
	_, cleared := st.view.RemoveWorker(w.v)
	delete(st.byID, w.id)
	w.dead = true
	_, lost := sh.sched.Died(w.id, cleared)
	return lost
}

// ack is a file ack on this shard, the manager's onFileAck after its
// view surgery: what waited on the object looks again. File acks free no
// invocation capacity, so no nudge.
func (sh *replayShard) ack(obj string) {
	sh.sched.FileAcked(obj)
	sh.sched.Wake()
}

// ---- the event surface ----

// find returns worker id's home shard and the worker, nil unless live.
func (r *Replay) find(id string) (*replayShard, *wstate) {
	sh := r.shards[r.shardPlane.ShardOf(id)]
	return sh, sh.st.byID[id]
}

// next numbers one new spec of the configured level off the shared
// counter (the manager derives a task's ring key from its spec ID).
func (r *Replay) next(tenant string, refs ...string) replayRun {
	r.nextID++
	id := int64(r.nextID)
	if r.cfg.Level == core.L3 {
		return replayRun{Inv: replayInv{Lib: r.lib(), ID: id, Spec: specRef{id: id, tenant: tenant}}}
	}
	return replayRun{IsTask: true, Task: replayTask{Key: shardplane.TaskKey(id), ID: id, Spec: replaySpec{tenant: tenant, refs: refs}}}
}

// Submit enqueues n specs, routing each like the manager's Submit /
// SubmitInvocation, and schedules as much as possible.
func (r *Replay) Submit(n int) {
	for k := 0; k < n; k++ {
		r.SubmitTenant("")
	}
}

// SubmitTaskRefs enqueues one task consuming the given proxy-object
// results (inputs: environment + one RefSpec per ID) and schedules it
// if possible — the manager's Submit of a TaskSpec whose Inputs carry
// core.RefSpec bindings. The refs must already exist in the catalog
// (created by earlier CompleteTaskRef calls).
func (r *Replay) SubmitTaskRefs(refs ...string) { r.shardPlane.Submit(r.next("", refs...)) }

// SubmitTenant submits one spec for tenant through the submission
// plane — the manager's Submit/SubmitInvocation with a TenantID:
// admission, plane queue, fair-share drain into shard intake, a wake
// for every shard fed. An unregistered tenant (the empty one included)
// degrades to the direct routing path.
func (r *Replay) SubmitTenant(tenant string) {
	it := r.next(tenant)
	if r.plane != nil {
		if _, _, known := r.plane.Submit(tenant, it, r.shardPlane.Route); known {
			r.shardPlane.WakeFed()
			return
		}
	}
	r.shardPlane.Submit(it)
}

// AddWorker joins a fresh worker in its home shard, continuing the
// wNNNN numbering, in the manager's adoptWorker order: register, route,
// wake the shard, then let parked work evacuate and starving shards'
// work circulate again. Returns the new worker's ID.
func (r *Replay) AddWorker() string {
	i := r.nextWorker
	r.nextWorker++
	id := "w" + pad4(i)
	sh := r.shards[r.shardPlane.ShardOf(id)]
	sh.st.addWorker(i)
	r.shardPlane.Add(id)
	sh.sched.Joined()
	sh.sched.Wake()
	r.shardPlane.WakeParked()
	r.shardPlane.Nudge()
	return id
}

// KillWorker removes worker id mid-run in the manager's onWorkerGone
// order: membership first (forward targets and ring ownership move),
// then every ref the dead worker owned re-homes — before its queue
// teardown, trace-silent when it owned nothing — then the owning
// shard's surgery and requeue, a spec past its retry budget dropped and
// its quota returned, then the pass (whose exit wakes the shards that
// quota fed) and the membership-change nudge.
// Transfers the dead worker was *serving* are not failed here; the
// caller fails each stranded destination via EnvFailed, exactly as the
// real destinations' own failing FileAcks would arrive later.
func (r *Replay) KillWorker(id string) bool {
	sh, w := r.find(id)
	if w == nil {
		return false
	}
	r.shardPlane.Remove(id)
	r.refs.tab.PlanRehome(id, r.refs.rec)
	lost := sh.kill(w)
	for i := range lost {
		r.release(&lost[i])
	}
	sh.sched.Wake()
	r.shardPlane.Nudge()
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
	sh.ack(sh.st.envObj)
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
	sh.ack(st.envObj)
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
	sh.ack(refID)
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
	sh.ack(refID)
	return true
}

// LibReady brings up worker id's installing instance (the LibraryAck),
// every slot free, and releases the install's claim; the pass that
// follows places queued invocations on it — or on any better ready
// instance — and a new ready instance is capacity starving shards may be
// waiting for. Returns false if the worker has no install in progress or
// its environment has not arrived.
func (r *Replay) LibReady(id string) bool {
	sh, w := r.find(id)
	if w == nil || !w.hasEnv || w.v.Libs[r.lib()] == nil || w.lv.Ready {
		return false
	}
	w.lv.Ready = true
	w.freeReady = w.lv.Slots
	sh.st.syncLib(w)
	sh.sched.LibAcked(id, r.lib(), true)
	sh.sched.Wake()
	r.shardPlane.Nudge()
	return true
}

// Complete finishes the running spec with the lowest ID on worker id:
// the differential harness completes the manager's lowest in-flight
// spec ID on that worker. Returns false if nothing on the worker is in
// a completable state.
func (r *Replay) Complete(id string) bool {
	sh, _ := r.find(id)
	runs := sh.sched.Running(id)
	return len(runs) > 0 && r.finish(id, runs[0].ID(), false, nil)
}

// CompleteTask finishes the task bound to ring key key on worker id.
func (r *Replay) CompleteTask(id, key string) bool {
	return r.finish(id, shardplane.KeyNum(key), false, nil)
}

// CompleteTaskRef finishes the task bound to ring key key on worker id
// with a pass-by-reference result — the manager's onResult for a
// Result carrying an ObjectRef: the producing worker becomes the ref's
// owner and holder of record (refPlane.noteResult; the spills the
// owner's budget cascades re-tier the catalog at decision time, the
// spill messages themselves carry no state), and the catalog — not the
// manager's wire — carries the object from then on. The transfer lands
// before the freed capacity's schedule pass, exactly where the manager's
// hook runs.
func (r *Replay) CompleteTaskRef(id, key string, ref core.ObjectRef) bool {
	return r.finish(id, shardplane.KeyNum(key), false, &ref)
}

// Fail fails spec number spec, running on worker id, retryably — the
// manager's Retryable-result path. Within the retry budget the spec
// requeues at the back of its shard's queue (requeues stay shard-local;
// the replay has no clock, so the backoff is over at once) with this
// worker as the avoid preference — the retry prefers any other
// placement, falling back to the avoided worker over starving — and
// holds its quota unit, as the manager releases only on final delivery.
// Past the budget the spec is dropped and its quota returned.
func (r *Replay) Fail(id string, spec int64) bool {
	return r.finish(id, spec, true, nil)
}

// finish is every result event — the manager's onResult — for spec
// number spec on worker id, false if it is not running there or the
// worker's environment has not landed: the spec leaves the worker, a
// by-ref result (ref) transfers ownership, a finished task's cacheable
// inputs are noted as replicas (the bytes are
// resident whatever the outcome; the environment's note is a dedup no-op
// since its ack gated the result, so only proxy-object inputs are
// recorded — including a lost ref that never staged, the same vacuous
// replica on both engines), a retry requeues, a final result returns its
// quota unit to the plane, the shard runs its pass (whose exit wakes what
// that quota fed), and freed capacity nudges starving shards.
func (r *Replay) finish(id string, spec int64, failed bool, ref *core.ObjectRef) bool {
	sh, w := r.find(id)
	if w == nil || !w.hasEnv {
		return false
	}
	run, retry, ok := sh.sched.Done(id, spec, failed)
	if !ok {
		return false
	}
	if ref != nil {
		r.refs.tab.NoteRefResult(id, ref.ID, ref.Name, ref.Size, r.refs.rec)
	}
	if run.IsTask {
		w.v.Commit = w.v.Commit.Sub(oneSlot)
		for _, ref := range run.Task.Spec.refs {
			sh.st.view.NoteReplica(w.v, ref)
		}
	} else {
		w.freeReady++
		sh.st.syncLib(w)
	}
	if retry > 0 {
		sh.sched.Retry(spec)
	} else {
		r.release(&run)
	}
	sh.sched.Wake()
	r.shardPlane.Nudge()
	return true
}

// CheckQuiescence is the manager's, for what a replay holds: no spec
// queued, in flight or backing off in any shard, no tenant holding quota.
func (r *Replay) CheckQuiescence() error {
	for i, sh := range r.shards {
		if n := len(sh.sched.Tasks()) + sh.sched.Invs() + sh.sched.InFlight() + sh.sched.BackingOff(); n != 0 {
			return fmt.Errorf("sim: shard %d still holds %d specs", i, n)
		}
	}
	if r.plane != nil {
		return r.plane.Quiescent()
	}
	return nil
}

// TenantStats is the submission plane's breakdown; tenant runs only.
func (r *Replay) TenantStats() []policy.TenantStat { return r.plane.Stats() }

// Pending reports specs submitted but not yet placed, over all shards.
func (r *Replay) Pending() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.sched.Invs() + len(sh.sched.Tasks())
	}
	return n
}

// The decision trace is composed by one rule on both engines
// (shardplane.ComposeTraces); its three parts are also readable apart,
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
	return shardplane.ComposeTraces(r.PlaneDecisions(), r.RefDecisions(), r.ShardDecisions())
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
