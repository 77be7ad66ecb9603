package sim

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/shardplane"
)

// Replay drives the simulator's scheduling state machine from an
// explicit event sequence instead of the virtual clock: the caller says
// when transfers land (or fail), libraries come up, workers join and die,
// and invocations finish. It is the second shell of the shared dispatch
// plane (DESIGN.md §12), the one with no sockets and no locks. The plane
// decides — its schedulers plan and record every decision against this
// replay's ClusterViews — and runs each event in the manager's order
// (shardplane events.go); a handler here checks what only the replay
// knows, such as whether a copy is in flight, and makes that one call.
// The shell (replayShard) sends nothing and writes nothing in the view:
// it numbers and builds joining workers and keeps which hold their
// environment. Like the manager, it hosts one
// instance per worker with Config.SlotsPerWorker slots and binds an
// invocation when the instance is ready (the timed Run hosts one
// single-slot instance per slot and binds at deploy start: placeL3).
//
// One shard is the degenerate case: nothing to forward to, nothing to
// nudge. The differential harness (internal/manager) feeds one event
// trace through a Replay and through the real manager and diffs the
// plane stream, the ref stream, each shard's trace and the merged
// trace decision for decision (Trace).
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
}

// replayShard is one shard's state: the Shell of its scheduler.
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
	// inputs are the environment (L2/L3) plus one RefSpec per
	// proxy-object input (§15), bound at submission.
	inputs []core.FileSpec
}

func (replaySpec) Need() core.Resources      { return oneSlot }
func (p replaySpec) Inputs() []core.FileSpec { return p.inputs }
func (p replaySpec) Tenant() string          { return p.tenant }

type (
	replayTask = shardplane.Task[replaySpec]
	replayInv  = shardplane.Inv[specRef]
	replayRun  = shardplane.Run[replaySpec, specRef]
)

// NewReplay builds an untimed simulation over shards partitions;
// shards < 1 means shardplane.DefaultShards, as manager.New reads
// Options.Shards. cfg.Workers initial workers join through the event
// surface (global numbering, shard routing). cfg.Invocations is ignored
// (work arrives via Submit) and so is cfg.DecisionTrace: the plane
// records every shard and each stream into a recorder of its own.
func NewReplay(cfg Config, shards int) *Replay {
	cfg.defaults()
	cfg.Invocations, cfg.DecisionTrace = 0, nil
	r := &Replay{cfg: cfg, shardPlane: shardplane.NewPlane[replaySpec, specRef](shardplane.Config{
		Shards:           shards,
		MaxRetries:       shardplane.DefaultMaxRetries,
		Tenants:          cfg.Tenants,
		RefOwnedBytesCap: cfg.RefOwnedBytesCap,
		Trace:            true,
	})}
	for i := range r.shardPlane.Shards {
		sh := &replayShard{st: newState(cfg, true)}
		sh.sched = r.shardPlane.Attach(i, sh.st.view, shardplane.NoLock{}, sh)
		r.shards = append(r.shards, sh)
	}
	for i := 0; i < cfg.Workers; i++ {
		r.AddWorker()
	}
	return r
}

func (r *Replay) lib() string { return r.shards[0].st.lib }
func (r *Replay) env() string { return r.shards[0].st.envObj }

// ---- one shard's shell (shardplane.Shell; there is no lock) ----

// Library: an instance takes its worker whole, and any live worker can
// host one — the queue never overflow-forwards.
func (sh *replayShard) Library(string) (*policy.DeploySpec, bool) { return &sh.st.deploy, true }

func (sh *replayShard) Reject(replayInv) bool { return false }

// Resolve reports whether the manager's Resolve would send a copy: a
// peer or shared fetch does; ready and lost stage nothing. With no
// catalog and no dead sources, neither ResolveDirect nor the dead-source
// fallback arises.
func (sh *replayShard) Resolve(_, _, _ string, d policy.ResolveDecision) bool {
	return d.Mode == policy.ResolvePeer || d.Mode == policy.ResolveShared
}

// Stage, Place, PlaceInv and Deploy send nothing: the plane has applied
// them to the view, and EnvArrived and LibReady are their acks.
func (sh *replayShard) Stage(policy.StageFile)                     {}
func (sh *replayShard) Place(*replayTask, policy.PlaceTask)        {}
func (sh *replayShard) PlaceInv(replayInv, policy.PlaceInvocation) {}
func (sh *replayShard) Deploy(string, policy.DeployLibrary)        {}

// Join builds worker wNNNN for this shard's view: its machine and
// locality cluster are functions of NNNN.
func (sh *replayShard) Join(worker string) *policy.WorkerView {
	i, _ := strconv.Atoi(worker[1:])
	return sh.st.addWorker(i).v
}

// Leave forgets a dead worker.
func (sh *replayShard) Leave(worker string) { delete(sh.st.byView, sh.st.view.Workers[worker]) }

// Installed: an instance has no engine state beyond the view's.
func (sh *replayShard) Installed(string, proto.LibraryAck) {}

// Restage: the manager's own link can always re-send the environment.
func (sh *replayShard) Restage(string, proto.FileAck) bool { return true }

// Acked: a landed environment is usable at once.
func (sh *replayShard) Acked(worker string, ack proto.FileAck, _ bool) {
	if ack.ID == sh.st.envObj {
		sh.st.worker(worker).hasEnv = ack.Ok
	}
}

// Done: the replay has no clock, so a retry's backoff is over at once.
func (sh *replayShard) Done(_ string, r replayRun, _ core.Result, retry int) {
	if retry > 0 {
		sh.sched.Retry(r.ID())
	}
}

func (sh *replayShard) Refs([]policy.Rehome, []policy.RefSpill) {}

// ---- the event surface ----

// find returns live worker id and its shard; nils if it is not live.
func (r *Replay) find(id string) (*replayShard, *wstate) {
	for _, sh := range r.shards {
		if w := sh.st.worker(id); w != nil {
			return sh, w
		}
	}
	return nil, nil
}

// next numbers one new spec of the configured level off the shared
// counter (the manager derives a task's ring key from its spec ID). A
// task's inputs are bound here, a RefSpec per proxy-object input rebuilt
// from the ref catalog, so both engines plan over identical bindings.
func (r *Replay) next(tenant string, refs ...string) replayRun {
	r.nextID++
	id := int64(r.nextID)
	if r.cfg.Level == core.L3 {
		return replayRun{Inv: replayInv{Lib: r.lib(), ID: id, Spec: specRef{id: id, tenant: tenant}}}
	}
	var inputs []core.FileSpec
	if r.cfg.Level != core.L1 {
		inputs = append(inputs, r.shards[0].st.envSpec)
	}
	for _, ref := range refs {
		fs, ok := r.shardPlane.RefInput(ref)
		if !ok {
			panic("sim: ref input " + ref + " is not in the replay's ref catalog")
		}
		inputs = append(inputs, fs)
	}
	return replayRun{IsTask: true, Task: replayTask{Key: shardplane.TaskKey(id), ID: id, Spec: replaySpec{tenant: tenant, inputs: inputs}}}
}

// Submit enqueues n specs, routing each like the manager's Submit /
// SubmitInvocation, and schedules as much as possible.
func (r *Replay) Submit(n int) {
	for k := 0; k < n; k++ {
		r.SubmitTenant("")
	}
}

// SubmitTaskRefs enqueues one task consuming the given proxy-object
// results, created by earlier CompleteTaskRef calls — the manager's
// Submit of a TaskSpec whose Inputs carry core.RefSpec bindings.
func (r *Replay) SubmitTaskRefs(refs ...string) { r.shardPlane.Submit(r.next("", refs...)) }

// SubmitTenant submits one spec for tenant through the submission
// plane — the manager's Submit/SubmitInvocation with a TenantID. An
// unregistered tenant (the empty one included) routes directly.
func (r *Replay) SubmitTenant(tenant string) { r.shardPlane.SubmitTenant(tenant, r.next(tenant)) }

// AddWorker joins a fresh worker in its home shard, continuing the
// wNNNN numbering (Plane.Join). Returns the new worker's ID.
func (r *Replay) AddWorker() string {
	id := "w" + pad4(r.nextWorker)
	r.nextWorker++
	r.shardPlane.Join(id)
	return id
}

// KillWorker removes worker id mid-run (Plane.Leave): a spec past its
// retry budget is dropped and its quota returned. Transfers the dead
// worker was *serving* are not failed here; the caller fails each
// stranded destination via EnvFailed, exactly as the real destinations'
// own failing FileAcks would arrive later.
func (r *Replay) KillWorker(id string) bool {
	if _, w := r.find(id); w == nil {
		return false
	}
	r.shardPlane.Leave(id)
	return true
}

// EnvArrived delivers the environment tarball on worker id (the
// FileAck), usable at once; false if no copy was in flight there.
func (r *Replay) EnvArrived(id string) bool {
	_, w := r.find(id)
	if w == nil || w.hasEnv || !w.v.Pending[r.env()] {
		return false
	}
	r.shardPlane.FileAck(id, proto.FileAck{ID: r.env(), Ok: true, Cache: true})
	return true
}

// EnvFailed fails worker id's in-flight *peer* environment fetch, which
// restages over the manager's link; false if no peer fetch is in flight
// there (failed direct sends are never restaged).
func (r *Replay) EnvFailed(id string) bool {
	sh, w := r.find(id)
	if w == nil || w.hasEnv || !w.v.Pending[r.env()] {
		return false
	}
	if src, _ := sh.sched.Source(id, r.env()); src == "" {
		return false
	}
	r.shardPlane.FileAck(id, proto.FileAck{ID: r.env()})
	return true
}

// RefArrived confirms a consumer's ref fetch on worker id, and RefFailed
// fails it, recovered by the ref catalog's restage; false if no ref copy
// is in flight there.
func (r *Replay) RefArrived(id, refID string) bool {
	_, w := r.find(id)
	if w == nil || !w.v.Pending[refID] {
		return false
	}
	r.shardPlane.FileAck(id, proto.FileAck{ID: refID, Ok: true, Cache: true})
	return true
}

func (r *Replay) RefFailed(id, refID string) bool {
	_, w := r.find(id)
	if w == nil || !w.v.Pending[refID] {
		return false
	}
	r.shardPlane.FileAck(id, proto.FileAck{ID: refID})
	return true
}

// LibReady brings up worker id's installing instance (the LibraryAck);
// false if none is installing or its environment has not arrived.
func (r *Replay) LibReady(id string) bool {
	_, w := r.find(id)
	if w == nil || !w.hasEnv || w.v.Libs[r.lib()] == nil || w.v.Libs[r.lib()].Ready {
		return false
	}
	r.shardPlane.LibAck(id, proto.LibraryAck{Library: r.lib(), Ok: true})
	return true
}

// Complete finishes the running spec with the lowest ID on worker id:
// the differential harness completes the manager's lowest in-flight
// spec ID on that worker. Returns false if nothing on the worker is in
// a completable state.
func (r *Replay) Complete(id string) bool {
	runs := r.shards[r.shardPlane.ShardOf(id)].sched.Running(id)
	return len(runs) > 0 && r.finish(id, runs[0].ID(), false, nil)
}

// CompleteTask finishes the task bound to ring key key on worker id.
func (r *Replay) CompleteTask(id, key string) bool {
	return r.finish(id, shardplane.KeyNum(key), false, nil)
}

// CompleteTaskRef finishes the task bound to ring key key on worker id
// with a pass-by-reference result: the producer becomes the ref's owner.
func (r *Replay) CompleteTaskRef(id, key string, ref core.ObjectRef) bool {
	return r.finish(id, shardplane.KeyNum(key), false, &ref)
}

// Fail fails spec number spec, running on worker id, retryably: within
// the retry budget it requeues at once, avoiding this worker.
func (r *Replay) Fail(id string, spec int64) bool {
	return r.finish(id, spec, true, nil)
}

// finish is every result event (Plane.Result) for spec number spec on
// worker id, false if it is not running there or the worker's
// environment has not landed.
func (r *Replay) finish(id string, spec int64, failed bool, ref *core.ObjectRef) bool {
	_, w := r.find(id)
	if w == nil || !w.hasEnv {
		return false
	}
	return r.shardPlane.Result(id, core.Result{ID: spec, Ok: !failed, Retryable: failed, Ref: ref})
}

// CheckQuiescence is the manager's, for what a replay holds: no spec
// queued, in flight or backing off in any shard, no tenant holding quota.
func (r *Replay) CheckQuiescence() error {
	if err := r.shardPlane.Quiescent(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// TenantStats is the submission plane's breakdown; tenant runs only.
func (r *Replay) TenantStats() []policy.TenantStat { return r.shardPlane.TenantStats() }

// Pending reports specs submitted but not yet placed, over all shards.
func (r *Replay) Pending() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.sched.Invs() + len(sh.sched.Tasks())
	}
	return n
}

// Trace returns the recorded decision trace: the submission plane's
// stream, the ref catalog's and each shard's, composed by the rule the
// manager's is (Trace.All).
func (r *Replay) Trace() shardplane.Trace { return r.shardPlane.Trace() }

// ViewFor returns worker id's view entry in its owning shard, nil if
// the worker is not live — the cross-check hook for per-worker
// accounting.
func (r *Replay) ViewFor(id string) *policy.WorkerView {
	if _, w := r.find(id); w != nil {
		return w.v
	}
	return nil
}
