package manager

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/hashring"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/shardplane"
	"repro/internal/sim"
)

// Differential fidelity harness: one random event trace — submissions,
// environment acks, library readiness, completions — is fed through
// the real manager (synthetic workers, synchronous event injection)
// and through the simulator's untimed Replay, at the same shard count.
// Both engines consult the shared policy core (internal/policy) for
// every scheduling decision against equivalently-maintained cluster
// views, so their decision traces must match line for line. A divergence means one driver's
// view maintenance or decision execution drifted from the other's —
// exactly the fidelity bug class this refactor exists to make
// impossible.
//
// The harness keeps the engines in lockstep by construction:
//
//   - Worker IDs, resources, library/environment identities, and the
//     peer-transfer options are identical, so both views hash to the
//     same ring and index the same objects.
//   - The sim side runs ManagerSourceCap so high its manager link
//     never saturates — the real manager's semantics (it has no
//     self-cap; only the paper's simulator models one).
//
// Every interleaving of the events is fair game: both engines run the
// one invocation pass (shardplane.Sched) and bind a queued invocation
// only when an instance is ready, so a completion while a deploy is in
// flight places the same invocation on the same worker in both. Both
// also host one library instance per worker, with as many slots as the
// library is registered with, and keep what runs where — with its retry
// budget, the same on both sides — in the scheduler's one in-flight
// table, so L3 workloads run at any slot count (l3Slots) and a spec
// that exhausts its budget is dropped by both at the same event.

const (
	diffLib = "difflib"
	diffEnv = "env:difflib"
)

func diffEnvSpec() core.FileSpec {
	return core.FileSpec{
		Object:       &content.Object{ID: diffEnv, Name: diffEnv, LogicalSize: 64 << 20},
		Cache:        true,
		PeerTransfer: true,
		Unpack:       true,
	}
}

type diffHarness struct {
	t      *testing.T
	m      *Manager
	rp     *sim.Replay
	ws     []*workerState
	dead   map[string]bool
	slots  int
	shards int
	next   int // next worker index (churn continues the numbering)
	level  core.ReuseLevel
	env    core.FileSpec
	opLog  []string
	// tenantMix, when non-nil, tags every submitted spec with a tenant
	// drawn from the mix in rotation (deterministic, so both engines see
	// the identical tenant sequence); submits counts spec submissions.
	tenantMix []string
	submits   int
	// windowDones counts invocation completions delivered while an install
	// was in flight and an invocation queued — the interleaving a real
	// burst produces most.
	windowDones int
	// refs turns on the proxy-object comparison (opts.refs); producers
	// marks spec IDs submitted with ResultByRef, refsMade records every
	// fabricated ref in creation order, and nextRef numbers them — both
	// engines see the identical ref identities and sizes.
	refs      bool
	producers map[int64]bool
	refsMade  []core.ObjectRef
	nextRef   int
}

// diffTenants is the multi-tenant differential registry: one
// weight-heavy unbounded tenant, one quota-gated tenant that builds a
// plane queue and throttles, and one tightly-bounded tenant that sheds
// under pressure — every admission verdict and the fair-share drain
// interleaving all appear in a 600-op trace.
func diffTenants() []core.TenantSpec {
	return []core.TenantSpec{
		{Name: "alpha", Weight: 3},
		{Name: "beta", Weight: 1, Quota: 4, ThrottleAt: 6},
		{Name: "gamma", Weight: 2, Quota: 2, MaxQueue: 3, ThrottleAt: 2},
	}
}

// diffTenantMix rotates every registry tenant (gamma oversampled to
// force sheds), an empty tenant (bypasses the plane entirely), and an
// unregistered one (degrades to the direct path).
var diffTenantMix = []string{"alpha", "beta", "alpha", "gamma", "", "alpha", "ghost", "beta", "gamma", "gamma"}

func newDiffHarness(t *testing.T, level core.ReuseLevel, workers, slots int, opts diffOpts) *diffHarness {
	t.Helper()
	shards := opts.shards
	if shards < 1 {
		shards = 1
	}
	// The default retry budget — the replay's — and a backoff short enough
	// that the harness's wait for the requeue is instant. The settings
	// only matter on failure-injecting traces; the happy-path workloads
	// never draw on them.
	mopts := Options{
		PeerTransfers: true, DecisionTrace: &policy.Recorder{}, Shards: shards,
		RetryBaseDelay: time.Nanosecond, RetryMaxDelay: time.Nanosecond,
	}
	if opts.tenants {
		mopts.Tenants = diffTenants()
	}
	if opts.refs {
		// A cap the 1–3MB fabricated refs overflow constantly, so
		// ownership transfers, spills, shared-tier resolves, and
		// promotes all appear in the trace (a 3MB ref even self-spills).
		mopts.RefOwnedBytesCap = 2 << 20
	}
	m := New(mopts)
	h := &diffHarness{t: t, m: m, dead: map[string]bool{}, slots: slots, shards: shards, next: workers, level: level, env: diffEnvSpec(), refs: opts.refs, producers: map[int64]bool{}}
	if opts.tenants {
		h.tenantMix = diffTenantMix
	}
	if level == core.L3 {
		if err := m.RegisterLibrary(&core.LibrarySpec{
			Name:      diffLib,
			Functions: []core.FunctionSpec{{Name: "f", Source: "1"}},
			Env:       &h.env,
			Slots:     slots,
			Resources: core.Resources{Cores: slots},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := sim.Config{
		App:              &apps.CostModel{Name: diffLib, EnvPackedBytes: 64 << 20},
		Level:            level,
		Workers:          workers,
		SlotsPerWorker:   slots,
		PeerTransfers:    true,
		PeerCap:          3,
		ManagerSourceCap: 1 << 30,
		Seed:             1,
	}
	if opts.tenants {
		cfg.Tenants = diffTenants()
	}
	if opts.refs {
		cfg.RefOwnedBytesCap = 2 << 20
	}
	h.rp = sim.NewReplay(cfg, shards)
	for i := 0; i < workers; i++ {
		h.ws = append(h.ws, h.newWorker(fmt.Sprintf("w%04d", i)))
	}
	return h
}

// mgrTrace and mgrDump read the manager's decision trace through the
// deterministic per-shard merge (identical to the shared recorder when
// Shards == 1).
func (h *diffHarness) mgrTrace() []string { return h.m.MergedDecisions() }

func (h *diffHarness) mgrDump() string {
	s := ""
	for _, line := range h.mgrTrace() {
		s += line + "\n"
	}
	return s
}

// newWorker registers a synthetic worker with the manager, triggering
// the same capacity wake a real connection would.
func (h *diffHarness) newWorker(id string) *workerState {
	w := &workerState{
		id: id,
		// DataAddr must be non-empty: the ref plane treats an
		// address-less resolve source as dead (refSourceAddrs).
		hello:        proto.Hello{WorkerID: id, Resources: core.Resources{Cores: h.slots}, DataAddr: "sim://" + id},
		sendq:        make(chan outMsg, 256),
		fetchSources: map[string]string{},
		ackWaiters:   map[string][]*staging{},
		libs:         map[string]*libInstance{},
	}
	if !h.m.adoptWorker(w) {
		h.t.Fatalf("duplicate worker %s", w.id)
	}
	return w
}

// shardOf is the home shard of a harness worker.
func (h *diffHarness) shardOf(w *workerState) *shard {
	return h.m.shardFor(w.id)
}

// deployWindowOpen reports whether, on the manager, some invocation is
// queued while some instance is installing.
func (h *diffHarness) deployWindowOpen() bool {
	queued, installing := 0, false
	for _, s := range h.m.shards {
		s.mu.Lock()
		queued += s.sched.Invs()
		for _, id := range core.SortedKeys(s.workers) {
			li := s.workers[id].libs[diffLib]
			installing = installing || (li != nil && !li.Ready && !li.Failed)
		}
		s.mu.Unlock()
	}
	return queued > 0 && installing
}

// live returns the indices of living workers, in worker order.
func (h *diffHarness) live() []int {
	var out []int
	for i, w := range h.ws {
		if !h.dead[w.id] {
			out = append(out, i)
		}
	}
	return out
}

// settle drops queued worker messages so the synthetic send queues
// never fill (a full queue would drop the "connection").
func (h *diffHarness) settle() {
	for _, w := range h.ws {
		drainMsgs(w)
	}
}

// crossCheck compares per-worker view accounting between the two
// engines, localizing a drift to the first op that caused it.
func (h *diffHarness) crossCheck(op string) {
	for _, w := range h.ws {
		if h.dead[w.id] {
			continue
		}
		s := h.shardOf(w)
		s.mu.Lock()
		wv := h.rp.ViewFor(w.id)
		if wv == nil {
			h.t.Fatalf("after %s: %s live on the manager, gone from the sim", op, w.id)
		}
		if w.v.TransfersOut != wv.TransfersOut {
			h.t.Fatalf("after %s: %s TransfersOut manager=%d sim=%d\nops: %v\nmgr trace:\n%s\nsim trace:\n%s", op, w.id, w.v.TransfersOut, wv.TransfersOut, h.opLog, h.mgrDump(), h.rp.Dump())
		}
		if w.v.Commit != wv.Commit {
			h.t.Fatalf("after %s: %s Commit manager=%+v sim=%+v\nops: %v\nmgr trace:\n%s\nsim trace:\n%s", op, w.id, w.v.Commit, wv.Commit, h.opLog, h.mgrDump(), h.rp.Dump())
		}
		if w.v.Pending[diffEnv] != wv.Pending[diffEnv] {
			h.t.Fatalf("after %s: %s Pending[env] manager=%v sim=%v", op, w.id, w.v.Pending[diffEnv], wv.Pending[diffEnv])
		}
		if w.v.Files[diffEnv] != wv.Files[diffEnv] {
			h.t.Fatalf("after %s: %s Files[env] manager=%v sim=%v", op, w.id, w.v.Files[diffEnv], wv.Files[diffEnv])
		}
		for _, ref := range h.refsMade {
			if w.v.Pending[ref.ID] != wv.Pending[ref.ID] {
				h.t.Fatalf("after %s: %s Pending[%s] manager=%v sim=%v\nops: %v", op, w.id, ref.ID, w.v.Pending[ref.ID], wv.Pending[ref.ID], h.opLog)
			}
			if w.v.Files[ref.ID] != wv.Files[ref.ID] {
				h.t.Fatalf("after %s: %s Files[%s] manager=%v sim=%v\nops: %v", op, w.id, ref.ID, w.v.Files[ref.ID], wv.Files[ref.ID], h.opLog)
			}
		}
		s.mu.Unlock()
	}
}

func (h *diffHarness) submit(n int) {
	h.opLog = append(h.opLog, fmt.Sprintf("submit(%d)", n))
	if h.tenantMix != nil {
		// Tenant mode submits one spec at a time so the sim runs its
		// admission control and fair-share drain at the same points the
		// manager does; the mix rotation is deterministic, so both
		// engines tag the identical spec sequence.
		for i := 0; i < n; i++ {
			tenant := h.tenantMix[h.submits%len(h.tenantMix)]
			h.submits++
			if h.level == core.L3 {
				h.m.SubmitInvocation(&core.InvocationSpec{Library: diffLib, Function: "f", TenantID: tenant})
			} else {
				h.m.Submit(&core.TaskSpec{
					Script:    "1",
					Inputs:    []core.FileSpec{h.env},
					Resources: core.Resources{Cores: 1},
					TenantID:  tenant,
				})
			}
			h.rp.SubmitTenant(tenant)
		}
		return
	}
	for i := 0; i < n; i++ {
		if h.level == core.L3 {
			h.m.SubmitInvocation(&core.InvocationSpec{Library: diffLib, Function: "f"})
		} else {
			h.m.Submit(&core.TaskSpec{
				Script:    "1",
				Inputs:    []core.FileSpec{h.env},
				Resources: core.Resources{Cores: 1},
			})
		}
	}
	h.rp.Submit(n)
}

// canEnvAck reports whether an environment copy is in flight to w.
func (h *diffHarness) canEnvAck(w *workerState) bool {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.v.Pending[diffEnv]
}

func (h *diffHarness) envAck(w *workerState) {
	h.opLog = append(h.opLog, "envAck("+w.id+")")
	h.shardOf(w).onFileAck(w, proto.FileAck{ID: diffEnv, Ok: true, Cache: true})
	if !h.rp.EnvArrived(w.id) {
		h.diffTraces(0)
		h.t.Fatalf("sim rejected EnvArrived(%s) the manager accepted\nmanager trace tail: %v",
			w.id, tail(h.mgrTrace(), 6))
	}
}

func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

// canLibReady reports whether w has an installing (un-acked) library
// instance whose environment has already arrived.
func (h *diffHarness) canLibReady(w *workerState) bool {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	li := w.libs[diffLib]
	return li != nil && !li.Ready && !li.Failed && w.v.Files[diffEnv]
}

func (h *diffHarness) libReady(w *workerState) {
	h.opLog = append(h.opLog, "libReady("+w.id+")")
	h.shardOf(w).onLibraryAck(w, proto.LibraryAck{Library: diffLib, Ok: true, Instance: "i-" + w.id})
	if !h.rp.LibReady(w.id) {
		h.t.Fatalf("sim rejected LibReady(%s) the manager accepted", w.id)
	}
}

// completable returns the lowest-ID completable dispatch on w, if any:
// for tasks one with all staged inputs acked, for invocations any.
func (h *diffHarness) completable(w *workerState) (int64, bool) {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, run := range s.sched.Running(w.id) {
		if st := run.Task.Spec.staging; st == nil || len(st.waiting) == 0 {
			return run.ID(), true
		}
	}
	return -1, false
}

// runningOn returns the live worker dispatch id is in flight on, nil if
// it is queued, backing off or gone.
func (h *diffHarness) runningOn(id int64) *workerState {
	for _, w := range h.ws {
		if h.dead[w.id] {
			continue
		}
		s := h.shardOf(w)
		s.mu.Lock()
		runs := s.sched.Running(w.id)
		found := slices.ContainsFunc(runs, func(run dispatch) bool { return run.ID() == id })
		s.mu.Unlock()
		if found {
			return w
		}
	}
	return nil
}

func (h *diffHarness) done(w *workerState, id int64) {
	if h.producers[id] {
		h.doneRef(w, id)
		return
	}
	h.opLog = append(h.opLog, fmt.Sprintf("done(%s,%d)", w.id, id))
	if h.level == core.L3 && h.deployWindowOpen() {
		h.windowDones++
	}
	h.shardOf(w).onResult(w, core.Result{ID: id, Ok: true, Value: []byte("x")})
	// Task workloads complete by ring key: churn requeues carry keys,
	// so the engines must agree on which task each slot was running.
	ok := false
	if h.level == core.L3 {
		ok = h.rp.Complete(w.id)
	} else {
		ok = h.rp.CompleteTask(w.id, shardplane.TaskKey(id))
	}
	if !ok {
		h.t.Fatalf("sim rejected Complete(%s, task %d) the manager accepted\nops: %v\nmgr trace:\n%s\nsim trace:\n%s",
			w.id, id, h.opLog, h.mgrDump(), h.rp.Dump())
	}
}

// ---- proxy-object (pass-by-reference) events ----

// doneRef completes a ResultByRef producer: the harness fabricates the
// ObjectRef a real executor would return (deterministic ID and a 1–3MB
// size rotation that keeps the 2MB owned-bytes cap under pressure) and
// delivers it through the manager's onResult and the sim's
// CompleteTaskRef, so both catalogs perform the identical ownership
// transfer — and the identical cascaded spills.
func (h *diffHarness) doneRef(w *workerState, id int64) {
	ref := core.ObjectRef{
		ID:    fmt.Sprintf("ref-%04d", h.nextRef),
		Name:  fmt.Sprintf("task-%d.out", id),
		Size:  int64(1+h.nextRef%3) << 20,
		Owner: w.id,
		Tier:  core.TierCache,
	}
	h.nextRef++
	h.refsMade = append(h.refsMade, ref)
	h.opLog = append(h.opLog, fmt.Sprintf("doneRef(%s,%d,%s)", w.id, id, ref.ID))
	h.shardOf(w).onResult(w, core.Result{ID: id, Ok: true, Ref: &ref})
	if !h.rp.CompleteTaskRef(w.id, shardplane.TaskKey(id), ref) {
		h.t.Fatalf("sim rejected CompleteTaskRef(%s, task %d) the manager accepted\nops: %v\nmgr trace:\n%s\nsim trace:\n%s",
			w.id, id, h.opLog, h.mgrDump(), h.rp.Dump())
	}
}

// submitProducer submits one task whose result stays on the producing
// worker (ResultByRef). The sim side sees a plain keyed task —
// ResultByRef does not affect planning, only the completion.
func (h *diffHarness) submitProducer() {
	h.opLog = append(h.opLog, "submitProducer")
	id := h.m.Submit(&core.TaskSpec{
		Script:      "1",
		Inputs:      []core.FileSpec{h.env},
		Resources:   core.Resources{Cores: 1},
		ResultByRef: true,
	})
	h.producers[id] = true
	h.rp.Submit(1)
}

// submitConsumer submits one task whose inputs are the environment plus
// a RefSpec per given ref ID — the pass-by-reference consumption path.
// Both engines rebuild the identical FileSpec bindings (the manager
// from refsMade, the sim from its mirrored catalog).
func (h *diffHarness) submitConsumer(ids []string) {
	h.opLog = append(h.opLog, fmt.Sprintf("submitConsumer(%v)", ids))
	inputs := []core.FileSpec{h.env}
	for _, rid := range ids {
		ref := h.refByID(rid)
		inputs = append(inputs, core.RefSpec(&core.ObjectRef{ID: ref.ID, Name: ref.Name, Size: ref.Size}))
	}
	h.m.Submit(&core.TaskSpec{Script: "1", Inputs: inputs, Resources: core.Resources{Cores: 1}})
	h.rp.SubmitTaskRefs(ids...)
}

func (h *diffHarness) refByID(id string) core.ObjectRef {
	for _, ref := range h.refsMade {
		if ref.ID == id {
			return ref
		}
	}
	h.t.Fatalf("unknown ref %s", id)
	return core.ObjectRef{}
}

// refPending reports whether a ref copy is in flight to w.
func (h *diffHarness) refPending(w *workerState, refID string) bool {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.v.Pending[refID]
}

// refPendingWorkers lists the live workers with an in-flight copy of
// refID, in worker order.
func (h *diffHarness) refPendingWorkers(refID string) []*workerState {
	var out []*workerState
	for _, w := range h.ws {
		if !h.dead[w.id] && h.refPending(w, refID) {
			out = append(out, w)
		}
	}
	return out
}

// refAck lands a consumer's ref fetch: the manager's FileAck path
// (replica note + ref-catalog holder) against the sim's RefArrived.
func (h *diffHarness) refAck(w *workerState, refID string) {
	h.opLog = append(h.opLog, "refAck("+w.id+","+refID+")")
	h.shardOf(w).onFileAck(w, proto.FileAck{ID: refID, Ok: true, Cache: true})
	if !h.rp.RefArrived(w.id, refID) {
		h.t.Fatalf("sim rejected RefArrived(%s,%s) the manager accepted\nops: %v", w.id, refID, h.opLog)
	}
}

// refFail fails a consumer's in-flight ref fetch: the manager retracts
// every non-owner holder and plans a fresh traced resolve
// (restageRefLocked) against the sim's RefFailed mirror.
func (h *diffHarness) refFail(w *workerState, refID string) {
	h.opLog = append(h.opLog, "refFail("+w.id+","+refID+")")
	h.shardOf(w).onFileAck(w, proto.FileAck{ID: refID, Ok: false, Err: "injected ref fetch fault"})
	if !h.rp.RefFailed(w.id, refID) {
		h.t.Fatalf("sim rejected RefFailed(%s,%s) the manager accepted\nops: %v", w.id, refID, h.opLog)
	}
}

// ---- churn and failure injection ----

func (h *diffHarness) addWorker() {
	id := fmt.Sprintf("w%04d", h.next)
	h.next++
	h.opLog = append(h.opLog, "join("+id+")")
	h.ws = append(h.ws, h.newWorker(id))
	if simID := h.rp.AddWorker(); simID != id {
		h.t.Fatalf("worker numbering diverged: manager added %s, sim added %s", id, simID)
	}
}

func (h *diffHarness) killWorker(w *workerState) {
	h.opLog = append(h.opLog, "kill("+w.id+")")
	h.dead[w.id] = true
	h.m.onWorkerGone(w)
	if !h.rp.KillWorker(w.id) {
		h.t.Fatalf("sim rejected KillWorker(%s)", w.id)
	}
}

// canEnvFail reports whether w has an in-flight *peer* env fetch — the
// only kind whose failure the manager recovers by restaging direct.
func (h *diffHarness) canEnvFail(w *workerState) bool {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.v.Pending[diffEnv] && w.fetchSources[diffEnv] != ""
}

func (h *diffHarness) envFail(w *workerState) {
	h.opLog = append(h.opLog, "envFail("+w.id+")")
	h.shardOf(w).onFileAck(w, proto.FileAck{ID: diffEnv, Ok: false, Err: "injected transfer fault"})
	if !h.rp.EnvFailed(w.id) {
		h.t.Fatalf("sim rejected EnvFailed(%s) the manager accepted", w.id)
	}
}

// specFail fails dispatch id — a task or an invocation — on w retryably.
func (h *diffHarness) specFail(w *workerState, id int64) {
	h.opLog = append(h.opLog, fmt.Sprintf("fail(%s,%d)", w.id, id))
	h.shardOf(w).onResult(w, core.Result{ID: id, Ok: false, Retryable: true, Err: "injected fault"})
	h.waitRetryLanded()
	if !h.rp.Fail(w.id, id) {
		h.t.Fatalf("sim rejected Fail(%s, spec %d) the manager accepted", w.id, id)
	}
}

// waitRetryLanded blocks until every pending backoff timer has fired
// and requeued its spec (and the follow-up schedule pass finished), so
// the manager's decisions from a retry are recorded before the sim's.
// The dirty marks are part of the predicate (Settled): the timer callback
// sets them and drops the lock before it calls wake, so nothing can be
// backing off with the requeue's schedule pass still ahead.
func (h *diffHarness) waitRetryLanded() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		quiet := true
		for _, s := range h.m.shards {
			s.mu.Lock()
			if s.sched.BackingOff() != 0 || !s.sched.Settled() {
				quiet = false
			}
			s.mu.Unlock()
		}
		if quiet {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatal("backoff requeue never landed")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// quiesce applies every applicable non-submit event in deterministic
// order until none applies: all transfers land, all deploys come up,
// all dispatches complete.
func (h *diffHarness) quiesce() {
	for {
		progressed := false
		for _, w := range h.ws {
			if h.dead[w.id] {
				continue
			}
			h.settle()
			if h.canEnvAck(w) {
				h.envAck(w)
				progressed = true
			}
			for _, ref := range h.refsMade {
				if h.refPending(w, ref.ID) {
					h.refAck(w, ref.ID)
					progressed = true
				}
			}
			if h.level == core.L3 && h.canLibReady(w) {
				h.libReady(w)
				progressed = true
			}
			for {
				id, ok := h.completable(w)
				if !ok {
					break
				}
				h.done(w, id)
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// diffTraces asserts the two decision traces are identical, printing
// the first divergence with context. Sharded runs are compared shard
// by shard first (a divergence names its shard), then as the merged
// trace — proving the per-shard streams AND the deterministic merge
// rule agree.
func (h *diffHarness) diffTraces(minLines int) {
	if h.tenantMix != nil {
		// The submission plane's trace (admit verdicts, fair-share
		// picks) is its own stream, compared before the shard traces so
		// an admission or drain-order divergence names itself directly.
		h.diffTracePair("plane", h.m.PlaneDecisions(), h.rp.PlaneDecisions())
	}
	if h.refs {
		// The global ref stream (ownership transfers, spills, resolves,
		// promotes, rehomes) is likewise its own trace, compared before
		// the merged view so a proxy-object divergence names itself.
		h.diffTracePair("refs", h.m.RefDecisions(), h.rp.RefDecisions())
	}
	mgrShards := h.m.ShardDecisions()
	simShards := h.rp.ShardDecisions()
	if len(mgrShards) != len(simShards) {
		h.t.Fatalf("shard counts differ: manager=%d sim=%d", len(mgrShards), len(simShards))
	}
	for i := range mgrShards {
		h.diffTracePair(fmt.Sprintf("shard %d", i), mgrShards[i], simShards[i])
	}
	mgr := h.mgrTrace()
	rep := h.rp.Decisions()
	h.diffTracePair("merged", mgr, rep)
	if len(mgr) < minLines {
		h.t.Fatalf("degenerate run: only %d decisions recorded, want >= %d", len(mgr), minLines)
	}
}

func (h *diffHarness) diffTracePair(what string, mgr, rep []string) {
	n := len(mgr)
	if len(rep) < n {
		n = len(rep)
	}
	for i := 0; i < n; i++ {
		if mgr[i] != rep[i] {
			lo := i - 3
			if lo < 0 {
				lo = 0
			}
			h.t.Fatalf("%s decision traces diverge at line %d:\n  manager: %q\n  sim:     %q\ncontext (manager):\n  %v\ncontext (sim):\n  %v\nFULL mgr:\n%s\nFULL sim:\n%s",
				what, i, mgr[i], rep[i], mgr[lo:i+1], rep[lo:i+1], h.mgrDump(), h.rp.Dump())
		}
	}
	if len(mgr) != len(rep) {
		h.t.Fatalf("%s trace lengths differ: manager=%d sim=%d (first %d lines identical)\nFULL mgr:\n%s\nFULL sim:\n%s",
			what, len(mgr), len(rep), n, h.mgrDump(), h.rp.Dump())
	}
}

// diffOpts selects the optional adversarial event classes a
// differential run mixes into its trace, and the dispatch-plane
// partition count both engines run at.
type diffOpts struct {
	churn bool // random worker joins and deaths mid-trace
	fail  bool // injected transfer faults and retryable task failures
	// shards is the partition count of both engines (< 1 means 1).
	// fail is incompatible with shards > 1: the manager upgrades some
	// cross-shard direct sends to peer fetches at the transport layer
	// (invisible to the per-shard policy view), so a canEnvFail probe
	// would pick transfers the sim has recorded as manager sends; the
	// failed-peer-fetch recovery is instead covered end to end by the
	// faultnet test (taskvine/fault_test.go).
	shards int
	// tenants activates the multi-tenant submission plane on both
	// engines (diffTenants registry, diffTenantMix spec tagging) and
	// adds the plane trace to the comparison.
	tenants bool
	// refs mixes in the proxy-object data plane: ResultByRef producers,
	// ref-consuming tasks, fetch acks, and (with fail) fetch faults,
	// with the global ref decision stream added to the comparison. Task
	// workloads only, single tenant, any shard count — the harness
	// injects events one at a time, so the one ref stream every shard's
	// handlers write to has a defined order (see refPlane).
	refs bool
}

// injectChaos maybe applies one churn or failure event, reporting
// whether it consumed the op. Called only when an opts flag is set, so
// the flag-free workloads draw exactly the random sequence they always
// did and their traces stay byte-identical.
func (h *diffHarness) injectChaos(rng *rand.Rand, opts diffOpts, joins *int) bool {
	switch rng.Intn(25) {
	case 0:
		if opts.churn {
			if live := h.live(); len(live) > 3 {
				h.killWorker(h.ws[live[rng.Intn(len(live))]])
				return true
			}
		}
	case 1:
		if opts.churn && *joins < 5 {
			*joins++
			h.addWorker()
			return true
		}
	case 2:
		if opts.fail {
			for _, k := range rng.Perm(len(h.ws)) {
				w := h.ws[k]
				if !h.dead[w.id] && h.canEnvFail(w) {
					h.envFail(w)
					return true
				}
			}
		}
	case 3:
		// Retryable failure of a running task or invocation.
		if opts.fail {
			for _, k := range rng.Perm(len(h.ws)) {
				w := h.ws[k]
				if h.dead[w.id] {
					continue
				}
				if id, ok := h.completable(w); ok {
					h.specFail(w, id)
					return true
				}
			}
		}
	}
	return false
}

// injectRef maybe applies one proxy-object event, reporting whether it
// consumed the op. Called only when opts.refs is set, so the flag-free
// workloads keep their exact random sequences.
func (h *diffHarness) injectRef(rng *rand.Rand, opts diffOpts, outstanding *int) bool {
	switch rng.Intn(8) {
	case 0, 1:
		if *outstanding < 120 {
			h.submitProducer()
			*outstanding++
			return true
		}
	case 2, 3:
		if len(h.refsMade) > 0 && *outstanding < 120 {
			ids := []string{h.refsMade[rng.Intn(len(h.refsMade))].ID}
			if rng.Intn(2) == 1 {
				if id2 := h.refsMade[rng.Intn(len(h.refsMade))].ID; id2 != ids[0] {
					ids = append(ids, id2)
				}
			}
			h.submitConsumer(ids)
			*outstanding++
			return true
		}
	case 4, 5:
		for _, wi := range rng.Perm(len(h.ws)) {
			w := h.ws[wi]
			if h.dead[w.id] {
				continue
			}
			for _, ri := range rng.Perm(len(h.refsMade)) {
				if refID := h.refsMade[ri].ID; h.refPending(w, refID) {
					h.refAck(w, refID)
					return true
				}
			}
		}
	case 6:
		if opts.fail {
			for _, wi := range rng.Perm(len(h.ws)) {
				w := h.ws[wi]
				if h.dead[w.id] {
					continue
				}
				for _, ri := range rng.Perm(len(h.refsMade)) {
					if refID := h.refsMade[ri].ID; h.refPending(w, refID) {
						h.refFail(w, refID)
						return true
					}
				}
			}
		}
	}
	return false
}

// runDifferential drives ops random events through both engines and
// diffs the decision traces, then drives both to quiescence and diffs
// again.
func runDifferential(t *testing.T, level core.ReuseLevel, slots int, seed int64, ops int, opts diffOpts) {
	if opts.fail && opts.shards > 1 {
		t.Fatal("fail injection is not differential-testable at shards > 1 (see diffOpts)")
	}
	if opts.refs && (opts.tenants || level == core.L3) {
		t.Fatal("ref injection runs task workloads with no tenants (see diffOpts)")
	}
	h := newDiffHarness(t, level, 7, slots, opts)
	rng := rand.New(rand.NewSource(seed))
	outstanding := 0
	joins := 0
	for i := 0; i < ops; i++ {
		h.settle()
		h.crossCheck(fmt.Sprintf("op %d", i))
		if (opts.churn || opts.fail) && h.injectChaos(rng, opts, &joins) {
			continue
		}
		if opts.refs && h.injectRef(rng, opts, &outstanding) {
			continue
		}
		switch rng.Intn(10) {
		case 0, 1, 2:
			if outstanding < 120 {
				n := 1 + rng.Intn(4)
				h.submit(n)
				outstanding += n
			}
		case 3, 4:
			for _, k := range rng.Perm(len(h.ws)) {
				if !h.dead[h.ws[k].id] && h.canEnvAck(h.ws[k]) {
					h.envAck(h.ws[k])
					break
				}
			}
		case 5:
			if level == core.L3 {
				for _, k := range rng.Perm(len(h.ws)) {
					if !h.dead[h.ws[k].id] && h.canLibReady(h.ws[k]) {
						h.libReady(h.ws[k])
						break
					}
				}
			}
		default:
			for _, k := range rng.Perm(len(h.ws)) {
				if h.dead[h.ws[k].id] {
					continue
				}
				if id, ok := h.completable(h.ws[k]); ok {
					h.done(h.ws[k], id)
					outstanding--
					break
				}
			}
		}
	}
	h.quiesce()
	h.settle()
	if err := h.m.CheckQuiescence(); err != nil {
		t.Errorf("manager not quiescent after drain: %v", err)
	}
	if p := h.rp.Pending(); p != 0 {
		t.Errorf("sim replay still has %d pending invocations after drain", p)
	}
	h.diffTraces(ops / 4)
	// (Single-slot instances fill at once, so every such trace has the
	// window; sixteen slots a worker can go a whole trace without.)
	if level == core.L3 && slots == 1 && h.windowDones == 0 {
		t.Errorf("degenerate invocation run: no completion was delivered while a deploy was open and an invocation queued")
	}
	if opts.tenants {
		// A trace where admission control never bit would vacuously
		// pass: require every verdict class and the fair-share drain to
		// have actually fired.
		st := h.m.Stats()
		if st.SubmitsShed == 0 || st.SubmitsThrottled == 0 || st.FairDrains == 0 {
			t.Errorf("degenerate tenant run: shed=%d throttled=%d fairDrains=%d — registry pressure never materialized",
				st.SubmitsShed, st.SubmitsThrottled, st.FairDrains)
		}
	}
	if opts.refs {
		// Likewise for the ref plane: ownership transfers and cap
		// pressure (spills) must have actually appeared, and no result
		// bytes may have transited the manager for the by-ref results.
		st := h.m.Stats()
		if st.RefResults == 0 || st.RefSpills == 0 {
			t.Errorf("degenerate ref run: refResults=%d refSpills=%d — the owned-bytes cap never bit", st.RefResults, st.RefSpills)
		}
		if st.BytesByRef == 0 {
			t.Errorf("degenerate ref run: no result bytes stayed on workers")
		}
	}
}

// l3Slots are the slots per library instance every L3 differential runs
// at: the single-slot instance, and the multi-slot ones a real endpoint
// hosts (bench's invoke_burst runs 16).
var l3Slots = []int{1, 4, 16}

func TestDifferentialTaskWorkload(t *testing.T) {
	// L2-style stateless tasks carrying a cached peer-transferable
	// environment input: exercises ring placement, direct vs peer
	// staging, first-copy suppression, and per-source caps.
	for _, seed := range []int64{1, 2, 3} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{})
	}
}

func TestDifferentialInvocationWorkload(t *testing.T) {
	// L3 function invocations on one library instance per worker:
	// exercises ready-instance placement, hash-ring deploys with the
	// saturation guard, and deploy staging.
	for _, slots := range l3Slots {
		for _, seed := range []int64{1, 2, 3} {
			runDifferential(t, core.L3, slots, seed, 600, diffOpts{})
		}
	}
}

func TestDifferentialCompletionDuringDeploy(t *testing.T) {
	// The window the harness used to withhold completions in: one
	// invocation queued behind the deploy it triggered, and the only
	// running invocation completes elsewhere. Both engines bind at ready,
	// so the queued invocation takes the freed slot and the new instance
	// comes up idle. (An engine binding at deploy start leaves the freed
	// slot empty and places on the new instance at its ack.)
	// (With more slots the first instance is filled first: the last of the
	// next burst is the one that queues.)
	for _, slots := range l3Slots {
		h := newDiffHarness(t, core.L3, 2, slots, diffOpts{})
		h.submit(1)
		var first *workerState
		for _, w := range h.ws {
			if h.canEnvAck(w) {
				h.envAck(w)
				h.libReady(w)
				first = w
			}
		}
		id, running := h.completable(first)
		if !running {
			t.Fatalf("slots=%d: the first invocation is not running on %s", slots, first.id)
		}
		h.submit(slots)
		h.settle()
		if !h.deployWindowOpen() {
			t.Fatalf("slots=%d: the last invocation did not queue behind a deploy of its own", slots)
		}
		h.done(first, id)
		h.settle()
		s := h.shardOf(first)
		s.mu.Lock()
		refilled := len(s.sched.Running(first.id))
		s.mu.Unlock()
		if refilled != slots || h.runningOn(id) != nil || h.deployWindowOpen() {
			t.Fatalf("slots=%d: the queued invocation did not take the slot freed on %s (%d running there)", slots, first.id, refilled)
		}
		h.crossCheck("completion during deploy")
		h.quiesce()
		h.settle()
		if err := h.m.CheckQuiescence(); err != nil {
			t.Errorf("slots=%d: manager not quiescent after drain: %v", slots, err)
		}
		if st := h.m.Stats(); st.LibrariesDeployed != 2 || st.InvocationsDone != int64(slots+1) {
			t.Errorf("slots=%d: deployed %d instances and finished %d invocations, want 2 and %d", slots, st.LibrariesDeployed, st.InvocationsDone, slots+1)
		}
		h.diffTraces(6)
	}
}

func TestDifferentialWorkerChurn(t *testing.T) {
	// Workers join and die mid-trace: exercises ring reshaping, replica
	// and in-flight-copy teardown, transfer-slot recovery from dead
	// sources and destinations, and the deterministic ascending-ID
	// requeue with the dead worker as the avoid preference.
	for _, seed := range []int64{1, 2} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{churn: true})
		for _, slots := range l3Slots {
			runDifferential(t, core.L3, slots, seed, 600, diffOpts{churn: true})
		}
	}
}

func TestDifferentialRetryAndAvoidance(t *testing.T) {
	// Injected transfer faults (peer fetch fails → manager restages
	// direct, no new decision) and retryable task and invocation
	// failures (backoff → requeue at the back with the failing worker
	// avoided): exercises the manager's recovery paths against the
	// replay's queues — at L3 the invocation pass's avoid-keyed ready
	// runs and its avoided-worker fallback.
	for _, seed := range []int64{1, 2, 3} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{fail: true})
		for _, slots := range l3Slots {
			runDifferential(t, core.L3, slots, seed, 600, diffOpts{fail: true})
		}
	}
}

func TestDifferentialRetryBudgetExhausted(t *testing.T) {
	// One spec loses attempt after attempt — a retryable failure, then its
	// worker's death, in turn — until the shared budget (the manager's
	// default, the replay's constant) is spent and the next loss drops it:
	// the manager delivers the failure and returns the tenant's quota unit,
	// the replay forgets the spec and returns it too. Both exhaustion paths
	// run (a failed result, a death), at both levels, at one shard and
	// three; every stream and the tenants' accounts must agree, and both
	// engines come to rest with no tenant holding quota.
	for _, shards := range []int{1, 3} {
		for _, level := range []core.ReuseLevel{core.L2, core.L3} {
			for _, lastIsDeath := range []bool{false, true} {
				scriptExhaust(t, level, shards, lastIsDeath)
			}
		}
	}
}

func scriptExhaust(t *testing.T, level core.ReuseLevel, shards int, lastIsDeath bool) {
	where := fmt.Sprintf("level=%v shards=%d lastIsDeath=%v", level, shards, lastIsDeath)
	h := newDiffHarness(t, level, 8, 2, diffOpts{shards: shards, tenants: true})
	// land brings up everything installing or in transit, completing
	// nothing, so whatever can run does.
	land := func() {
		for progressed := true; progressed; {
			progressed = false
			h.settle()
			for _, w := range h.ws {
				if !h.dead[w.id] && h.canEnvAck(w) {
					h.envAck(w)
					progressed = true
				}
				if !h.dead[w.id] && level == core.L3 && h.canLibReady(w) {
					h.libReady(w)
					progressed = true
				}
			}
		}
	}
	// Specs 1–4 are alpha, beta, alpha, gamma: the victim is beta's, whose
	// quota of 4 is what its drop must give back.
	h.submit(4)
	const victim = 2
	for lost := 0; lost <= shardplane.DefaultMaxRetries; lost++ {
		land()
		w := h.runningOn(victim)
		if w == nil {
			t.Fatalf("%s: after %d lost attempts spec %d is not running anywhere", where, lost, victim)
		}
		death := lost%2 == 1
		if lost == shardplane.DefaultMaxRetries {
			death = lastIsDeath
		}
		if death {
			h.killWorker(w)
		} else {
			h.specFail(w, victim)
		}
		h.settle()
		h.crossCheck(fmt.Sprintf("%s: lost attempt %d", where, lost+1))
	}
	if w := h.runningOn(victim); w != nil {
		t.Fatalf("%s: spec %d runs on %s with its budget spent", where, victim, w.id)
	}
	if st := h.m.Stats(); st.Failures != 1 || st.Retries+st.Requeued < shardplane.DefaultMaxRetries {
		t.Fatalf("%s: failures=%d retries=%d requeued=%d, want one failure after %d retried attempts", where, st.Failures, st.Retries, st.Requeued, shardplane.DefaultMaxRetries)
	}
	h.submit(6)
	h.quiesce()
	h.settle()
	if err := h.m.CheckQuiescence(); err != nil {
		t.Errorf("%s: manager not quiescent after drain: %v", where, err)
	}
	if err := h.rp.CheckQuiescence(); err != nil {
		t.Errorf("%s: replay not quiescent after drain: %v", where, err)
	}
	if mgr, rep := h.m.TenantStats(), h.rp.TenantStats(); !reflect.DeepEqual(mgr, rep) {
		t.Errorf("%s: tenant accounts differ:\n  manager: %+v\n  sim:     %+v", where, mgr, rep)
	}
	h.diffTraces(8)
}

func TestDifferentialChurnWithFailures(t *testing.T) {
	// Both adversarial classes at once — deaths can strand in-flight
	// fetches that then fail, retries can land on workers that later
	// die. The harshest fidelity workload we run.
	runDifferential(t, core.L2, 2, 7, 600, diffOpts{churn: true, fail: true})
}

func TestDifferentialSharded(t *testing.T) {
	// The sharded dispatch plane against a sharded Replay: identical
	// routing (ring-key owners for tasks, spec-ID round-robin for
	// invocations), identical batched decision sequences per shard, and
	// the same deterministic trace merge. 2 and 3 shards make both the
	// single-worker-shard and multi-worker-shard layouts appear.
	for _, shards := range []int{2, 3} {
		runDifferential(t, core.L2, 2, int64(10+shards), 600, diffOpts{shards: shards})
		for _, slots := range l3Slots {
			runDifferential(t, core.L3, slots, int64(20+shards), 600, diffOpts{shards: shards})
		}
	}
}

func TestDifferentialMultiTenant(t *testing.T) {
	// The multi-tenant submission plane against the sim's mirror:
	// identical admit verdicts (accept, throttle, quota-gated queuing,
	// shed), identical fair-share drain order under the virtual-time
	// model, identical quota releases on the completion path, and the
	// empty/unregistered tenants riding the direct path untouched. The
	// plane trace, each shard trace, and the merged trace must all be
	// byte-identical.
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{1, 2} {
			for _, slots := range l3Slots {
				runDifferential(t, core.L3, slots, seed, 600, diffOpts{shards: shards, tenants: true})
			}
			runDifferential(t, core.L2, 2, seed, 600, diffOpts{shards: shards, tenants: true})
		}
	}
}

func TestDifferentialMultiTenantChurn(t *testing.T) {
	// Worker churn with the plane active: deaths requeue dispatched
	// specs without releasing their quota units (the retry still holds
	// its admission), evacuations carry each queued spec's tenant across
	// shards, and the fair-share drain keeps feeding a reshaped plane.
	for _, seed := range []int64{41, 42} {
		for _, slots := range l3Slots {
			runDifferential(t, core.L3, slots, seed, 600, diffOpts{shards: 3, churn: true, tenants: true})
		}
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{shards: 3, churn: true, tenants: true})
	}
}

func TestDifferentialRefDataPlane(t *testing.T) {
	// The proxy-object data plane against the sim's ref catalog:
	// identical ownership transfers on by-ref completions, identical
	// cap-pressure spills (1–3MB refs against a 2MB owned budget),
	// identical resolves for ref-consuming tasks — ready on holders,
	// min-ID peer picks, shared-tier fetches with promote-on-reuse —
	// and identical holder bookkeeping on fetch acks. The ref stream,
	// the shard trace, and the merged trace must all be byte-identical.
	for _, seed := range []int64{1, 2, 3} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{refs: true})
	}
}

func TestDifferentialRefChurnAndFailures(t *testing.T) {
	// Refs under churn and faults: owners die with consumers' fetches
	// in flight (rehome onto survivors, shared fallback, or lost),
	// failed fetches invalidate the holder walk and re-resolve, and
	// retryable task failures requeue consumers with their ref inputs
	// intact. Owner death mid-resolve arises naturally: a killed owner
	// leaves pending fetches the fault injector then fails.
	for _, seed := range []int64{7, 8} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{refs: true, churn: true, fail: true})
	}
}

func TestDifferentialRefSharded(t *testing.T) {
	// The engine users actually run: several shards over ONE ref
	// catalog. Producers complete in one shard, consumers resolve from
	// another, a rehome re-homes onto a holder in a third — the global
	// ref stream, every shard's own trace and the merged trace must all
	// be byte-identical, with and without churn.
	for _, shards := range []int{2, 3} {
		for _, seed := range []int64{1, 2, 3} {
			runDifferential(t, core.L2, 2, seed, 600, diffOpts{refs: true, shards: shards})
		}
		for _, seed := range []int64{7, 8} {
			runDifferential(t, core.L2, 2, seed, 600, diffOpts{refs: true, shards: shards, churn: true})
		}
	}
}

func TestDifferentialRefOwnerDeathMidResolve(t *testing.T) {
	// The scripted worst case: a ref's owner dies while one consumer's
	// fetch from it is still in flight. A second consumer that already
	// acked adopts the ref (rehome), the stranded fetch fails and
	// re-resolves onto the new owner, and the replacement fetch lands —
	// every step compared across both engines.
	h := newDiffHarness(t, core.L2, 4, 2, diffOpts{refs: true})
	h.submitProducer()
	h.quiesce()
	h.settle()
	if len(h.refsMade) != 1 {
		t.Fatalf("expected 1 ref after the producer phase, have %d", len(h.refsMade))
	}
	ref := h.refsMade[0]
	owner := ref.Owner

	// Fill the cluster with consumers of that ref, then land every
	// environment copy (but no ref fetches): each non-owner worker
	// running a consumer now has the ref fetch in flight.
	for i := 0; i < 8; i++ {
		h.submitConsumer([]string{ref.ID})
	}
	h.settle()
	for _, w := range h.ws {
		if !h.dead[w.id] && h.canEnvAck(w) {
			h.envAck(w)
		}
	}
	h.settle()
	pend := h.refPendingWorkers(ref.ID)
	if len(pend) < 2 {
		t.Fatalf("need two in-flight ref fetches to script the race, have %d", len(pend))
	}
	wA, wB := pend[0], pend[1]

	// wA's fetch lands (second holder); wB's stays in flight while the
	// owner dies. The rehome must hand the ref to wA — the only
	// surviving holder of record.
	h.refAck(wA, ref.ID)
	for _, w := range h.ws {
		if w.id == owner {
			h.killWorker(w)
		}
	}
	h.settle()
	h.crossCheck("owner death")

	// wB's stranded fetch now fails; the re-resolve must land on the
	// new owner, and the replacement fetch completes the task.
	h.refFail(wB, ref.ID)
	if !h.refPending(wB, ref.ID) {
		t.Fatalf("failed fetch on %s was not re-staged onto the new owner", wB.id)
	}
	h.refAck(wB, ref.ID)
	h.quiesce()
	h.settle()
	if err := h.m.CheckQuiescence(); err != nil {
		t.Errorf("manager not quiescent after drain: %v", err)
	}
	h.crossCheck("final")
	h.diffTraces(1)

	// The ref stream must show the scripted fate: ownership, the
	// rehome onto wA, and a post-death resolve onto the new owner.
	trace := h.m.RefDecisions()
	wantRehome := fmt.Sprintf("rehome obj=%s owner=%s", ref.ID, wA.id)
	wantResolve := fmt.Sprintf("resolve obj=%s dst=%s mode=peer src=%s", ref.ID, wB.id, wA.id)
	var sawRehome, sawResolve bool
	for _, line := range trace {
		if line == wantRehome {
			sawRehome = true
		}
		if sawRehome && line == wantResolve {
			sawResolve = true
		}
	}
	if !sawRehome || !sawResolve {
		t.Errorf("ref trace missing the scripted fate (rehome=%v, post-death resolve=%v):\nwant %q then %q\ngot:\n%v",
			sawRehome, sawResolve, wantRehome, wantResolve, trace)
	}
	if st := h.m.Stats(); st.RefRehomes == 0 {
		t.Errorf("RefRehomes stat never counted the scripted rehome")
	}
}

func TestDifferentialShardedChurn(t *testing.T) {
	// Churn under sharding exercises every shard-crossing path: ring
	// reshaping moves task ownership between shards, a shard losing its
	// last worker evacuates its queues, overflow tasks hop to the next
	// live shard when the home shard's only worker is the avoid target,
	// and starvation nudges reset hop budgets on capacity events.
	for _, seed := range []int64{31, 32} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{shards: 3, churn: true})
		for _, slots := range l3Slots {
			runDifferential(t, core.L3, slots, seed, 600, diffOpts{shards: 3, churn: true})
		}
	}
}

func TestDifferentialShardedOverflow(t *testing.T) {
	// The scripted overflow hop the random churn seeds never reach: a
	// task fails retryably on the only worker of its shard, so the
	// requeue's avoid preference leaves no eligible worker there and the
	// static dead-end rule forwards it to the next live shard — exactly
	// one spec crosses shards, on both engines, and the retry's
	// placement shows up in the *other* shard's trace. Every layout of
	// 2–5 workers over 2 and 3 shards that has a one-worker shard runs.
	//
	// The follow-up the roadmap asks about — a task resting with its hop
	// budget spent until a completion elsewhere resets it — has no script
	// here: every harness task needs one core and every worker has at
	// least one, so a quiet shard with a live worker always places (on
	// the avoided worker if need be) and only busy shards rest work; a
	// busy shard is woken by its own completions, never nudged.
	ran := 0
	for _, shards := range []int{2, 3} {
		for workers := 2; workers <= 5; workers++ {
			if scriptOverflow(t, workers, shards) {
				ran++
			}
		}
	}
	if ran < 4 {
		t.Fatalf("only %d layouts had a one-worker shard beside another live shard", ran)
	}
}

// scriptOverflow runs the overflow script on one layout, reporting
// false if the layout has no shard holding exactly one worker.
func scriptOverflow(t *testing.T, workers, shards int) bool {
	h := newDiffHarness(t, core.L2, workers, 2, diffOpts{shards: shards})
	var lone *workerState
	for _, w := range h.ws {
		if h.m.shardPlane.LiveIn(h.m.shardPlane.ShardOf(w.id)) == 1 {
			lone = w
			break
		}
	}
	if lone == nil {
		return false
	}
	where := fmt.Sprintf("workers=%d shards=%d lone=%s", workers, shards, lone.id)
	// One task at a time until the ring hands one to the lone worker;
	// the others complete where they landed.
	var id int64
	for try := 0; ; try++ {
		if try == 64 {
			t.Fatalf("%s: 64 tasks and none was placed on the lone worker", where)
		}
		h.submit(1)
		for landed := true; landed; {
			landed = false
			h.settle()
			for _, w := range h.ws {
				if h.canEnvAck(w) {
					h.envAck(w)
					landed = true
				}
			}
		}
		if got, ok := h.completable(lone); ok {
			id = got
			break
		}
		h.quiesce()
	}
	if f := h.m.Stats().ShardForwards; f != 0 {
		t.Fatalf("%s: %d specs crossed shards before the failure", where, f)
	}
	h.specFail(lone, id)
	h.settle()
	if f := h.m.Stats().ShardForwards; f != 1 {
		t.Fatalf("%s: ShardForwards = %d after the lone worker failed task %d, want 1", where, f, id)
	}
	// The retry must be running in another shard now, on both engines:
	// the manager's in-flight table says where, the shard traces agree.
	if on := h.runningOn(id); on != nil && h.shardOf(on) == h.shardOf(lone) {
		t.Fatalf("%s: the retry of task %d was placed back in its home shard (on %s)", where, id, on.id)
	}
	h.crossCheck("overflow " + where)
	h.quiesce()
	h.settle()
	if err := h.m.CheckQuiescence(); err != nil {
		t.Errorf("%s: manager not quiescent after drain: %v", where, err)
	}
	if p := h.rp.Pending(); p != 0 {
		t.Errorf("%s: sim replay still has %d pending specs after drain", where, p)
	}
	if st := h.m.Stats(); st.TasksDone == 0 || st.Retries != 1 {
		t.Errorf("%s: tasksDone=%d retries=%d, want the failed task retried once and done", where, st.TasksDone, st.Retries)
	}
	h.diffTraces(2)
	return true
}

func TestDifferentialParkedThenJoin(t *testing.T) {
	// Specs submitted to an empty cluster park in their key's home shard
	// (a task's ring key, an invocation's library); the first join lands
	// in one shard and the others evacuate to it, a later join opens a
	// second shard. Every stream must agree, and exactly the specs parked
	// outside the first worker's shard cross — a count that reads 0 (and
	// leaves the drain below unfinished) if parked shards are never
	// woken or never evacuate.
	for _, shards := range []int{2, 3} {
		for _, tenants := range []bool{false, true} {
			scriptParked(t, core.L2, 2, diffOpts{shards: shards, tenants: tenants, refs: !tenants})
			for _, slots := range l3Slots {
				scriptParked(t, core.L3, slots, diffOpts{shards: shards, tenants: tenants})
			}
		}
	}
}

func scriptParked(t *testing.T, level core.ReuseLevel, slots int, opts diffOpts) {
	h := newDiffHarness(t, level, 0, slots, opts)
	where := fmt.Sprintf("level=%v slots=%d shards=%d tenants=%v", level, slots, opts.shards, opts.tenants)
	nextShard := func() int { return hashring.Partition(fmt.Sprintf("w%04d", h.next), opts.shards) }
	// Every invocation parks in the library's home shard: burn worker
	// numbers (join, then die idle) until the next join lands elsewhere.
	for level == core.L3 && nextShard() == hashring.Partition(diffLib, opts.shards) {
		h.addWorker()
		h.killWorker(h.ws[len(h.ws)-1])
	}
	h.submit(12)
	if opts.refs {
		h.submitProducer()
		h.submitProducer()
	}
	parked := make([]int, opts.shards)
	total := 0
	for i, s := range h.m.shards {
		s.mu.Lock()
		for _, pt := range s.sched.Tasks() {
			if home := hashring.Partition(pt.Key, opts.shards); home != i {
				t.Fatalf("%s: %s parked in shard %d, its key's home is %d", where, pt.Key, i, home)
			}
		}
		if home := hashring.Partition(diffLib, opts.shards); s.sched.Invs() > 0 && home != i {
			t.Fatalf("%s: %d invocations parked in shard %d, the library's home is %d", where, s.sched.Invs(), i, home)
		}
		parked[i] = len(s.sched.Tasks()) + s.sched.Invs()
		total += parked[i]
		s.mu.Unlock()
	}
	if p := h.rp.Pending(); total < 6 || p != total {
		t.Fatalf("%s: %d specs parked on the manager (want >= 6), %d in the sim", where, total, p)
	}
	if st := h.m.Stats(); st.ShardForwards != 0 || len(h.m.MergedDecisions()) != len(h.m.PlaneDecisions()) {
		t.Fatalf("%s: an empty cluster forwarded %d specs and decided %v", where, st.ShardForwards, h.m.MergedDecisions())
	}

	first := nextShard()
	want := int64(total - parked[first])
	if want == 0 {
		t.Fatalf("%s: every spec parked in the first worker's shard; the script evacuates nothing", where)
	}
	h.addWorker()
	h.settle()
	if f := h.m.Stats().ShardForwards; f != want {
		t.Fatalf("%s: first join moved %d specs across shards, want the %d parked outside shard %d", where, f, want, first)
	}
	h.crossCheck("first join " + where)
	for joined := false; !joined; {
		joined = nextShard() != first
		h.addWorker()
	}
	h.settle()
	h.submit(6)
	h.quiesce()
	if opts.refs {
		h.submitConsumer([]string{h.refsMade[0].ID, h.refsMade[1].ID})
		h.quiesce()
	}
	h.settle()
	h.crossCheck("final " + where)
	if err := h.m.CheckQuiescence(); err != nil {
		t.Errorf("%s: manager not quiescent after drain: %v", where, err)
	}
	if p := h.rp.Pending(); p != 0 {
		t.Errorf("%s: sim replay still has %d pending specs after drain", where, p)
	}
	if f := h.m.Stats().ShardForwards; f != want {
		t.Errorf("%s: ShardForwards = %d at the end, want only the %d evacuated", where, f, want)
	}
	h.diffTraces(int(want))
}
