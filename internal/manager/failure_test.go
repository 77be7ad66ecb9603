package manager

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// These tests drive the manager's failure-path bookkeeping directly,
// with synthetic worker states instead of live connections: released
// transfer slots, re-staged peer fetches, retry budgets, library
// deployment accounting, and the never-block result delivery. They run
// single-shard (Shards: 1) so every worker and spec lands in
// m.shards[0], whose fields they inspect.

// fakeWorker registers a synthetic worker state in its home shard and
// the router. The send queue is buffered and never drained; tests only
// inspect what was enqueued.
func fakeWorker(m *Manager, id string) *workerState {
	w := &workerState{
		id:           id,
		hello:        proto.Hello{WorkerID: id, Resources: core.Resources{Cores: 32, MemoryMB: 64 << 10, DiskMB: 64 << 10}},
		sendq:        make(chan outMsg, 256),
		drops:        &m.stats.SendQueueDrops,
		fetchSources: map[string]string{},
		ackWaiters:   map[string][]*staging{},
		libs:         map[string]*libInstance{},
	}
	s := m.shardFor(id)
	s.mu.Lock()
	s.registerWorkerLocked(w)
	s.mu.Unlock()
	m.shardPlane.Add(id)
	return w
}

// dispatchOn submits task and sees it dispatched to w, returning its ID.
// The task takes the real path — intake, Plan, Place, the scheduler's
// in-flight table; for that one pass every other worker of the shard
// looks full.
func dispatchOn(t *testing.T, m *Manager, w *workerState, task *core.TaskSpec) int64 {
	t.Helper()
	s := m.shardFor(w.id)
	s.mu.Lock()
	saved := map[string]core.Resources{}
	for _, id := range core.SortedKeys(s.workers) {
		if o := s.workers[id]; o != w {
			saved[id], o.v.Commit = o.v.Commit, o.v.Total
		}
	}
	s.mu.Unlock()
	id := m.Submit(task)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, oid := range core.SortedKeys(saved) {
		s.workers[oid].v.Commit = saved[oid]
	}
	if runs := s.sched.Running(w.id); len(runs) == 0 || runs[len(runs)-1].ID() != id {
		t.Fatalf("task %d was not dispatched to %s (running there: %+v)", id, w.id, runs)
	}
	return id
}

func drainMsgs(w *workerState) []outMsg {
	var out []outMsg
	for {
		select {
		case msg := <-w.sendq:
			out = append(out, msg)
		default:
			return out
		}
	}
}

func TestWorkerGoneReleasesPeerTransferSlots(t *testing.T) {
	// A destination dying mid-peer-fetch must hand the source's
	// transfer slot back; otherwise each crash permanently leaks one
	// slot until PickSource excludes the source forever.
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	src := fakeWorker(m, "src")
	dst := fakeWorker(m, "dst")
	src.v.TransfersOut = 2
	dst.fetchSources["obj-a"] = "src"
	dst.fetchSources["obj-b"] = "src"

	m.onWorkerGone(dst)

	if src.v.TransfersOut != 0 {
		t.Errorf("source still holds %d transfer slots", src.v.TransfersOut)
	}
	if _, there := s.workers["dst"]; there {
		t.Errorf("dead worker still registered")
	}
	if err := m.CheckQuiescence(); err != nil {
		t.Errorf("quiescence after crash: %v", err)
	}
}

func TestWorkerGoneToleratesDeadSource(t *testing.T) {
	// Both ends of a peer fetch dying must not panic or underflow.
	m := New(Options{PeerTransfers: true, Shards: 1})
	dst := fakeWorker(m, "dst")
	dst.fetchSources["obj"] = "already-gone"
	m.onWorkerGone(dst)
	if err := m.CheckQuiescence(); err != nil {
		t.Errorf("quiescence: %v", err)
	}
}

func TestWorkerGoneReleasesInstallClaim(t *testing.T) {
	// A worker dying with an install in flight takes the install's claim
	// with it: the invocation queued behind that install deploys afresh on
	// the survivor instead of waiting for an ack that will never come.
	m := New(Options{Shards: 1})
	a, b := fakeWorker(m, "a"), fakeWorker(m, "b")
	if err := m.RegisterLibrary(&core.LibrarySpec{Name: "lib", Functions: []core.FunctionSpec{{Name: "f", Source: "1"}}}); err != nil {
		t.Fatal(err)
	}
	m.SubmitInvocation(&core.InvocationSpec{Library: "lib", Function: "f"})
	first, second := a, b
	if a.libs["lib"] == nil {
		first, second = b, a
	}
	if first.libs["lib"] == nil || second.libs["lib"] != nil {
		t.Fatalf("want one install in flight, have a=%v b=%v", a.libs, b.libs)
	}
	m.onWorkerGone(first)
	if second.libs["lib"] == nil || m.Stats().LibrariesDeployed != 2 {
		t.Errorf("the queued invocation did not redeploy on %s: libs=%v deployed=%d", second.id, second.libs, m.Stats().LibrariesDeployed)
	}
}

func TestWorkerGoneRequeuesWithinBudget(t *testing.T) {
	m := New(Options{PeerTransfers: true, MaxRetries: 2, Shards: 1})
	s := m.shards[0]
	lost := fakeWorker(m, "lost")
	survivor := fakeWorker(m, "survivor")
	id := dispatchOn(t, m, lost, simpleTask("requeue-me"))

	m.onWorkerGone(lost)

	requeued := m.Stats().Requeued
	s.mu.Lock()
	defer s.mu.Unlock()
	if requeued != 1 {
		t.Errorf("requeued=%d", requeued)
	}
	// The schedule pass after requeue must have placed it on the
	// survivor, not the dead worker — carrying its spent retry budget.
	runs := s.sched.Running("survivor")
	if len(runs) != 1 || runs[0].ID() != id || runs[0].Task.Retries != 1 || s.sched.InFlight() != 1 {
		t.Fatalf("inflight after requeue: %+v", runs)
	}
	if len(drainMsgs(survivor)) == 0 {
		t.Errorf("nothing dispatched to the survivor")
	}
}

func TestWorkerGoneFailsWhenBudgetExhausted(t *testing.T) {
	m := New(Options{PeerTransfers: true, MaxRetries: 1, Shards: 1})
	s := m.shards[0]
	first := fakeWorker(m, "first")
	lost := fakeWorker(m, "lost")
	// Budget already spent: the spec carries its retry count from the
	// first death to its dispatch on the second worker.
	id := dispatchOn(t, m, first, simpleTask("doomed"))
	m.onWorkerGone(first)
	s.mu.Lock()
	if runs := s.sched.Running("lost"); len(runs) != 1 || runs[0].ID() != id || runs[0].Task.Retries != 1 {
		t.Fatalf("after the first death: %+v", runs)
	}
	s.mu.Unlock()

	m.onWorkerGone(lost)

	select {
	case res := <-m.Results():
		if res.Ok || res.ID != id || !strings.Contains(res.Err, "retry budget exhausted") {
			t.Errorf("result = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no failure delivered")
	}
	failures := m.Stats().Failures
	s.mu.Lock()
	defer s.mu.Unlock()
	if failures != 1 || s.sched.InFlight() != 0 || len(s.sched.Tasks()) != 0 {
		t.Errorf("failures=%d inflight=%d pending=%v", failures, s.sched.InFlight(), s.sched.Tasks())
	}
}

func TestFailedPeerFetchRestagesFromManager(t *testing.T) {
	// A peer fetch that fails on the assigned source and every
	// alternate must be recovered over the manager's own link, so
	// dispatches queued behind the copy do not all die on "input not
	// staged".
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	src := fakeWorker(m, "src")
	dst := fakeWorker(m, "dst")
	obj := content.NewBlob("shared", []byte("payload"))
	fs := core.FileSpec{Object: obj, Cache: true, PeerTransfer: true}
	s.mu.Lock()
	s.m.catalogAdd(fs)
	src.v.TransfersOut = 1
	s.view.NotePending(dst.v, obj.ID)
	dst.fetchSources[obj.ID] = "src"
	s.mu.Unlock()

	s.onFileAck(dst, proto.FileAck{ID: obj.ID, Ok: false, Err: "peer stalled"})

	if src.v.TransfersOut != 0 {
		t.Errorf("source slot not released: %d", src.v.TransfersOut)
	}
	if m.Stats().Restaged != 1 {
		t.Errorf("restaged = %d", m.Stats().Restaged)
	}
	msgs := drainMsgs(dst)
	if len(msgs) != 1 || msgs[0].t != proto.MsgPutFileBulk {
		t.Fatalf("expected one bulk PutFile re-stage, got %v", msgs)
	}
	if !dst.v.Pending[obj.ID] {
		t.Errorf("re-staged object not marked pending")
	}
}

func TestFailedDirectSendDoesNotRestage(t *testing.T) {
	// A failed direct send (cache too small) must NOT re-stage: the
	// manager's link already failed, so resending would loop forever.
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	dst := fakeWorker(m, "dst")
	obj := content.NewBlob("big", []byte("payload"))
	s.mu.Lock()
	s.m.catalogAdd(core.FileSpec{Object: obj, Cache: true})
	s.view.NotePending(dst.v, obj.ID)
	s.mu.Unlock()

	s.onFileAck(dst, proto.FileAck{ID: obj.ID, Ok: false, Err: "cache full"})

	if m.Stats().Restaged != 0 {
		t.Errorf("direct-send failure was re-staged")
	}
	if msgs := drainMsgs(dst); len(msgs) != 0 {
		t.Errorf("unexpected messages: %v", msgs)
	}
}

func TestTransferTimeMeasuresDispatchToAck(t *testing.T) {
	// TransferTime must cover dispatch→last FileAck — the wire time —
	// not the microseconds spent enqueueing into in-memory channels.
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	obj := content.NewBlob("input", []byte("x"))
	task := simpleTask("timed")
	task.Inputs = []core.FileSpec{{Object: obj, Cache: true}}
	id := dispatchOn(t, m, w, task)
	s.mu.Lock()
	if st := s.sched.Running("w")[0].Task.Spec.staging; st == nil || !st.waiting[obj.ID] || len(w.ackWaiters[obj.ID]) != 1 {
		t.Fatalf("the dispatch is not waiting on its staged input: %+v", st)
	}
	s.mu.Unlock()

	const wire = 25 * time.Millisecond
	time.Sleep(wire)
	s.onFileAck(w, proto.FileAck{ID: obj.ID, Ok: true, Cache: true})
	s.onResult(w, core.Result{ID: id, Ok: true})

	select {
	case res := <-m.Results():
		if got := res.Metrics.TransferTime; got < (wire / 2).Seconds() {
			t.Errorf("TransferTime = %.6fs, want at least ~%.3fs of wire time", got, wire.Seconds())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no result delivered")
	}
}

func TestLibraryAckAccounting(t *testing.T) {
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	spec := &core.LibrarySpec{Name: "lib", Functions: []core.FunctionSpec{{Name: "f", Source: "def f():\n    return 1\n"}}}
	m.libMu.Lock()
	m.libSpecs["lib"] = spec
	m.libMu.Unlock()
	res := core.Resources{Cores: 8}
	install := func() {
		s.mu.Lock()
		li := &libInstance{LibraryView: policy.LibraryView{Name: "lib", Slots: 1, MaxInstances: 1, Res: res}}
		w.libs["lib"] = li
		s.view.AddInstance(w.v, &li.LibraryView)
		w.v.Commit = w.v.Commit.Add(res)
		s.mu.Unlock()
	}

	// Failure: the commit must be released, the instance removed, and
	// the failure counted.
	install()
	s.onLibraryAck(w, proto.LibraryAck{Library: "lib", Ok: false, Err: "setup exploded"})
	s.mu.Lock()
	if _, there := w.libs["lib"]; there || w.v.Commit.Cores != 0 || s.libFailures["lib"] != 1 {
		t.Errorf("after failed ack: libs=%v commit=%+v failures=%d", w.libs, w.v.Commit, s.libFailures["lib"])
	}
	s.mu.Unlock()

	// Success resets the failure streak — only consecutive failures
	// quarantine a library.
	install()
	s.onLibraryAck(w, proto.LibraryAck{Library: "lib", Ok: true, Instance: "lib@w#1"})
	s.mu.Lock()
	li := w.libs["lib"]
	if li == nil || !li.Ready || li.instance != "lib@w#1" || s.libFailures["lib"] != 0 {
		t.Errorf("after ok ack: li=%+v failures=%d", li, s.libFailures["lib"])
	}
	s.mu.Unlock()
}

func TestRepeatedLibraryFailureFailsPendingInvocations(t *testing.T) {
	m := New(Options{PeerTransfers: true, Shards: 1})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	spec := &core.LibrarySpec{Name: "bad", Functions: []core.FunctionSpec{{Name: "f", Source: "def f():\n    return 1\n"}}}
	m.libMu.Lock()
	m.libSpecs["bad"] = spec
	m.libMu.Unlock()
	s.mu.Lock()
	s.sched.PushInvs(queuedInv(&core.InvocationSpec{ID: 11, Library: "bad", Function: "f"}))
	s.mu.Unlock()

	for i := 0; i < maxLibraryFailures; i++ {
		s.mu.Lock()
		bi := &libInstance{LibraryView: policy.LibraryView{Name: "bad", MaxInstances: 1}}
		w.libs["bad"] = bi
		s.view.AddInstance(w.v, &bi.LibraryView)
		s.mu.Unlock()
		s.onLibraryAck(w, proto.LibraryAck{Library: "bad", Ok: false, Err: "setup exploded"})
	}

	select {
	case res := <-m.Results():
		if res.Ok || res.ID != 11 || !strings.Contains(res.Err, "failed to deploy") {
			t.Errorf("result = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending invocation never failed after quarantine")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sched.Invs() != 0 {
		t.Errorf("%d invocations still pending for a quarantined library", s.sched.Invs())
	}
}

func TestRetryableLibraryFailureQuarantine(t *testing.T) {
	// The retryable budget: maxLibraryInfraFailures consecutive
	// infrastructure failures quarantine the library, every queued
	// invocation fails exactly once naming that budget (not the
	// broken-setup one), and each returns its tenant quota unit — which
	// releases the spec the quota held back in the plane, failed in turn
	// by validation.
	m := New(Options{Shards: 1, Tenants: []core.TenantSpec{{Name: "t", Quota: 2}}})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	if err := m.RegisterLibrary(&core.LibrarySpec{Name: "flaky", Functions: []core.FunctionSpec{{Name: "f", Source: "1"}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.SubmitInvocation(&core.InvocationSpec{Library: "flaky", Function: "f", TenantID: "t"})
	}
	for i := 0; i < maxLibraryInfraFailures; i++ {
		drainMsgs(w)
		s.mu.Lock()
		if s.sched.Invs() != 2 || w.libs["flaky"] == nil {
			t.Fatalf("before failure %d: %d invocations queued, instance %v", i, s.sched.Invs(), w.libs["flaky"])
		}
		s.mu.Unlock()
		s.onLibraryAck(w, proto.LibraryAck{Library: "flaky", Ok: false, Retryable: true, Err: "env lost"})
	}
	res, err := m.Collect(3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	quarantined := 0
	for _, r := range res {
		if r.Ok || seen[r.ID] {
			t.Errorf("result %+v: want one failure per invocation", r)
		}
		seen[r.ID] = true
		if strings.Contains(r.Err, fmt.Sprintf("failed to deploy %d times: env lost", maxLibraryInfraFailures)) {
			quarantined++
		} else if !strings.Contains(r.Err, "marked broken") {
			t.Errorf("invocation %d failed with %q", r.ID, r.Err)
		}
	}
	if quarantined != 2 {
		t.Errorf("%d of the 2 queued invocations name the %d-failure budget: %v", quarantined, maxLibraryInfraFailures, res)
	}
	select {
	case r := <-m.Results():
		t.Errorf("an invocation failed twice: %+v", r)
	default:
	}
	if err := m.CheckQuiescence(); err != nil {
		t.Errorf("quota or queue leaked: %v", err)
	}
	if st := m.Stats(); st.Failures != 3 {
		t.Errorf("Failures = %d, want 3", st.Failures)
	}
}

func TestEvictEmptyAccounting(t *testing.T) {
	// A deploy that needs the whole worker evicts the idle instance in
	// its way — through the production path: PlanDeploy's Evict list,
	// executed by Deploy before the install.
	m := New(Options{PeerTransfers: true, EvictEmptyLibraries: true, Shards: 1})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	res := core.Resources{Cores: 32, MemoryMB: 64 << 10, DiskMB: 64 << 10}
	for _, name := range []string{"incoming", "other"} {
		if err := m.RegisterLibrary(&core.LibrarySpec{Name: name, Resources: res, Functions: []core.FunctionSpec{{Name: "f", Source: "1"}}}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	idle := &libInstance{LibraryView: policy.LibraryView{Name: "idle", Ready: true, Slots: 1, MaxInstances: 1, Res: res}}
	w.libs["idle"] = idle
	s.view.AddInstance(w.v, &idle.LibraryView)
	w.v.Commit = w.v.Commit.Add(res)

	if on, _ := s.Deploy("incoming"); on != w.id {
		t.Fatalf("eviction should free the idle library")
	}
	// The idle instance's commitment went, the new instance's came.
	if _, there := w.libs["idle"]; there || w.libs["incoming"] == nil || w.v.Commit != res {
		t.Errorf("after evict: libs=%v commit=%+v", w.libs, w.v.Commit)
	}
	if n := atomic.LoadInt64(&m.stats.LibrariesEvicted); n != 1 {
		t.Errorf("evicted = %d", n)
	}
	s.mu.Unlock()
	msgs := drainMsgs(w)
	if len(msgs) != 2 || msgs[0].t != proto.MsgRemoveLibrary || msgs[1].t != proto.MsgInstallLibrary {
		t.Errorf("expected RemoveLibrary then InstallLibrary, got %v", msgs)
	}

	// A busy instance must never be evicted.
	s.onLibraryAck(w, proto.LibraryAck{Library: "incoming", Ok: true, Instance: "incoming@w#1"})
	s.mu.Lock()
	busy := w.libs["incoming"]
	busy.SlotsUsed = 1
	s.libSlotsChangedLocked(w, busy)
	if on, _ := s.Deploy("other"); on != "" {
		t.Errorf("evicted a library with invocations in flight")
	}
	if _, there := w.libs["incoming"]; !there || w.libs["other"] != nil {
		t.Errorf("busy library disappeared from the worker: libs=%v", w.libs)
	}
	if n := atomic.LoadInt64(&m.stats.LibrariesEvicted); n != 1 {
		t.Errorf("evicted = %d after the refused deploy", n)
	}
	s.mu.Unlock()
	if msgs := drainMsgs(w); len(msgs) != 0 {
		t.Errorf("a refused deploy sent %v", msgs)
	}
}

func TestDeliverNeverBlocks(t *testing.T) {
	// With a full results buffer and no reader, deliver must return
	// immediately — blocking here would wedge the worker's reader
	// goroutine and stop FileAcks from draining.
	m := New(Options{ResultBuffer: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(1); i <= 3; i++ {
			m.deliver(core.Result{ID: i, Ok: true})
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("deliver blocked on a full results channel")
	}
	seen := map[int64]bool{}
	for i := 0; i < 3; i++ {
		select {
		case res := <-m.Results():
			seen[res.ID] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of 3 spilled results arrived", len(seen))
		}
	}
	if len(seen) != 3 {
		t.Errorf("results = %v", seen)
	}
}

func TestBackoffDelayProgression(t *testing.T) {
	base, cap := 50*time.Millisecond, 400*time.Millisecond
	unjittered := []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond, // capped
	}
	const specID = 42
	var prev time.Duration
	for i, d := range unjittered {
		got := retryBackoff(base, cap, i+1, specID)
		// Jitter is bounded: within [3d/4, 5d/4) of the exponential.
		if got < d*3/4 || got >= d*5/4 {
			t.Errorf("attempt %d: %v outside jitter band around %v", i+1, got, d)
		}
		// Deterministic: same (spec, attempt) → same delay, every time.
		if again := retryBackoff(base, cap, i+1, specID); again != got {
			t.Errorf("attempt %d: nondeterministic backoff %v vs %v", i+1, got, again)
		}
		// The jitter band never overlaps the next doubling, so delays
		// still grow strictly until the cap region.
		if i > 0 && d != unjittered[i-1] && got <= prev {
			t.Errorf("attempt %d: delay %v did not grow past %v", i+1, got, prev)
		}
		prev = got
	}
}

func TestBackoffJitterSpreadsRetryStorm(t *testing.T) {
	// After a mass failure every affected spec retries at the same
	// attempt number. Without jitter they would all share one delay —
	// a synchronized retry storm. The spec-derived jitter must spread
	// them across the band.
	base, cap := 50*time.Millisecond, 400*time.Millisecond
	delays := map[time.Duration]bool{}
	for id := int64(1); id <= 32; id++ {
		delays[retryBackoff(base, cap, 1, id)] = true
	}
	if len(delays) < 16 {
		t.Errorf("32 specs share only %d distinct retry delays — storm not spread", len(delays))
	}
}

func TestEnqueueOverflowDropsAndCounts(t *testing.T) {
	// A worker whose outbound queue fills must be disconnected — not
	// silently wedged — and the drop must be observable in Stats.
	m := New(Options{Shards: 1})
	w := fakeWorker(m, "slow")
	// Replace the connection with a real one so the drop path can close
	// it; fakeWorker leaves nc nil.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	w.nc = a
	w.sendq = make(chan outMsg, 2)
	for i := 0; i < 2; i++ {
		w.enqueue(outMsg{t: proto.MsgRunTask, v: simpleTask("fill")})
	}
	if got := m.Stats().SendQueueDrops; got != 0 {
		t.Fatalf("drops before overflow = %d", got)
	}
	w.enqueue(outMsg{t: proto.MsgRunTask, v: simpleTask("overflow")})
	if got := m.Stats().SendQueueDrops; got != 1 {
		t.Errorf("SendQueueDrops = %d, want 1", got)
	}
	// The connection was closed: the peer sees EOF, not a timeout.
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("peer read after overflow drop = %v, want EOF", err)
	}
}

func TestSendQueueSizedFromSlots(t *testing.T) {
	if small, big := sendQueueSize(1), sendQueueSize(64); small >= big {
		t.Errorf("queue size not scaling with slots: %d vs %d", small, big)
	}
	if sendQueueSize(0) < 1 {
		t.Errorf("zero-core worker must still get a usable queue")
	}
}

func TestRetryableResultRetriesWithBackoff(t *testing.T) {
	m := New(Options{PeerTransfers: true, MaxRetries: 3,
		RetryBaseDelay: 10 * time.Millisecond, RetryMaxDelay: 40 * time.Millisecond, Shards: 1})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	id := dispatchOn(t, m, w, simpleTask("flaky"))

	s.onResult(w, core.Result{ID: id, Ok: false, Retryable: true, Err: "input not staged"})

	retries := m.Stats().Retries
	s.mu.Lock()
	if retries != 1 || s.sched.BackingOff() != 1 {
		t.Errorf("retries=%d backoffs=%d", retries, s.sched.BackingOff())
	}
	s.mu.Unlock()

	// After the backoff, the task must be back in flight with its spent
	// budget carried along (the only worker is the avoided one, so the
	// fallback pass places it there).
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		runs := s.sched.Running("w")
		inflight := len(runs) == 1 && runs[0].ID() == id
		retries := 0
		if inflight {
			retries = runs[0].Task.Retries
		}
		s.mu.Unlock()
		if inflight {
			if retries != 1 {
				t.Fatalf("redispatched entry carries retries=%d, want 1", retries)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retried task never redispatched")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A non-retryable failure on the same path is final.
	s.onResult(w, core.Result{ID: id, Ok: false, Err: "NameError: boom"})
	select {
	case res := <-m.Results():
		if res.Ok || res.Retryable || !strings.Contains(res.Err, "NameError") {
			t.Errorf("result = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("final failure not delivered")
	}
	if m.Stats().Failures != 1 {
		t.Errorf("failures = %d", m.Stats().Failures)
	}
}

func TestRetriesDisabledDeliversFirstFailure(t *testing.T) {
	m := New(Options{PeerTransfers: true, MaxRetries: -1, Shards: 1})
	s := m.shards[0]
	w := fakeWorker(m, "w")
	id := dispatchOn(t, m, w, simpleTask("once"))

	s.onResult(w, core.Result{ID: id, Ok: false, Retryable: true, Err: "infra hiccup"})
	select {
	case res := <-m.Results():
		if res.Ok || m.Stats().Retries != 0 {
			t.Errorf("res=%+v retries=%d", res, m.Stats().Retries)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failure not delivered with retries disabled")
	}
}
