// Package manager implements the TaskVine manager: it accepts worker
// connections, distributes content-addressed files (directly or via
// peer spanning trees, §3.3), schedules stateless tasks and stateful
// invocations, deploys library instances on demand around a hash ring
// of workers, evicts empty libraries to reclaim resources (§3.5.2),
// and retrieves results.
//
// The dispatch plane is sharded (DESIGN.md §12): worker state is
// partitioned across N shards, each with its own scheduler lock, event
// loop, and dirty-mark/coalesced-wake machinery. Every spec is routed
// to exactly one shard at submission. internal/shardplane owns the
// routing rules and the per-shard scheduler — the coalesced wake loop,
// the task pass and the invocation pass, and every path that moves a
// spec across shards (never holding two shard locks at once) — shared
// with the simulator's Replay driver; this package is the shell around
// it: locks, sockets, timers, failure budgets, Stats.
//
// Within a shard, scheduling is incremental: every event records which
// queues it could unblock (dirty marks) and the wake loop
// runs one coalesced pass over exactly those queues. A pass plans one
// placement, executes it and plans the next, under one lock hold.
package manager

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/shardplane"
)

// Options configures a manager.
type Options struct {
	// Name labels the manager (logs only).
	Name string
	// Shards partitions the dispatch plane (DESIGN.md §12): worker
	// state splits across this many independent scheduler shards, each
	// with its own lock, event loop, and dirty marks. Zero defaults to
	// shardplane.DefaultShards; 1 recovers the single-loop manager.
	Shards int
	// PeerTransfers enables worker-to-worker distribution (Figure 3b);
	// off means every byte flows from the manager (Figure 3a).
	PeerTransfers bool
	// PeerTransferCap is the per-worker cap N on concurrent outbound
	// transfers, avoiding sinks in the spanning tree (§3.3). Zero
	// defaults to 3.
	PeerTransferCap int
	// ClusterAware prefers same-cluster peers as transfer sources
	// (Figure 3c).
	ClusterAware bool
	// EvictEmptyLibraries enables reclaiming workers occupied by idle
	// libraries when another library needs the space (§3.5.2). Defaults
	// to true via New.
	EvictEmptyLibraries bool
	// MaxRetries bounds how many times one task or invocation is
	// retried after infrastructure failures; worker-crash requeues and
	// retryable worker errors both draw on the same per-spec budget.
	// Zero defaults to 3; negative disables retries entirely.
	MaxRetries int
	// RetryBaseDelay is the backoff before the first retry of a failed
	// (but retryable) result; it doubles on each subsequent retry up
	// to RetryMaxDelay, with a deterministic spec-derived jitter so a
	// mass failure does not retry in lockstep. Zero defaults to 50ms.
	// Crash requeues skip the backoff — the failed worker is already
	// gone.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the exponential backoff. Zero defaults to 2s.
	RetryMaxDelay time.Duration
	// RefOwnedBytesCap bounds the owned (holder-of-record, cache-tier)
	// proxy-object bytes per worker (DESIGN.md §15): a producer pushed
	// over the cap by a new by-ref result spills its oldest owned
	// objects to the shared filesystem tier. Zero — the default — means
	// unbounded: no spills, every ref stays cache-tier on its producer.
	RefOwnedBytesCap int64
	// Tenants, when non-empty, activates the submission plane
	// (DESIGN.md §14): specs carrying a TenantID pass admission
	// control, queue per tenant, and reach the shards in weighted
	// fair-share order. Entries are normalized (sorted by name,
	// weights clamped) via core.NormalizeTenants. Empty — the default
	// — keeps the plane entirely off: single-tenant submission is
	// byte-for-byte the old path.
	Tenants []core.TenantSpec
	// DecisionTrace records every decision (differential tests): each
	// shard, the submission plane and the ref plane into recorders of
	// their own (interleaving shards into one would be nondeterministic),
	// read with Trace. Off — the default — records nothing.
	DecisionTrace bool
}

// Stats counts manager-side activity for tests and experiments. It is a
// plain snapshot: Stats() copies it out of the manager's counters
// without taking a scheduler lock.
type Stats struct {
	DirectTransfers   int64 // manager→worker file sends
	PeerTransfers     int64 // worker→worker file sends
	LibrariesDeployed int64
	LibrariesEvicted  int64
	TasksDone         int64
	InvocationsDone   int64
	Failures          int64 // final failures delivered to the application
	Requeued          int64 // specs requeued because their worker died
	Retries           int64 // retryable failed results re-dispatched
	Restaged          int64 // failed peer fetches re-staged from the manager
	SchedulePasses    int64 // coalesced scheduling passes executed
	CoalescedWakeups  int64 // wakeups absorbed by an already-running pass
	WorkerLogs        int64 // worker-side diagnostics received (MsgLog), e.g. protocol decode errors
	ProtocolErrors    int64 // worker connections refused or closed for a frame that did not decode or was not expected
	SendQueueDrops    int64 // worker connections dropped because their outbound queue overflowed
	ShardForwards     int64 // specs moved across shards (evacuation, parked work meeting its first worker)
	SubmitsShed       int64 // submissions rejected by admission control (tenant queue bound hit)
	SubmitsThrottled  int64 // submissions accepted with a backpressure verdict (quota or queue pressure)
	FairDrains        int64 // specs released from tenant plane queues to shard intakes

	// Proxy-object (pass-by-reference) data plane accounting (§15).
	// BytesThroughManager counts inline result payload bytes that
	// transited the manager; BytesByRef counts result bytes that stayed
	// on their producing workers with only the handle traveling — the
	// headline split the by-ref experiment reports.
	RefResults          int64 // results returned as proxy handles (ownership transfers)
	RefTransfers        int64 // consumer ref fetches sourced worker→worker
	RefSpills           int64 // owned objects demoted to the shared tier
	RefPromotes         int64 // shared-tier objects promoted back to a cache-tier owner
	RefRehomes          int64 // refs re-homed (or tier-demoted) after their owner died
	RefLost             int64 // refs with no surviving copy after owner death
	BytesThroughManager int64 // inline result bytes relayed through the manager
	BytesByRef          int64 // result bytes that never transited the manager

	// Coalesced-writer accounting: each worker link's writer goroutine
	// takes everything queued for the worker and writes it at once, so
	// FramesSent/FlushBatches is the mean frames per write — the wire
	// path's syscall amortization factor.
	FramesSent   int64
	FlushBatches int64
}

// counters is the live store behind Stats: one typed atomic for every
// Stats field the manager adds to (SchedulePasses, CoalescedWakeups,
// ShardForwards and FairDrains are read from the plane instead), so a
// plain read or write of a counter does not compile and go vet refuses a
// copy.
type counters struct {
	DirectTransfers, PeerTransfers                   atomic.Int64
	LibrariesDeployed, LibrariesEvicted              atomic.Int64
	TasksDone, InvocationsDone                       atomic.Int64
	Failures, Requeued, Retries, Restaged            atomic.Int64
	WorkerLogs, ProtocolErrors, SendQueueDrops       atomic.Int64
	SubmitsShed, SubmitsThrottled                    atomic.Int64
	RefResults, RefTransfers, RefSpills, RefPromotes atomic.Int64
	RefRehomes, RefLost                              atomic.Int64
	BytesThroughManager, BytesByRef                  atomic.Int64
	FramesSent, FlushBatches                         atomic.Int64
}

// Manager coordinates workers across the sharded dispatch plane.
type Manager struct {
	opts Options
	ln   net.Listener

	// shards partition all worker and spec state; shardPlane holds each
	// one's scheduler, the router (the worker→shard and spec→shard rules)
	// and the two global decision streams — the submission plane and the
	// ref catalog — all shared with the simulator's Replay driver.
	shards     []*shard
	shardPlane *shardplane.Plane[taskSpec, *core.InvocationSpec]

	// libMu guards the registered-library table, read by every shard's
	// validation and deploy paths and written only by RegisterLibrary.
	libMu sync.RWMutex
	libs  map[string]*library

	nextID atomic.Int64
	ctr    counters

	// peerMu guards the live-worker table (index.go): the connection of
	// every adopted worker, through which a send reaches a worker in any
	// shard — a peer stage's source, a ref transfer's, a spill's, an
	// adopt's.
	peerMu sync.RWMutex
	peers  map[string]*workerState

	// catMu guards the global staging catalog: every FileSpec any
	// shard has staged, so a failed peer fetch — or a deploy planned
	// in a shard that never staged the object — can always recover
	// from the manager's own link.
	catMu   sync.RWMutex
	catalog map[string]core.FileSpec

	// memberMu guards joined, which is closed and replaced after every
	// worker join and at Shutdown: WaitForWorkers blocks on it instead of
	// polling the live count.
	memberMu sync.Mutex
	joined   chan struct{}

	results chan core.Result
	// stopped is closed by Shutdown.
	stopped chan struct{}
	wg      sync.WaitGroup
}

// library is a registered library: its spec, and the deploy spec every
// plan of an instance of it reads, built once at registration.
type library struct {
	spec   *core.LibrarySpec
	deploy policy.DeploySpec
}

// shard is one partition of the dispatch plane: a worker table, a
// policy view over exactly those workers, and the shared scheduler
// (sched) that holds and drains the specs routed here. All mutable state
// below mu is touched only with mu held; shards never take each other's
// locks (the scheduler moves specs across with at most one shard lock
// held at a time).
type shard struct {
	m   *Manager
	idx int

	mu          sync.Mutex
	workers     map[string]*workerState
	libFailures map[string]int
	// libInfraFailures counts consecutive retryable (infrastructure)
	// deployment failures per library, bounded separately from
	// broken-setup failures. Like libFailures it is per shard: a
	// library quarantines independently in each partition.
	libInfraFailures map[string]int
	// sched is the shared scheduler: the intake, the task queue, the
	// per-library invocation queues with their install claims, the dirty
	// marks and the objects they wait on, the wake latch and loop, and the
	// in-flight table — what runs on which worker, the retry budget, the
	// specs waiting out a backoff. This shard is its Shell (schedule.go).
	sched *shardplane.Sched[taskSpec, *core.InvocationSpec]

	// ---- scheduler view (policy core) ----

	// view is the cluster snapshot every scheduling decision reads: the
	// shard's worker table, its placement ring, and the derived indexes
	// (PendingCopies, the ready index, LibFull, and Holders — the plane's
	// one index, so a peer source may live in any shard). The scheduler
	// plans against it through internal/policy, records, and makes every
	// change in it; schedule.go executes.
	view *policy.ClusterView
}

// taskSpec is the manager's payload of a task. The shared Task carries
// the ring key, spec ID, retry count, avoid preference and hop count, so
// they migrate between shards intact; staging is the current dispatch's
// alone.
type taskSpec struct {
	t *core.TaskSpec
	// staging is set by Place when the dispatch went out ahead of inputs
	// still on their way, nil otherwise.
	staging *staging
}

func (p taskSpec) Need() core.Resources    { return p.t.Resources }
func (p taskSpec) Inputs() []core.FileSpec { return p.t.Inputs }
func (p taskSpec) Tenant() string          { return p.t.TenantID }

// An invocation's payload is the spec itself.
type (
	pendingTask = shardplane.Task[taskSpec]
	pendingInv  = shardplane.Inv[*core.InvocationSpec]
	dispatch    = shardplane.Run[taskSpec, *core.InvocationSpec]
)

// queuedInv is an invocation as it enters its library's queue.
func queuedInv(inv *core.InvocationSpec) pendingInv {
	return pendingInv{Lib: inv.Library, ID: inv.ID, Spec: inv}
}

// staging times one task dispatch's input transfers: TransferTime is
// dispatch → last FileAck.
type staging struct {
	sentAt time.Time
	// pending counts the distinct objects staged for this dispatch whose
	// FileAck has not arrived yet; each ack stamps the transfer
	// duration, so the last one's stands.
	pending  int
	transfer float64 // dispatch→last FileAck, seconds
}

// waiters are the dispatches on one worker waiting for one object's
// FileAck, the first inline: mostly there is one.
type waiters struct {
	first *staging
	rest  []*staging
}

func (ws waiters) add(st *staging) waiters {
	if ws.first == nil {
		ws.first = st
	} else {
		ws.rest = append(ws.rest, st)
	}
	return ws
}

type workerState struct {
	id    string
	hello proto.Hello
	// conn is the worker's link: enqueue encodes frames into its outbound
	// queue, bounded at sendQueueSize(cores), and serveWorker's writer
	// goroutine writes it.
	conn *proto.Conn
	nc   net.Conn
	// drops points at the manager's SendQueueDrops counter so a
	// queue-overflow disconnect is counted, not silent.
	drops *atomic.Int64
	// v is this worker's entry in the policy view — resources, cached
	// and in-flight files, transfer slots, liveness — built by Join for
	// the plane to enter and keep.
	v *policy.WorkerView
	// ackWaiters maps object ID → dispatches on this worker whose
	// TransferTime is waiting for that object's FileAck.
	ackWaiters map[string]waiters
}

// resultBuffer sizes the results channel: a burst of results that finds
// it full spills, one goroutine per result (deliver).
const resultBuffer = 4096

// sendQueueSize derives a worker's outbound queue bound from its slot
// count: each occupied slot can have a dispatch, its staging messages
// and a few control frames outstanding, with headroom for bursts. A
// worker whose queue passes it is dropped. The bound reserves nothing.
func sendQueueSize(cores int) int { return max(cores*128, 1024) }

// New creates a manager with defaults applied.
func New(opts Options) *Manager {
	if opts.Shards <= 0 {
		opts.Shards = shardplane.DefaultShards
	}
	if opts.PeerTransferCap <= 0 {
		opts.PeerTransferCap = 3
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = shardplane.DefaultMaxRetries
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 50 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 2 * time.Second
	}
	m := &Manager{
		opts:    opts,
		libs:    map[string]*library{},
		peers:   map[string]*workerState{},
		catalog: map[string]core.FileSpec{},
		joined:  make(chan struct{}),
		results: make(chan core.Result, resultBuffer),
		stopped: make(chan struct{}),
	}
	m.shardPlane = shardplane.NewPlane[taskSpec, *core.InvocationSpec](shardplane.Config{
		Shards:           opts.Shards,
		MaxRetries:       opts.MaxRetries,
		Tenants:          opts.Tenants,
		RefOwnedBytesCap: opts.RefOwnedBytesCap,
		Trace:            opts.DecisionTrace,
		Catalog: func(id string) bool {
			_, known := m.catalogGet(id)
			return known
		},
	})
	m.shards = make([]*shard, opts.Shards)
	for i := range m.shards {
		s := &shard{
			m:                m,
			idx:              i,
			workers:          map[string]*workerState{},
			libFailures:      map[string]int{},
			libInfraFailures: map[string]int{},
			view: policy.NewClusterView(policy.Options{
				PeerTransfers:       opts.PeerTransfers,
				PeerTransferCap:     opts.PeerTransferCap,
				ClusterAware:        opts.ClusterAware,
				EvictEmptyLibraries: opts.EvictEmptyLibraries,
			}),
		}
		s.sched = m.shardPlane.Attach(i, s.view, &s.mu, s)
		m.shards[i] = s
	}
	return m
}

// shardFor returns a worker's home shard — a pure function of its ID.
func (m *Manager) shardFor(workerID string) *shard {
	return m.shards[m.shardPlane.ShardOf(workerID)]
}

// Trace returns the recorded decision trace: the submission plane's
// stream (one admit per submission, one pick per fair-share drain), the
// ref catalog's, and each shard's. Empty unless Options.DecisionTrace was
// set.
func (m *Manager) Trace() shardplane.Trace { return m.shardPlane.Trace() }

// TenantStat is one tenant's submission-plane breakdown.
type TenantStat = policy.TenantStat

// TenantStats returns the per-tenant submission-plane breakdown in
// tenant-registry (sorted-name) order. Nil when the plane is off.
func (m *Manager) TenantStats() []TenantStat { return m.shardPlane.TenantStats() }

// Listen starts accepting worker connections on 127.0.0.1 and returns
// the address workers should dial.
func (m *Manager) Listen() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("manager: listen: %w", err)
	}
	m.ln = ln
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.serveWorker(nc)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Results is the stream of completed task/invocation results.
func (m *Manager) Results() <-chan core.Result { return m.results }

// Stats returns a snapshot of manager counters without touching any
// scheduler lock.
func (m *Manager) Stats() Stats {
	var passes, coalesced int64
	for _, s := range m.shards {
		_, absorbed := s.sched.Wakes()
		passes, coalesced = passes+s.sched.Passes(), coalesced+absorbed
	}
	return Stats{
		DirectTransfers:   m.ctr.DirectTransfers.Load(),
		PeerTransfers:     m.ctr.PeerTransfers.Load(),
		LibrariesDeployed: m.ctr.LibrariesDeployed.Load(),
		LibrariesEvicted:  m.ctr.LibrariesEvicted.Load(),
		TasksDone:         m.ctr.TasksDone.Load(),
		InvocationsDone:   m.ctr.InvocationsDone.Load(),
		Failures:          m.ctr.Failures.Load(),
		Requeued:          m.ctr.Requeued.Load(),
		Retries:           m.ctr.Retries.Load(),
		Restaged:          m.ctr.Restaged.Load(),
		SchedulePasses:    passes,
		CoalescedWakeups:  coalesced,
		WorkerLogs:        m.ctr.WorkerLogs.Load(),
		ProtocolErrors:    m.ctr.ProtocolErrors.Load(),
		SendQueueDrops:    m.ctr.SendQueueDrops.Load(),
		ShardForwards:     m.shardPlane.Forwards(),
		SubmitsShed:       m.ctr.SubmitsShed.Load(),
		SubmitsThrottled:  m.ctr.SubmitsThrottled.Load(),
		FairDrains:        m.shardPlane.Drains(),
		RefResults:        m.ctr.RefResults.Load(),
		RefTransfers:      m.ctr.RefTransfers.Load(),
		RefSpills:         m.ctr.RefSpills.Load(),
		RefPromotes:       m.ctr.RefPromotes.Load(),
		RefRehomes:        m.ctr.RefRehomes.Load(),
		RefLost:           m.ctr.RefLost.Load(),

		BytesThroughManager: m.ctr.BytesThroughManager.Load(),
		BytesByRef:          m.ctr.BytesByRef.Load(),
		FramesSent:          m.ctr.FramesSent.Load(),
		FlushBatches:        m.ctr.FlushBatches.Load(),
	}
}

// WorkersConnected returns the number of live workers.
func (m *Manager) WorkersConnected() int {
	return m.shardPlane.Live()
}

// WaitForWorkers blocks until at least n workers are connected, the
// timeout elapses, or the manager shuts down.
func (m *Manager) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		// Take the channel before reading the state: a join or a Shutdown
		// that the reads below miss closes this channel after them.
		m.memberMu.Lock()
		joined := m.joined
		m.memberMu.Unlock()
		if m.shardPlane.Closed() {
			return fmt.Errorf("manager: closed with %d of %d workers connected", m.WorkersConnected(), n)
		}
		if m.WorkersConnected() >= n {
			return nil
		}
		select {
		case <-joined:
		case <-deadline.C:
			return fmt.Errorf("manager: only %d of %d workers connected after %v", m.WorkersConnected(), n, timeout)
		}
	}
}

// membershipChanged wakes every WaitForWorkers blocked on the current
// membership channel.
func (m *Manager) membershipChanged() {
	m.memberMu.Lock()
	close(m.joined)
	m.joined = make(chan struct{})
	m.memberMu.Unlock()
}

// Shutdown stops the manager and tells all workers to exit.
func (m *Manager) Shutdown() {
	if !m.shardPlane.Close() {
		return
	}
	close(m.stopped)
	m.membershipChanged()
	for _, s := range m.shards {
		s.mu.Lock()
		for _, id := range core.SortedKeys(s.workers) {
			s.workers[id].enqueue(proto.MsgShutdown, proto.Shutdown{})
		}
		s.mu.Unlock()
	}
	if m.ln != nil {
		m.ln.Close()
	}
}

// RegisterLibrary makes a library known to the manager. Instances are
// deployed to workers on demand when invocations arrive (§3.5.2).
func (m *Manager) RegisterLibrary(spec *core.LibrarySpec) error {
	if spec.Name == "" {
		return fmt.Errorf("manager: library needs a name")
	}
	if len(spec.Functions) == 0 {
		return fmt.Errorf("manager: library %q has no functions", spec.Name)
	}
	m.libMu.Lock()
	defer m.libMu.Unlock()
	if _, dup := m.libs[spec.Name]; dup {
		return fmt.Errorf("manager: library %q already registered", spec.Name)
	}
	var files []core.FileSpec
	if spec.Env != nil {
		files = append(files, *spec.Env)
	}
	m.libs[spec.Name] = &library{spec: spec, deploy: policy.DeploySpec{
		Name:  spec.Name,
		Res:   spec.Resources,
		Slots: spec.SlotCount(),
		Files: append(files, spec.Inputs...),
	}}
	return nil
}

// library looks up a registered library, nil if there is none.
func (m *Manager) library(name string) *library {
	m.libMu.RLock()
	l := m.libs[name]
	m.libMu.RUnlock()
	return l
}

// ---- spec routing (the cross-shard submit path) ----

// Submit enqueues a stateless task and returns its ID. A task naming
// a registered tenant enters through the submission plane (DESIGN.md
// §14: admission control, per-tenant queue, fair-share release);
// everything else — no TenantID, no plane, or an unregistered tenant —
// routes directly.
func (m *Manager) Submit(t *core.TaskSpec) int64 {
	t.ID = m.nextID.Add(1)
	m.submit(t.TenantID, dispatch{IsTask: true, Task: pendingTask{Key: shardplane.TaskKey(t.ID), ID: t.ID, Spec: taskSpec{t: t}}})
	return t.ID
}

// SubmitInvocation enqueues a FunctionCall and returns its ID. Tenant
// handling matches Submit.
func (m *Manager) SubmitInvocation(inv *core.InvocationSpec) int64 {
	inv.ID = m.nextID.Add(1)
	m.submit(inv.TenantID, dispatch{Inv: queuedInv(inv)})
	return inv.ID
}

// submit hands one spec to the plane, and counts and answers what the
// submission plane decided: a shed spec's failed result is delivered
// here.
func (m *Manager) submit(tenant string, it dispatch) {
	d, known := m.shardPlane.SubmitTenant(tenant, it)
	if !known {
		return
	}
	switch d.Verdict {
	case policy.AdmitThrottle:
		m.ctr.SubmitsThrottled.Add(1)
	case policy.AdmitShed:
		m.ctr.SubmitsShed.Add(1)
		m.fail(it.ID(), fmt.Sprintf("manager: submission shed (%s): tenant %q's plane queue is at its MaxQueue", d.Reason, tenant))
	}
}

// Collect drains n results from the result stream.
func (m *Manager) Collect(n int, timeout time.Duration) ([]core.Result, error) {
	out := make([]core.Result, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case r := <-m.results:
			out = append(out, r)
		case <-deadline:
			return out, fmt.Errorf("manager: collected %d of %d results before timeout", len(out), n)
		}
	}
	return out, nil
}

// ---- worker connection handling ----

// enqueue encodes one frame into the worker's outbound queue.
func (w *workerState) enqueue(t proto.MsgType, v any) { w.enqueueBulk(t, v, nil) }

// enqueueBulk queues a frame with a bulk payload, kept by reference. A
// refused frame drops the connection rather than block the scheduler,
// and the reader loop cleans up. The drop is counted and logged: silent,
// it would look exactly like a worker crash from the outside.
func (w *workerState) enqueueBulk(t proto.MsgType, hdr any, payload []byte) {
	err := w.conn.TryQueueBulk(t, hdr, payload)
	if err == nil {
		return
	}
	if errors.Is(err, proto.ErrQueueFull) && w.drops != nil {
		w.drops.Add(1)
	}
	log.Printf("manager: worker %s: %v; dropping connection", w.id, err)
	w.nc.Close()
}

// adoptWorker enters a connected worker in the live-worker table and
// joins it to its home shard through the plane. It reports false, having
// registered nothing, for a duplicate ID or a closed manager.
func (m *Manager) adoptWorker(w *workerState) bool {
	if !m.peerAdd(w) {
		return false
	}
	if !m.shardPlane.Join(w.id) {
		m.peerDrop(w.id)
		return false
	}
	m.membershipChanged()
	return true
}

// Join registers the connected worker the live-worker table holds under
// worker, unless one of that ID is still registered here, and names its
// view for the plane to enter.
func (s *shard) Join(worker string) *policy.WorkerView {
	if _, dup := s.workers[worker]; dup {
		return nil
	}
	w := s.m.peer(worker)
	w.v = &policy.WorkerView{ID: w.id, Cluster: w.hello.Cluster, Total: w.hello.Resources}
	s.workers[w.id] = w
	return w.v
}

func (m *Manager) serveWorker(nc net.Conn) {
	conn := proto.NewConn(nc)
	t, raw, err := conn.Recv()
	if err != nil {
		nc.Close()
		return
	}
	hello, err := proto.DecodeHello(raw)
	switch {
	case t != proto.MsgHello:
		err = fmt.Errorf("first frame is %v", t)
	case err == nil && hello.WorkerID == "":
		err = fmt.Errorf("no worker ID")
	}
	if err != nil {
		// A peer on another protocol version fails here, on its first
		// frame, before it is ever registered.
		m.ctr.ProtocolErrors.Add(1)
		log.Printf("manager %s: refusing a worker: bad hello: %v", m.opts.Name, err)
		nc.Close()
		return
	}

	conn.SetQueueLimit(sendQueueSize(hello.Resources.Cores))
	w := &workerState{
		id:         hello.WorkerID,
		hello:      hello,
		conn:       conn,
		nc:         nc,
		drops:      &m.ctr.SendQueueDrops,
		ackWaiters: map[string]waiters{},
	}

	if !m.adoptWorker(w) {
		nc.Close()
		return
	}
	s := m.shardFor(w.id)

	// The link's one writer, so scheduling never blocks on TCP
	// backpressure: it writes everything queued at once, until the reader
	// loop ends (done) or a write fails.
	done := make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		n, err := conn.Drain(done)
		for ; n > 0 && err == nil; n, err = conn.Drain(done) {
			m.ctr.FramesSent.Add(int64(n))
			m.ctr.FlushBatches.Add(1)
		}
		if err != nil {
			nc.Close()
		}
	}()

	s.sched.Wake()

	// strs interns the identifier strings every completion repeats
	// (worker ID, library instance) — one table per connection, used
	// only by this reader goroutine.
	var strs proto.Interner
	for {
		// RecvReuse: every case decodes (copying what it keeps) before
		// the next receive; nothing below retains the raw payload.
		t, raw, err := conn.RecvReuse()
		if err != nil {
			break
		}
		if err := m.handleWorkerFrame(s, w, t, raw, &strs); err != nil {
			// The work a lost frame answered would wait forever: drop the
			// worker instead, and onWorkerGone requeues what it held.
			m.ctr.ProtocolErrors.Add(1)
			log.Printf("manager %s: worker %s: protocol error: %v frame: %v", m.opts.Name, w.id, t, err)
			break
		}
	}
	close(done)
	m.onWorkerGone(w)
	nc.Close()
}

// handleWorkerFrame decodes one frame from worker w and hands it to its
// handler. A frame that does not decode, or is not one a worker sends,
// is an error.
func (m *Manager) handleWorkerFrame(s *shard, w *workerState, t proto.MsgType, raw []byte, strs *proto.Interner) error {
	switch t {
	case proto.MsgFileAck:
		ack, err := proto.DecodeFileAck(raw)
		if err == nil {
			s.onFileAck(w, ack)
		}
		return err
	case proto.MsgLibraryAck:
		ack, err := proto.DecodeLibraryAck(raw)
		if err == nil {
			s.onLibraryAck(w, ack)
		}
		return err
	case proto.MsgResult:
		res, err := proto.DecodeResultInterned(raw, strs)
		if err == nil {
			s.onResult(w, res)
		}
		return err
	case proto.MsgLog:
		// Worker-side diagnostics (today: protocol decode errors the
		// worker would otherwise swallow). Surface them in the
		// manager's log and count them so tests and operators notice.
		lm, err := proto.DecodeLog(raw)
		if err == nil {
			m.ctr.WorkerLogs.Add(1)
			log.Printf("manager %s: worker %s: %s", m.opts.Name, lm.Worker, lm.Text)
		}
		return err
	}
	return fmt.Errorf("unexpected message type")
}

// onWorkerGone tears a dead worker down through the plane and fails what
// it held past its retry budget. Crash requeues stay in the shard; if it
// just lost its last worker, its wake loop evacuates the queues to live
// shards.
func (m *Manager) onWorkerGone(w *workerState) {
	m.peerDrop(w.id)
	requeued, lost := m.shardPlane.Leave(w.id)
	m.ctr.Requeued.Add(int64(requeued))
	for i := range lost {
		m.fail(lost[i].ID(), fmt.Sprintf("manager: worker %s lost and retry budget exhausted", w.id))
	}
}

// Leave drops a dead worker from the shard's worker table, and the
// dispatches on it that waited for acks.
func (s *shard) Leave(worker string) {
	s.workers[worker].ackWaiters = nil
	delete(s.workers, worker)
}

func (s *shard) onFileAck(w *workerState, ack proto.FileAck) { s.m.shardPlane.FileAck(w.id, ack) }

// Restage re-sends a copy whose peer fetch failed on every source the
// data plane tried — the assigned one and the alternates it retried on
// its own (§4.3) — over the manager's own link, which is always a valid
// source, rather than leaving every dispatch behind it to die on "input
// not staged".
func (s *shard) Restage(worker string, ack proto.FileAck) bool {
	fs, known := s.m.catalogGet(ack.ID)
	if known {
		s.directSendLocked(s.workers[worker], fs)
	}
	return known
}

// Acked settles a copy's ack: every dispatch that waited for the copy is
// stamped — TransferTime is dispatch→last ack. A restaged copy's
// dispatches wait on, for the replacement's own ack.
func (s *shard) Acked(worker string, ack proto.FileAck, restaged bool) {
	w := s.workers[worker]
	if restaged {
		s.m.ctr.Restaged.Add(1)
		return
	}
	if ws, ok := w.ackWaiters[ack.ID]; ok {
		delete(w.ackWaiters, ack.ID)
		now := time.Now()
		stamp := func(st *staging) {
			if st.pending > 0 {
				st.pending--
				st.transfer = now.Sub(st.sentAt).Seconds()
			}
		}
		stamp(ws.first)
		for _, st := range ws.rest {
			stamp(st)
		}
	}
}

// maxLibraryFailures is how many consecutive failed deployments a
// library gets before its pending invocations are failed instead of
// retried — a broken context setup would otherwise redeploy forever.
const maxLibraryFailures = 3

// maxLibraryInfraFailures bounds consecutive *retryable* deployment
// failures (inputs lost to stalled transfers, resources exhausted).
// It is deliberately generous: chaos that heals should never
// quarantine a healthy library, but a library whose environment can
// never be staged must eventually fail its invocations cleanly.
const maxLibraryInfraFailures = 20

func (s *shard) onLibraryAck(w *workerState, ack proto.LibraryAck) { s.m.shardPlane.LibAck(w.id, ack) }

// Installed settles an install ack's quarantine budgets: a ready
// instance ends the library's failure streaks, a failed one draws on a
// budget — one that trips it fails every queued invocation.
func (s *shard) Installed(_ string, ack proto.LibraryAck) {
	if ack.Ok {
		s.libFailures[ack.Library] = 0
		s.libInfraFailures[ack.Library] = 0
		return
	}
	// Infrastructure-caused install failures (inputs lost to a stalled
	// transfer, resources gone) draw on a much larger budget than
	// broken-setup failures: transient chaos should not quarantine a
	// healthy library, but a persistently unstageable one must still fail
	// cleanly instead of redeploying forever.
	failures, budget := s.libFailures, maxLibraryFailures
	if ack.Retryable {
		failures, budget = s.libInfraFailures, maxLibraryInfraFailures
	}
	if failures[ack.Library]++; failures[ack.Library] >= budget {
		s.failPendingForLibraryLocked(ack.Library, budget, ack.Err)
	}
}

// failPendingForLibraryLocked fails every queued invocation of a
// library that cannot be deployed: failures is the budget that tripped.
// Caller holds the shard lock.
func (s *shard) failPendingForLibraryLocked(library string, failures int, reason string) {
	for _, pi := range s.sched.DrainLib(library) {
		s.failLocked(pi.ID, pi.Spec.TenantID, fmt.Sprintf("manager: library %q failed to deploy %d times: %s", library, failures, reason))
	}
}

// fail delivers spec id's final failure.
func (m *Manager) fail(id int64, err string) {
	m.ctr.Failures.Add(1)
	m.deliver(core.Result{ID: id, Ok: false, Err: err})
}

// failLocked fails spec id and returns its tenant's quota unit. The shard
// lock is held: the plane's drain runs now, and the shards it feeds wake
// at the next wake-loop exit.
func (s *shard) failLocked(id int64, tenant, err string) {
	s.m.fail(id, err)
	s.m.shardPlane.Release(tenant)
}

func (s *shard) onResult(w *workerState, res core.Result) { s.m.shardPlane.Result(w.id, res) }

// Done is a result's engine work, no lock held: the counters and the
// delivery — or, within the retry budget, the backoff timer whose end
// requeues the spec (retryAfter). The dispatch's staging stamp needs no
// lock: only this worker's acks write it, and they arrive on this
// goroutine.
func (s *shard) Done(_ string, r dispatch, res core.Result, retry int) {
	m := s.m
	if res.Ok {
		if res.Ref != nil {
			// A by-ref result's bytes stayed on the producer (§15).
			m.ctr.RefResults.Add(1)
			m.ctr.BytesByRef.Add(res.Ref.Size)
		} else if n := len(res.Value); n > 0 {
			m.ctr.BytesThroughManager.Add(int64(n))
		}
	}
	if r.IsTask {
		if st := r.Task.Spec.staging; st != nil {
			res.Metrics.TransferTime += st.transfer
		}
		m.ctr.TasksDone.Add(1)
	} else {
		m.ctr.InvocationsDone.Add(1)
	}
	if retry > 0 {
		m.ctr.Retries.Add(1)
		s.retryAfter(res.ID, retryBackoff(m.opts.RetryBaseDelay, m.opts.RetryMaxDelay, retry, res.ID))
		return
	}
	if !res.Ok {
		m.ctr.Failures.Add(1)
	}
	m.deliver(res)
}

// retryBackoff computes the delay before retry attempt n (1-based):
// exponential growth from base, capped, with a deterministic jitter
// derived from the spec ID so a mass failure does not send every
// retry back at the same instant (policy.RetryJitter — pure and
// seedable, so fidelity traces stay stable).
func retryBackoff(base, cap time.Duration, attempt int, specID int64) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			d = cap
			break
		}
	}
	if d > cap {
		d = cap
	}
	return time.Duration(policy.RetryJitter(int64(d), specID, attempt))
}

// retryAfter requeues spec id, backing off in this shard's table, once
// delay elapses. Requeues stay shard-local; if the shard has meanwhile
// lost its workers, the wake loop's evacuation path takes over.
func (s *shard) retryAfter(id int64, delay time.Duration) {
	s.m.wg.Add(1)
	time.AfterFunc(delay, func() {
		defer s.m.wg.Done()
		s.mu.Lock()
		s.sched.Retry(id)
		s.mu.Unlock()
		s.sched.Wake()
	})
}

// deliver pushes a result to the application without ever blocking
// the caller: a full results channel spills into a goroutine instead
// of stalling the worker's reader goroutine (which would stop its
// FileAcks and LibraryAcks from draining). Safe to call with or
// without a shard lock held. The spill is a method, not a closure, so
// res moves to the heap only when the channel is full.
func (m *Manager) deliver(res core.Result) {
	select {
	case m.results <- res:
	default:
		m.wg.Add(1)
		go m.spill(res)
	}
}

// spill waits for room for res in the results channel, or drops it once
// Shutdown stops the manager: after that nobody need be reading.
func (m *Manager) spill(res core.Result) {
	defer m.wg.Done()
	select {
	case m.results <- res:
	case <-m.stopped:
	}
}

// CheckQuiescence verifies the manager's recovery invariants at rest:
// no copy is still in flight, every transfer slot has been returned, and
// no work is queued, in flight, or waiting out a retry backoff — in any
// shard (shardplane.Plane.Quiescent). Chaos tests call this after
// collecting all results; a non-nil error means bookkeeping leaked
// somewhere along a failure path.
func (m *Manager) CheckQuiescence() error {
	if err := m.shardPlane.Quiescent(); err != nil {
		return fmt.Errorf("manager: %w", err)
	}
	return nil
}

// LibraryDeployments returns, for each registered library, how many
// instances are currently deployed and their total share values —
// the data behind Figures 10 and 11.
func (m *Manager) LibraryDeployments() (instances int, totalServed int64) {
	for _, s := range m.shards {
		s.mu.Lock()
		for _, w := range s.view.Sorted {
			for _, lv := range w.Libs { //vinelint:unordered summing counters commutes
				if lv.Ready {
					instances++
					totalServed += lv.Served
				}
			}
		}
		s.mu.Unlock()
	}
	return instances, totalServed
}
