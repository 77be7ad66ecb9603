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
// queues it could unblock (dirty marks, index.go) and the wake loop
// runs one coalesced pass over exactly those queues. Each pass plans
// placements in batches — one policy call plans K placements with
// strict sequential equivalence (internal/policy batch entry points) —
// so pass setup amortizes over the queue.
package manager

import (
	"fmt"
	"log"
	"net"
	"runtime"
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
	// ResultBuffer sizes the results channel (default 4096).
	ResultBuffer int
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
	// DecisionTrace, when set, enables decision tracing (differential
	// and golden tests). With Shards == 1 every decision lands in this
	// recorder — the legacy single-loop contract. With Shards > 1 each
	// shard records into its own internal recorder (interleaving all
	// shards into one recorder would be nondeterministic); read them
	// with ShardDecisions or MergedDecisions. nil — the default —
	// keeps tracing entirely off the hot path.
	DecisionTrace *policy.Recorder
}

// Stats counts manager-side activity for tests and experiments. All
// fields are maintained with atomic adds so Stats() never takes a
// scheduler lock.
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

	// Coalesced-writer accounting: each per-worker sender goroutine
	// drains its queue greedily into the connection's pending buffer
	// and issues one flush per drain batch, so FramesSent/FlushBatches
	// is the mean frames-per-write — the wire path's syscall
	// amortization factor. MaxFlushBatch is the largest single batch.
	FramesSent    int64
	FlushBatches  int64
	MaxFlushBatch int64
}

// Manager coordinates workers across the sharded dispatch plane.
type Manager struct {
	opts Options
	ln   net.Listener

	// shards partition all worker and spec state; shardPlane holds each
	// one's scheduler and the router (the worker→shard and spec→shard
	// rules), both shared with the simulator's Replay driver.
	shards     []*shard
	shardPlane *shardplane.Plane[taskSpec, *core.InvocationSpec]

	// libMu guards the registered-library table, read by every shard's
	// validation path and written only by RegisterLibrary.
	libMu    sync.RWMutex
	libSpecs map[string]*core.LibrarySpec

	// plane is the multi-tenant submission plane, nil without
	// Options.Tenants and never reassigned after New: the
	// single-tenant hot path's tenancy cost is one nil check.
	plane *submitPlane

	// refs is the proxy-object plane (refplane.go): the global catalog
	// of pass-by-reference results and the decision stream over it.
	refs *refPlane

	nextID atomic.Int64
	stats  Stats

	// obsMu guards the global replica registry: which workers hold a
	// confirmed copy of each object (holders), and the live-worker
	// table with each worker's cross-shard outbound transfer count
	// (peers). Shards maintain it with per-transition deltas; it backs
	// both ObjectHolders and cross-shard peer sourcing — a shard whose
	// own view has no holder of an object can still assign a peer
	// fetch from a holder in another shard (transport-level, outside
	// the policy trace).
	obsMu   sync.RWMutex
	holders map[string]map[string]bool
	peers   map[string]*peerSource

	// catMu guards the global staging catalog: every FileSpec any
	// shard has staged, so a failed peer fetch — or a deploy planned
	// in a shard that never staged the object — can always recover
	// from the manager's own link.
	catMu   sync.RWMutex
	catalog map[string]core.FileSpec

	results chan core.Result
	wg      sync.WaitGroup
}

// peerSource is a live worker's entry in the global replica registry:
// the connection (for its data address and send queue) plus how many
// cross-shard peer fetches it is currently serving. Local-shard
// transfer slots are accounted in the shard's policy view; cross-shard
// assignments use this counter, under the same cap.
type peerSource struct {
	w   *workerState
	out int
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
	// (Holders, PendingCopies, the ready index, LibFull). index.go keeps
	// it current; internal/policy decides against it; schedule.go executes.
	// Peer-transfer sources are shard-local by construction: PickSource
	// only sees this shard's holders.
	view *policy.ClusterView
	// rec, when non-nil, records this shard's decision trace.
	rec *policy.Recorder

	// reqScratch is the task pass's reusable request buffer, truncated
	// and refilled under the shard lock, so steady-state planning
	// allocates no slices.
	reqScratch []policy.TaskReq
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

func (p taskSpec) Need() core.Resources { return p.t.Resources }

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
	// waiting holds object IDs staged for this dispatch whose FileAck
	// has not arrived yet; the last ack stamps the transfer duration.
	waiting  map[string]bool
	transfer float64 // dispatch→last FileAck, seconds
}

type outMsg struct {
	t proto.MsgType
	v any
	// bulk frames carry v as a JSON header and payload as raw bytes
	// (proto.SendBulk) — no base64, no second buffer.
	bulk    bool
	payload []byte
}

type workerState struct {
	id    string
	hello proto.Hello
	conn  *proto.Conn
	nc    net.Conn
	sendq chan outMsg
	// drops points at the shared Stats.SendQueueDrops counter so a
	// queue-overflow disconnect is counted, not silent.
	drops *int64
	// v is this worker's entry in the policy view: resources, cached
	// and in-flight files, transfer slots, liveness. index.go binds it
	// at registration and every handler reports transitions through it.
	v *policy.WorkerView
	// fetchSources maps object ID → source worker of an in-flight peer
	// fetch, to release the source's transfer slot on ack.
	fetchSources map[string]string
	// ackWaiters maps object ID → dispatches on this worker whose
	// TransferTime is waiting for that object's FileAck.
	ackWaiters map[string][]*staging
	libs       map[string]*libInstance
}

// libInstance is one deployed library instance: the policy-visible
// state (embedded view, shared by pointer with the ClusterView) plus
// engine-only bookkeeping.
type libInstance struct {
	policy.LibraryView
	instance string
	served   int64
}

// sendQueueSize derives a worker's outbound queue depth from its slot
// count: each occupied slot can have a dispatch, its staging messages,
// and a few control frames outstanding, with generous headroom for
// bursts. The old flat 16384 wasted memory on small workers and still
// had no principled relation to how much the scheduler can reasonably
// have in flight to one worker.
func sendQueueSize(cores int) int {
	const perSlot, floor = 128, 1024
	n := cores * perSlot
	if n < floor {
		n = floor
	}
	return n
}

// New creates a manager with defaults applied.
func New(opts Options) *Manager {
	if opts.Shards <= 0 {
		opts.Shards = shardplane.DefaultShards
	}
	if opts.PeerTransferCap <= 0 {
		opts.PeerTransferCap = 3
	}
	if opts.ResultBuffer <= 0 {
		opts.ResultBuffer = 4096
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
		opts:       opts,
		shardPlane: shardplane.NewPlane[taskSpec, *core.InvocationSpec](opts.Shards, opts.MaxRetries),
		libSpecs:   map[string]*core.LibrarySpec{},
		holders:    map[string]map[string]bool{},
		peers:      map[string]*peerSource{},
		catalog:    map[string]core.FileSpec{},
		results:    make(chan core.Result, opts.ResultBuffer),
	}
	m.shards = make([]*shard, opts.Shards)
	for i := range m.shards {
		var rec *policy.Recorder
		if opts.DecisionTrace != nil {
			if opts.Shards == 1 {
				rec = opts.DecisionTrace
			} else {
				rec = &policy.Recorder{}
			}
		}
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
			rec: rec,
		}
		s.sched = m.shardPlane.Attach(i, s.view, &s.mu, s)
		m.shards[i] = s
	}
	if len(opts.Tenants) > 0 {
		m.plane = newSubmitPlane(m, opts.Tenants, opts.DecisionTrace != nil)
	}
	m.refs = newRefPlane(m, opts.RefOwnedBytesCap, opts.DecisionTrace != nil)
	return m
}

// NewDefault creates a manager with peer transfers and empty-library
// eviction enabled — the paper's recommended configuration.
func NewDefault() *Manager {
	return New(Options{PeerTransfers: true, EvictEmptyLibraries: true})
}

// shardFor returns a worker's home shard — a pure function of its ID.
func (m *Manager) shardFor(workerID string) *shard {
	return m.shards[m.shardPlane.ShardOf(workerID)]
}

// ShardDecisions returns each shard's recorded decision trace, in
// shard-index order. Empty unless Options.DecisionTrace was set.
func (m *Manager) ShardDecisions() [][]string {
	out := make([][]string, len(m.shards))
	for i, s := range m.shards {
		if s.rec != nil {
			out[i] = append([]string(nil), s.rec.Decisions...)
		}
	}
	return out
}

// MergedDecisions returns the whole decision trace, composed by the
// rule shared with the simulator's Replay (shardplane.ComposeTraces).
func (m *Manager) MergedDecisions() []string {
	return shardplane.ComposeTraces(m.PlaneDecisions(), m.RefDecisions(), m.ShardDecisions())
}

// PlaneDecisions returns the submission plane's recorded trace: one
// admit line per submission, one pick line per fair-share drain.
// Empty without Options.Tenants or Options.DecisionTrace.
func (m *Manager) PlaneDecisions() []string {
	return m.plane.Decisions()
}

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
		DirectTransfers:   atomic.LoadInt64(&m.stats.DirectTransfers),
		PeerTransfers:     atomic.LoadInt64(&m.stats.PeerTransfers),
		LibrariesDeployed: atomic.LoadInt64(&m.stats.LibrariesDeployed),
		LibrariesEvicted:  atomic.LoadInt64(&m.stats.LibrariesEvicted),
		TasksDone:         atomic.LoadInt64(&m.stats.TasksDone),
		InvocationsDone:   atomic.LoadInt64(&m.stats.InvocationsDone),
		Failures:          atomic.LoadInt64(&m.stats.Failures),
		Requeued:          atomic.LoadInt64(&m.stats.Requeued),
		Retries:           atomic.LoadInt64(&m.stats.Retries),
		Restaged:          atomic.LoadInt64(&m.stats.Restaged),
		SchedulePasses:    passes,
		CoalescedWakeups:  coalesced,
		WorkerLogs:        atomic.LoadInt64(&m.stats.WorkerLogs),
		SendQueueDrops:    atomic.LoadInt64(&m.stats.SendQueueDrops),
		ShardForwards:     m.shardPlane.Forwards(),
		SubmitsShed:       atomic.LoadInt64(&m.stats.SubmitsShed),
		SubmitsThrottled:  atomic.LoadInt64(&m.stats.SubmitsThrottled),
		FairDrains:        atomic.LoadInt64(&m.stats.FairDrains),
		RefResults:        atomic.LoadInt64(&m.stats.RefResults),
		RefTransfers:      atomic.LoadInt64(&m.stats.RefTransfers),
		RefSpills:         atomic.LoadInt64(&m.stats.RefSpills),
		RefPromotes:       atomic.LoadInt64(&m.stats.RefPromotes),
		RefRehomes:        atomic.LoadInt64(&m.stats.RefRehomes),
		RefLost:           atomic.LoadInt64(&m.stats.RefLost),

		BytesThroughManager: atomic.LoadInt64(&m.stats.BytesThroughManager),
		BytesByRef:          atomic.LoadInt64(&m.stats.BytesByRef),
		FramesSent:          atomic.LoadInt64(&m.stats.FramesSent),
		FlushBatches:        atomic.LoadInt64(&m.stats.FlushBatches),
		MaxFlushBatch:       atomic.LoadInt64(&m.stats.MaxFlushBatch),
	}
}

// WorkersConnected returns the number of live workers.
func (m *Manager) WorkersConnected() int {
	return m.shardPlane.Live()
}

// WaitForWorkers blocks until at least n workers are connected or the
// timeout elapses.
func (m *Manager) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if m.WorkersConnected() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("manager: only %d of %d workers connected after %v", m.WorkersConnected(), n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Shutdown stops the manager and tells all workers to exit.
func (m *Manager) Shutdown() {
	if !m.shardPlane.Close() {
		return
	}
	for _, s := range m.shards {
		s.mu.Lock()
		for _, id := range core.SortedKeys(s.workers) {
			s.workers[id].enqueue(outMsg{t: proto.MsgShutdown, v: struct{}{}})
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
	if _, dup := m.libSpecs[spec.Name]; dup {
		return fmt.Errorf("manager: library %q already registered", spec.Name)
	}
	m.libSpecs[spec.Name] = spec
	return nil
}

// libSpec looks up a registered library.
func (m *Manager) libSpec(name string) (*core.LibrarySpec, bool) {
	m.libMu.RLock()
	spec, ok := m.libSpecs[name]
	m.libMu.RUnlock()
	return spec, ok
}

// ---- spec routing (the cross-shard submit path) ----

// Submit enqueues a stateless task and returns its ID. A task naming
// a registered tenant enters through the submission plane (admission
// control, per-tenant queue, fair-share release); everything else —
// no TenantID, no plane, or an unregistered tenant — routes directly.
func (m *Manager) Submit(t *core.TaskSpec) int64 {
	t.ID = m.nextID.Add(1)
	it := dispatch{IsTask: true, Task: pendingTask{Key: shardplane.TaskKey(t.ID), ID: t.ID, Spec: taskSpec{t: t}}}
	if t.TenantID == "" || m.plane == nil || !m.plane.submit(t.TenantID, it, t.ID) {
		m.shardPlane.Submit(it)
	}
	return t.ID
}

// SubmitInvocation enqueues a FunctionCall and returns its ID. Tenant
// handling matches Submit.
func (m *Manager) SubmitInvocation(inv *core.InvocationSpec) int64 {
	inv.ID = m.nextID.Add(1)
	it := dispatch{Inv: queuedInv(inv)}
	if inv.TenantID == "" || m.plane == nil || !m.plane.submit(inv.TenantID, it, inv.ID) {
		m.shardPlane.Submit(it)
	}
	return inv.ID
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

func (w *workerState) enqueue(msg outMsg) {
	select {
	case w.sendq <- msg:
	default:
		// Queue full: drop the connection rather than deadlock the
		// scheduler; the reader loop will clean up. Count and log the
		// drop — a silent disconnect here looks exactly like a worker
		// crash from the outside and is otherwise undiagnosable.
		if w.drops != nil {
			atomic.AddInt64(w.drops, 1)
		}
		log.Printf("manager: worker %s outbound queue full (%d); dropping connection", w.id, cap(w.sendq))
		w.nc.Close()
	}
}

// adoptWorker registers a connected worker in its home shard and the
// routing fabric. It reports false (without registering) for duplicate
// IDs or a closed manager.
func (m *Manager) adoptWorker(w *workerState) bool {
	s := m.shardFor(w.id)
	s.mu.Lock()
	if _, dup := s.workers[w.id]; dup || m.shardPlane.Closed() {
		s.mu.Unlock()
		return false
	}
	s.registerWorkerLocked(w)
	s.sched.Joined()
	s.mu.Unlock()
	m.peerAdd(w)
	m.shardPlane.Add(w.id)
	s.sched.Wake()
	// Parked work in workerless shards can now be evacuated here, and
	// work starving in shards this worker doesn't belong to gets its
	// overflow hop budget back so it can reach the new capacity.
	m.shardPlane.WakeParked()
	m.shardPlane.Nudge()
	return true
}

func (m *Manager) serveWorker(nc net.Conn) {
	conn := proto.NewConn(nc)
	t, raw, err := conn.Recv()
	if err != nil || t != proto.MsgHello {
		nc.Close()
		return
	}
	hello, err := proto.Decode[proto.Hello](raw)
	if err != nil || hello.WorkerID == "" {
		nc.Close()
		return
	}

	w := &workerState{
		id:           hello.WorkerID,
		hello:        hello,
		conn:         conn,
		nc:           nc,
		sendq:        make(chan outMsg, sendQueueSize(hello.Resources.Cores)),
		drops:        &m.stats.SendQueueDrops,
		fetchSources: map[string]string{},
		ackWaiters:   map[string][]*staging{},
		libs:         map[string]*libInstance{},
	}

	if !m.adoptWorker(w) {
		nc.Close()
		return
	}
	s := m.shardFor(w.id)

	// Sender goroutine drains the queue so scheduling never blocks on
	// TCP backpressure. Frames are coalesced: a burst of queued
	// messages is encoded into the connection's pending buffer and
	// flushed in one write syscall once the queue runs momentarily dry.
	done := make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			var msg outMsg
			select {
			case msg = <-w.sendq:
			case <-done:
				return
			}
			var batch int64
			yielded := false
			for {
				var err error
				if msg.bulk {
					// SendBulk drains the pending buffer first, so
					// ordering with buffered frames is preserved.
					err = conn.SendBulk(msg.t, msg.v, msg.payload)
				} else {
					err = conn.Buffer(msg.t, msg.v)
				}
				if err != nil {
					nc.Close()
					return
				}
				batch++
				select {
				case msg = <-w.sendq:
					continue
				default:
				}
				// One cooperative yield before flushing lets same-core
				// producers (the scheduler mid-burst) top the queue off,
				// so the flush carries a bigger batch in one write
				// syscall instead of many near-empty ones.
				if !yielded {
					yielded = true
					runtime.Gosched()
					select {
					case msg = <-w.sendq:
						continue
					default:
					}
				}
				break
			}
			if err := conn.Flush(); err != nil {
				nc.Close()
				return
			}
			atomic.AddInt64(&m.stats.FramesSent, batch)
			atomic.AddInt64(&m.stats.FlushBatches, 1)
			for {
				max := atomic.LoadInt64(&m.stats.MaxFlushBatch)
				if batch <= max || atomic.CompareAndSwapInt64(&m.stats.MaxFlushBatch, max, batch) {
					break
				}
			}
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
		switch t {
		case proto.MsgFileAck:
			if ack, err := proto.Decode[proto.FileAck](raw); err == nil {
				s.onFileAck(w, ack)
			}
		case proto.MsgLibraryAck:
			if ack, err := proto.Decode[proto.LibraryAck](raw); err == nil {
				s.onLibraryAck(w, ack)
			}
		case proto.MsgResult:
			if res, err := proto.DecodeResultInterned(raw, &strs); err == nil {
				s.onResult(w, res)
			}
		case proto.MsgLog:
			// Worker-side diagnostics (today: protocol decode errors the
			// worker would otherwise swallow). Surface them in the
			// manager's log and count them so tests and operators notice.
			if lm, err := proto.Decode[proto.LogMsg](raw); err == nil {
				atomic.AddInt64(&m.stats.WorkerLogs, 1)
				log.Printf("manager %s: worker %s: %s", m.opts.Name, lm.Worker, lm.Text)
			}
		}
	}
	close(done)
	m.onWorkerGone(w)
	nc.Close()
}

// releaseSourceSlotLocked returns a peer-fetch source's transfer
// slot: a live local source's slot lives in the shard view; anything
// else — a holder in another shard — is accounted in the global
// registry (a no-op if that holder died).
func (s *shard) releaseSourceSlotLocked(src string) {
	if sw, live := s.workers[src]; live {
		if sw.v.TransfersOut > 0 {
			sw.v.TransfersOut--
		}
		return
	}
	s.m.releaseRemoteSource(src)
}

// onWorkerGone tears down a dead worker in its home shard. Crash
// requeues stay in the shard; if it just lost its last worker, its wake
// loop evacuates the queues to live shards.
func (m *Manager) onWorkerGone(w *workerState) {
	m.shardPlane.Remove(w.id)
	m.peerDrop(w.id)
	// Re-home every ref the dead worker owned before requeueing its
	// work: surviving holders adopt ownership (pinning their copies),
	// spilled refs fall back to the durable shared tier, and the rest
	// are declared lost — the traced failure semantics of §15.
	m.refs.rehome(w.id)
	s := m.shardFor(w.id)
	s.mu.Lock()
	// The dead worker may have been the destination of in-flight peer
	// fetches: release each source's transfer slot, or the sources are
	// bled dry one crash at a time until PickSource permanently
	// excludes them and the spanning tree degrades to manager-only
	// sends.
	for id, src := range w.fetchSources { //vinelint:unordered slot releases commute; each entry touches a distinct record
		delete(w.fetchSources, id)
		s.releaseSourceSlotLocked(src)
	}
	// Drop the worker from every index (replicas, ready instances,
	// in-flight copies). Everything that was running there requeues within
	// its retry budget (Sched.Died); a spec that has exhausted it fails
	// instead of bouncing between crashing workers forever.
	requeued, lost := s.sched.Died(w.id, s.dropWorkerLocked(w))
	atomic.AddInt64(&m.stats.Requeued, int64(requeued))
	for i := range lost {
		s.failLocked(lost[i].ID(), specTenant(&lost[i]), fmt.Sprintf("manager: worker %s lost and retry budget exhausted", w.id))
	}
	s.mu.Unlock()
	s.sched.Wake()
	// Membership changed: overflow targets and ring ownership moved,
	// so rested work elsewhere gets its hop budget back.
	m.shardPlane.Nudge()
}

func (s *shard) onFileAck(w *workerState, ack proto.FileAck) {
	s.mu.Lock()
	s.view.ClearPending(w.v, ack.ID)
	src, fromPeer := w.fetchSources[ack.ID]
	if fromPeer {
		delete(w.fetchSources, ack.ID)
		s.releaseSourceSlotLocked(src)
	} else if ack.Source != "" {
		// The worker echoes the source the fetch was assigned
		// (proto.FetchFile.Source), so a fetch the manager no longer
		// tracks — its record displaced by recovery — still returns the
		// source's transfer slot instead of bleeding it.
		fromPeer = true
		s.releaseSourceSlotLocked(ack.Source)
	}
	if ack.Ok && ack.Cache {
		s.noteReplicaLocked(w, ack.ID)
		// A confirmed ref replica also registers in the global ref
		// catalog, so later resolves can source from this consumer.
		// No-op for ordinary objects.
		s.m.refs.noteHolder(w.id, ack.ID)
	}
	restaged := false
	if !ack.Ok && w.v.Alive {
		if d, name, isRef := s.m.refs.resolve(w.id, ack.ID, true); isRef {
			// A ref fetch failed on every source the data plane tried.
			// The manager never held these bytes, so the catalog restage
			// below cannot apply: the ref plane retracted the unreliable
			// replica records and planned a fresh traced resolve against
			// what survives — the owner's pinned copy, the shared tier,
			// or lost.
			if restaged = s.execResolveLocked(w, ack.ID, name, d); restaged {
				atomic.AddInt64(&s.m.stats.Restaged, 1)
			}
		} else if fromPeer {
			// The peer fetch failed on every source the data plane tried —
			// the assigned one and the alternates it retried on its own
			// (§4.3). The manager's own link is always a valid source:
			// re-stage directly rather than leaving every dispatch behind
			// this copy to die on "input not staged".
			if fs, known := s.m.catalogGet(ack.ID); known {
				s.directSendLocked(w, fs)
				atomic.AddInt64(&s.m.stats.Restaged, 1)
				restaged = true
			}
		}
	}
	// Stamp staging completion on every dispatch that was waiting for
	// this object on this worker: TransferTime is dispatch→last ack,
	// not the time spent enqueueing messages. The per-worker waiter
	// index hands us exactly those dispatches — unless the copy is
	// being restaged, in which case they are still waiting: the
	// replacement transfer's own ack will settle them.
	if list := w.ackWaiters[ack.ID]; !restaged && len(list) > 0 {
		delete(w.ackWaiters, ack.ID)
		now := time.Now()
		for _, st := range list {
			if st.waiting[ack.ID] {
				delete(st.waiting, ack.ID)
				st.transfer = now.Sub(st.sentAt).Seconds()
			}
		}
	}
	s.sched.FileAcked(ack.ID)
	s.mu.Unlock()
	s.sched.Wake()
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

func (s *shard) onLibraryAck(w *workerState, ack proto.LibraryAck) {
	s.mu.Lock()
	li := w.libs[ack.Library]
	if li != nil {
		if ack.Ok {
			li.Ready = true
			li.instance = ack.Instance
			s.libFailures[ack.Library] = 0
			s.libInfraFailures[ack.Library] = 0
			s.libSlotsChangedLocked(w, li)
		} else {
			li.Failed = true
			delete(w.libs, ack.Library)
			s.view.RemoveLibrary(w.v, ack.Library)
			w.v.Commit = w.v.Commit.Sub(li.Res)
			// Infrastructure-caused install failures (inputs lost to a
			// stalled transfer, resources gone) draw on a much larger
			// budget than broken-setup failures: transient chaos should
			// not quarantine a healthy library, but a persistently
			// unstageable one must still fail cleanly instead of
			// redeploying forever.
			if ack.Retryable {
				s.libInfraFailures[ack.Library]++
				if s.libInfraFailures[ack.Library] >= maxLibraryInfraFailures {
					s.failPendingForLibraryLocked(ack.Library, maxLibraryInfraFailures, ack.Err)
				}
			} else {
				s.libFailures[ack.Library]++
				if s.libFailures[ack.Library] >= maxLibraryFailures {
					s.failPendingForLibraryLocked(ack.Library, maxLibraryFailures, ack.Err)
				}
			}
		}
		s.sched.LibAcked(w.id, ack.Library, ack.Ok)
	}
	s.mu.Unlock()
	s.sched.Wake()
	// An instance turning ready (or an install releasing resources)
	// is capacity other shards' starving work may be waiting for.
	s.m.shardPlane.Nudge()
}

// failPendingForLibraryLocked fails every queued invocation of a
// library that cannot be deployed: failures is the budget that tripped.
// Caller holds the shard lock.
func (s *shard) failPendingForLibraryLocked(library string, failures int, reason string) {
	for _, pi := range s.sched.DrainLib(library) {
		s.failLocked(pi.ID, pi.Spec.TenantID, fmt.Sprintf("manager: library %q failed to deploy %d times: %s", library, failures, reason))
	}
}

// failLocked delivers spec id's final failure and returns its tenant's
// quota unit. The shard lock is held: the plane's drain runs now, and the
// shards it feeds wake at the next wake-loop exit.
func (s *shard) failLocked(id int64, tenant, err string) {
	atomic.AddInt64(&s.m.stats.Failures, 1)
	s.m.deliver(core.Result{ID: id, Ok: false, Err: err})
	s.m.plane.release(tenant)
}

func (s *shard) onResult(w *workerState, res core.Result) {
	m := s.m
	s.mu.Lock()
	// Done marks what the result frees. A retryable failure draws on the
	// table's budget: within it (retry n) the spec backs off there until
	// retryAfter's timer fires.
	run, retry, ok := s.sched.Done(w.id, res.ID, !res.Ok && res.Retryable && !m.shardPlane.Closed())
	if !ok {
		s.mu.Unlock()
		s.sched.Wake()
		m.shardPlane.Nudge()
		return
	}
	if res.Ok {
		if res.Ref != nil {
			// Pass-by-reference completion doubles as the ownership
			// transfer (§15): the bytes stayed on the producer, the
			// manager only updates its ref catalog.
			atomic.AddInt64(&m.stats.RefResults, 1)
			atomic.AddInt64(&m.stats.BytesByRef, res.Ref.Size)
			m.refs.noteResult(w.id, res.Ref)
		} else if n := len(res.Value); n > 0 {
			atomic.AddInt64(&m.stats.BytesThroughManager, int64(n))
		}
	}
	if run.IsTask {
		t := run.Task.Spec.t
		if st := run.Task.Spec.staging; st != nil {
			res.Metrics.TransferTime += st.transfer
		}
		atomic.AddInt64(&m.stats.TasksDone, 1)
		w.v.Commit = w.v.Commit.Sub(t.Resources)
		// Cacheable inputs are now resident on that worker.
		for _, in := range t.Inputs {
			if in.Cache {
				s.noteReplicaLocked(w, in.Object.ID)
			}
		}
	} else {
		atomic.AddInt64(&m.stats.InvocationsDone, 1)
		if li := w.libs[run.Inv.Lib]; li != nil {
			if li.SlotsUsed > 0 {
				li.SlotsUsed--
			}
			li.served++
			s.libSlotsChangedLocked(w, li)
		}
	}
	s.mu.Unlock()
	if retry > 0 {
		atomic.AddInt64(&m.stats.Retries, 1)
		s.retryAfter(res.ID, retryBackoff(m.opts.RetryBaseDelay, m.opts.RetryMaxDelay, retry, res.ID))
	} else {
		if !res.Ok {
			atomic.AddInt64(&m.stats.Failures, 1)
		}
		m.deliver(res)
		// Final delivery returns the spec's tenant quota unit; the freed
		// quota may release queued plane work, whose shards wake when this
		// one's loop exits.
		m.plane.release(specTenant(&run))
	}
	s.sched.Wake()
	// Freed capacity is a shard-crossing signal: shards starving on
	// unplaceable work get another chance to reach it.
	m.shardPlane.Nudge()
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
// without a shard lock held.
func (m *Manager) deliver(res core.Result) {
	select {
	case m.results <- res:
	default:
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.results <- res
		}()
	}
}

// CheckQuiescence verifies the manager's recovery invariants at rest:
// no pending entry has outlived its transfer, every transfer slot has
// been returned, and no work is queued, in flight, or waiting out a
// retry backoff — in any shard. Chaos tests call this after collecting
// all results; a non-nil error means bookkeeping leaked somewhere
// along a failure path.
func (m *Manager) CheckQuiescence() error {
	if m.plane != nil {
		if err := m.plane.checkQuiescence(); err != nil {
			return err
		}
	}
	for _, s := range m.shards {
		if err := s.checkQuiescence(); err != nil {
			return err
		}
	}
	m.obsMu.RLock()
	defer m.obsMu.RUnlock()
	for _, id := range core.SortedKeys(m.peers) {
		if n := m.peers[id].out; n != 0 {
			return fmt.Errorf("manager: worker %s still holds %d cross-shard transfer slots", id, n)
		}
	}
	return nil
}

func (s *shard) checkQuiescence() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range core.SortedKeys(s.workers) {
		w := s.workers[id]
		if w.v.TransfersOut != 0 {
			return fmt.Errorf("manager: worker %s still holds %d outbound transfer slots", w.id, w.v.TransfersOut)
		}
		if len(w.v.Pending) != 0 {
			return fmt.Errorf("manager: worker %s has %d unacked staged files", w.id, len(w.v.Pending))
		}
		if len(w.fetchSources) != 0 {
			return fmt.Errorf("manager: worker %s has %d dangling fetch-source records", w.id, len(w.fetchSources))
		}
	}
	if n := len(s.view.PendingCopies); n != 0 {
		return fmt.Errorf("manager: shard %d has %d objects still counted as in-flight copies", s.idx, n)
	}
	if n := s.sched.InFlight(); n != 0 {
		return fmt.Errorf("manager: shard %d has %d dispatches still in flight", s.idx, n)
	}
	if n := len(s.sched.Tasks()) + s.sched.Invs(); n != 0 {
		return fmt.Errorf("manager: shard %d has %d specs still queued", s.idx, n)
	}
	if n := s.sched.BackingOff(); n != 0 {
		return fmt.Errorf("manager: shard %d has %d retries waiting out backoff", s.idx, n)
	}
	return nil
}

// LibraryDeployments returns, for each registered library, how many
// instances are currently deployed and their total share values —
// the data behind Figures 10 and 11.
func (m *Manager) LibraryDeployments() (instances int, totalServed int64) {
	for _, s := range m.shards {
		s.mu.Lock()
		for _, w := range s.workers { //vinelint:unordered summing counters commutes
			for _, li := range w.libs { //vinelint:unordered summing counters commutes
				if li.Ready {
					instances++
					totalServed += li.served
				}
			}
		}
		s.mu.Unlock()
	}
	return instances, totalServed
}
