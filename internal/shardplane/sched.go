package shardplane

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/policy"
)

// The per-shard scheduler both engines run (DESIGN.md §12): the intake
// submitters post to, a keyed task queue and one invocation queue per
// library, their dirty and starving marks, the objects each queue waits
// on, the coalesced wake loop, the task pass, the invocation pass with
// its install claims, every rule that moves a spec to another shard, the
// in-flight table — what runs on which worker, each spec's retry budget,
// and the order a death requeues in — and the event verbs, which mark
// exactly what each engine event could unblock. An engine is a Shell
// around it — the manager with a mutex, sockets and timers; sim.Replay
// with none.

// Spec is the engine's payload of a queued task; Need is what a worker
// must offer in total to ever hold it.
type Spec interface{ Need() core.Resources }

// DefaultMaxRetries is the retry budget of a spec when the engine names
// none: the manager's Options.MaxRetries at zero, and sim.Replay's.
const DefaultMaxRetries = 3

// Task is one keyed spec, queued or in flight.
type Task[T Spec] struct {
	Key string // ring key: TaskKey(ID)
	ID  int64  // spec number
	// Retries counts the attempts lost so far, to a worker's death or a
	// retryable failure alike: both draw on the plane's one budget.
	Retries int
	// Avoid is the worker that died under or failed the task's last
	// attempt: planned around, unless nothing else will have it.
	Avoid string
	// Hops counts overflow forwards (not evacuations): a task no shard
	// can place rests once it has visited them all, until a nudge.
	Hops int
	Spec T
}

// Inv is one queued invocation of library Lib, Spec the engine's
// payload. Invocations of one library are interchangeable, so they wait
// in one queue per library, in submission order, and cross shards only
// as a whole queue; ID, Retries, Avoid and Hops are Task's.
type Inv[I any] struct {
	Lib     string
	ID      int64
	Retries int
	Avoid   string
	Hops    int
	Spec    I
}

// Run is one spec outside the queues — in the intake, in the in-flight
// table, handed back to the engine: Task if IsTask, else Inv.
type Run[T Spec, I any] struct {
	IsTask bool
	Task   Task[T]
	Inv    Inv[I]
}

// ID is the spec number.
func (r *Run[T, I]) ID() int64 {
	if r.IsTask {
		return r.Task.ID
	}
	return r.Inv.ID
}

// TaskKey is the ring key of spec number n.
func TaskKey(n int64) string { return "task-" + strconv.FormatInt(n, 10) }

// KeyNum recovers the spec number from a TaskKey.
func KeyNum(key string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(key, "task-"), 10, 64)
	return n
}

// Shell is what an engine supplies around one shard's Sched: the
// decisions' execution. Every method is called with the shard lock held.
type Shell[T Spec, I any] interface {
	// Plan appends one decision per task, planned as one batch against
	// the view as it stands.
	Plan(dst []policy.PlaceTask, tasks []Task[T]) []policy.PlaceTask
	// Place executes one placement (d.Worker is set) and may stamp t.Spec
	// with what the engine wants kept with the dispatch; the pass then
	// enters *t in the in-flight table.
	Place(t *Task[T], d policy.PlaceTask)
	// LibNeed is what one instance of lib needs of a worker, if the
	// engine knows lib (else Reject fails its invocations).
	LibNeed(lib string) (need core.Resources, known bool)
	// Reject reports that inv can never run, having failed it to its
	// submitter.
	Reject(inv Inv[I]) bool
	// PlaceInv executes one ready placement; the pass then enters inv in
	// the in-flight table.
	PlaceInv(inv Inv[I], d policy.PlaceInvocation)
	// Deploy starts one new instance of lib if the policy finds room, and
	// names the worker it chose: the install is that worker's claim until
	// LibAcked or Died. Else blocked names the objects whose first copy in
	// flight holds every candidate up.
	Deploy(lib string) (worker string, blocked []string)
}

// NoLock is the shard lock of an engine that runs on one goroutine.
type NoLock struct{}

func (NoLock) Lock()   {}
func (NoLock) Unlock() {}

// Plane is the dispatch plane's shared part: the router, one Sched per
// shard, and the hand-offs into them.
type Plane[T Spec, I any] struct {
	*Router
	Shards []*Sched[T, I]
	// maxRetries is every spec's retry budget; negative: no retries.
	maxRetries int
	// starving counts the starving shards, so Nudge costs one load when
	// there are none.
	starving atomic.Int32
	// pool recycles intake nodes: a submit must not trade its lock for an
	// allocation per spec.
	pool     sync.Pool
	closed   atomic.Bool
	forwards atomic.Int64
	// fed lists the shards Route fed that nobody has woken yet, in
	// first-fed order; hasFed makes the empty check one load.
	fedMu  sync.Mutex
	fed    []int
	hasFed atomic.Bool
}

// NewPlane builds a plane of n shards (n < 1: DefaultShards) for Attach
// to fill. A spec that has lost maxRetries attempts is not requeued again.
func NewPlane[T Spec, I any](n, maxRetries int) *Plane[T, I] {
	r := NewRouter(n)
	p := &Plane[T, I]{Router: r, Shards: make([]*Sched[T, I], r.n), maxRetries: maxRetries}
	p.pool.New = func() any { return new(node[T, I]) }
	return p
}

// Attach builds shard i's scheduler over the engine's view of its
// workers, its lock and its shell.
func (p *Plane[T, I]) Attach(i int, view *policy.ClusterView, mu sync.Locker, shell Shell[T, I]) *Sched[T, I] {
	s := &Sched[T, I]{p: p, idx: i, view: view, mu: mu, shell: shell, waiting: map[string]*waiter{},
		hosts: map[string]*host[T, I]{}, backoff: map[int64]Run[T, I]{}}
	p.Shards[i] = s
	return s
}

// Submit hands a directly submitted spec to its shard — a task's owns
// its ring key, an invocation's is a live shard by round-robin over the
// spec ID — and wakes it. The hand-off is lock-free, so a submit burst
// never contends with a running pass. No lock held.
func (p *Plane[T, I]) Submit(r Run[T, I]) {
	var s *Sched[T, I]
	if r.IsTask {
		s = p.Shards[p.KeyShard(r.Task.Key)]
	} else {
		s = p.Shards[p.InvShard(r.Inv.ID, r.Inv.Lib)]
	}
	s.post(r)
	s.Wake()
}

// Route is the submission plane's hand-off (a policy.Route): a released
// task goes to its ring key's shard, an invocation by its tenant's own
// cursor. It wakes nothing — the engine holds its plane lock, maybe a
// shard lock — but notes the shard for WakeFed, or for the next loop
// exit.
func (p *Plane[T, I]) Route(r Run[T, I], tenant string, seq int64) {
	var i int
	if r.IsTask {
		i = p.KeyShard(r.Task.Key)
	} else {
		i = p.TenantInvShard(tenant, seq, r.Inv.Lib)
	}
	p.Shards[i].post(r)
	p.fedMu.Lock()
	if !slices.Contains(p.fed, i) {
		p.fed = append(p.fed, i)
	}
	p.hasFed.Store(true)
	p.fedMu.Unlock()
}

// WakeFed wakes the shards Route fed, in first-fed order. No lock held.
func (p *Plane[T, I]) WakeFed() {
	if !p.hasFed.Load() {
		return
	}
	p.fedMu.Lock()
	fed := p.fed
	p.fed = nil
	p.hasFed.Store(false)
	p.fedMu.Unlock()
	for _, i := range fed {
		p.Shards[i].Wake()
	}
}

// Close stops every shard placing work, and reports whether this call
// did; Closed, whether one has.
func (p *Plane[T, I]) Close() bool  { return !p.closed.Swap(true) }
func (p *Plane[T, I]) Closed() bool { return p.closed.Load() }

// Forwards counts the specs moved across shards. No lock needed.
func (p *Plane[T, I]) Forwards() int64 { return p.forwards.Load() }

// Sched is one shard's scheduler. Everything but Wake, Passes and Wakes
// needs the shard lock.
type Sched[T Spec, I any] struct {
	p     *Plane[T, I]
	idx   int
	view  *policy.ClusterView
	mu    sync.Locker
	shell Shell[T, I]

	// intake is a Treiber stack of posted specs the loop drains at each
	// look.
	intake atomic.Pointer[node[T, I]]

	q     []Task[T]
	dirty bool
	plan  []policy.PlaceTask // the pass's reusable decision buffer
	// waiting holds, per object, the queues a refusal left waiting on its
	// first copy in flight.
	waiting map[string]*waiter

	// order holds a queue per library ever routed here, by name: the
	// queues contend for the same workers, so the pass visits them in an
	// order that is the same on every run.
	order []*libQueue[I]
	// invs and claims total the libraries' queued invocations and
	// installs in flight. libsDirty: some library is marked for a pass —
	// every one, with allLibs.
	invs, claims       int
	libsDirty, allLibs bool
	// ready is the invocation pass's reusable decision buffer; held is
	// what is on its way to other shards — filled under the lock, emptied
	// by the same loop with none held.
	ready []policy.PlaceInvocation
	held  []held[T, I]

	// The in-flight table: per worker what runs there, running in all.
	// backoff holds the specs a worker failed retryably until Retry:
	// neither queued nor on any worker.
	hosts   map[string]*host[T, I]
	running int
	backoff map[int64]Run[T, I]

	// passes counts the looks that ran a pass; ran and absorbed, the
	// Wakes that ran the loop and those a running loop absorbed.
	passes, ran, absorbed atomic.Int64
	// starving: the loop went idle resting work that nothing local is
	// outstanding to unblock — only another shard's event (Nudge) can.
	starving atomic.Bool
	// latch coalesces wakes: idle, running, or running with a rerun
	// owed because a wake arrived since the loop's last look.
	latch atomic.Int32
}

// libQueue is one library's waiting invocations, in submission order.
// The record outlives its entries: claims can outlast them.
type libQueue[I any] struct {
	name  string
	q     []Inv[I]
	dirty bool
	// claims are the workers the library's instances were deployed on
	// here and have not yet acked. Each absorbs one queued invocation
	// before the pass deploys another, so a burst of events during a slow
	// install cannot provision more instances than the queue is long.
	claims []string
}

// host is one worker's part of the in-flight table: the specs running
// there, in ascending spec order — the order a death requeues them in.
type host[T Spec, I any] struct{ runs []Run[T, I] }

// held is tasks, or one library's queue, leaving for shard to.
type held[T Spec, I any] struct {
	to    int
	tasks []Task[T]
	invs  []Inv[I]
}

// node is one posted spec in a shard's intake, from the plane's pool.
type node[T Spec, I any] struct {
	next *node[T, I]
	run  Run[T, I]
}

// waiter is what one object's first copy in flight holds up: the task
// queue, and libraries' queues by name, sorted.
type waiter struct {
	tasks bool
	libs  []string
}

const (
	latchIdle int32 = iota
	latchRunning
	latchRerun
)

// post publishes r on the intake: any goroutine, no lock.
func (s *Sched[T, I]) post(r Run[T, I]) {
	n := s.p.pool.Get().(*node[T, I])
	n.run = r
	for {
		n.next = s.intake.Load()
		if s.intake.CompareAndSwap(n.next, n) {
			return
		}
	}
}

// drain moves everything posted into the queues (which marks them). The
// swap claims the whole stack, so posters are never blocked; reversing
// it restores posting (FIFO) order. The loop's lock held.
func (s *Sched[T, I]) drain() {
	var rev *node[T, I]
	for n := s.intake.Swap(nil); n != nil; {
		next := n.next
		n.next, rev = rev, n
		n = next
	}
	for rev != nil {
		n := rev
		rev = n.next
		s.enqueue(n.run)
		*n = node[T, I]{} // drop spec pointers before pooling
		s.p.pool.Put(n)
	}
}

// Push queues tasks and marks the queue for a pass.
func (s *Sched[T, I]) Push(tasks ...Task[T]) {
	s.q = append(s.q, tasks...)
	s.dirty = s.dirty || len(tasks) > 0
}

// lib is name's queue record: nil if it has none yet, or with add a new
// one.
func (s *Sched[T, I]) lib(name string, add bool) *libQueue[I] {
	at, ok := slices.BinarySearchFunc(s.order, name, func(o *libQueue[I], n string) int { return cmp.Compare(o.name, n) })
	if !ok {
		if !add {
			return nil
		}
		s.order = slices.Insert(s.order, at, &libQueue[I]{name: name})
	}
	return s.order[at]
}

// PushInvs queues invocations, each behind its library's others, and
// marks those libraries for a pass.
func (s *Sched[T, I]) PushInvs(invs ...Inv[I]) {
	var lq *libQueue[I]
	for _, inv := range invs {
		if lq == nil || lq.name != inv.Lib {
			lq = s.lib(inv.Lib, true)
			lq.dirty, s.libsDirty = true, true
		}
		lq.q = append(lq.q, inv)
	}
	s.invs += len(invs)
}

// DrainLib empties lib's queue — a library the engine has given up
// deploying — and returns what waited there.
func (s *Sched[T, I]) DrainLib(lib string) (q []Inv[I]) {
	if lq := s.lib(lib, false); lq != nil {
		q, lq.q = lq.q, nil
		s.invs -= len(q)
	}
	return q
}

// unclaim releases worker's install claim for lib, if it holds one: the
// instance acked, ready or failed.
func (s *Sched[T, I]) unclaim(worker, lib string) {
	if lq := s.lib(lib, false); lq != nil {
		if i := slices.Index(lq.claims, worker); i >= 0 {
			lq.claims = slices.Delete(lq.claims, i, i+1)
			s.claims--
		}
	}
}

// register enters a spec the shell has just placed on worker.
func (s *Sched[T, I]) register(worker string, r Run[T, I]) {
	h := s.hosts[worker]
	if h == nil {
		h = &host[T, I]{}
		s.hosts[worker] = h
	}
	at, _ := h.find(r.ID())
	h.runs = slices.Insert(h.runs, at, r)
	s.running++
}

// find is where spec id sits, or would, among the worker's runs.
func (h *host[T, I]) find(id int64) (int, bool) {
	at := sort.Search(len(h.runs), func(i int) bool { return h.runs[i].ID() >= id })
	return at, at < len(h.runs) && h.runs[at].ID() == id
}

// Running is what runs on worker, lowest spec first; the caller must not
// keep it.
func (s *Sched[T, I]) Running(worker string) []Run[T, I] {
	if h := s.hosts[worker]; h != nil {
		return h.runs
	}
	return nil
}

// InFlight counts the specs running on workers; BackingOff those Done
// found within their budget and Retry has not yet requeued.
func (s *Sched[T, I]) InFlight() int   { return s.running }
func (s *Sched[T, I]) BackingOff() int { return len(s.backoff) }

// ---- the event verbs ----
//
// One per engine event, called under the shard lock: each sets the marks
// of exactly the queues the event could unblock, and the engine then
// wakes the shard (and, where capacity moved, nudges the plane) with
// none held.

// Joined is a worker's arrival here: fresh capacity for every queue.
func (s *Sched[T, I]) Joined() { s.markAll() }

// FileAcked is the ack, ok or failed, of a copy of obj: either a new
// source or a block gone, so what waited on its first copy looks again.
func (s *Sched[T, I]) FileAcked(obj string) {
	w := s.waiting[obj]
	if w == nil {
		return
	}
	delete(s.waiting, obj)
	s.dirty = s.dirty || w.tasks
	for _, lib := range w.libs {
		s.markLib(lib)
	}
}

// wait leaves lib's queue ("": the task queue) waiting on obj's ack.
func (s *Sched[T, I]) wait(obj, lib string) {
	w := s.waiting[obj]
	if w == nil {
		w = &waiter{}
		s.waiting[obj] = w
	}
	if lib == "" {
		w.tasks = true
	} else if at, found := slices.BinarySearch(w.libs, lib); !found {
		w.libs = slices.Insert(w.libs, at, lib)
	}
}

// LibAcked is the ack of worker's install of lib: its claim goes; a
// ready instance opens lib's queue (every library's, when it is idle and
// evictable), a failed one frees resources any queue may want.
func (s *Sched[T, I]) LibAcked(worker, lib string, ok bool) {
	s.unclaim(worker, lib)
	if !ok {
		s.markAll()
		return
	}
	s.markLib(lib)
	s.markIdle(worker, lib)
}

// markIdle marks every library when worker's instance of lib runs nothing
// and idle instances may be evicted: it is room for any of them (§3.5.2).
func (s *Sched[T, I]) markIdle(worker, lib string) {
	if w := s.view.Workers[worker]; !s.view.Opts.EvictEmptyLibraries || w == nil || w.Libs[lib] == nil {
		return
	}
	for _, r := range s.Running(worker) {
		if !r.IsTask && r.Inv.Lib == lib {
			return
		}
	}
	s.markAllLibs()
}

// Done is a result: spec id leaves worker, and what it held opens up — a
// task's resources to every queue, an invocation's slot to its library's.
// After a retryable failure (failed) within the budget the spec stays in
// the table, backing off, until the engine's timer — or a replay, at
// once — calls Retry: retry is then which retry that will be, counting
// from one. At zero the engine has the spec to finish or to fail.
func (s *Sched[T, I]) Done(worker string, id int64, failed bool) (r Run[T, I], retry int, ok bool) {
	h := s.hosts[worker]
	if h == nil {
		return r, 0, false
	}
	at, ok := h.find(id)
	if !ok {
		return r, 0, false
	}
	r = h.runs[at]
	h.runs = slices.Delete(h.runs, at, at+1)
	s.running--
	if r.IsTask {
		s.markAll()
	} else {
		s.markLib(r.Inv.Lib)
		s.markIdle(worker, r.Inv.Lib)
	}
	if failed {
		if retry = s.again(&r, worker); retry > 0 {
			s.backoff[id] = r
		}
	}
	return r, retry, true
}

// Retry requeues spec id, its backoff over, with the worker that failed
// it avoided — alive or not.
func (s *Sched[T, I]) Retry(id int64) {
	if r, ok := s.backoff[id]; ok {
		delete(s.backoff, id)
		s.enqueue(r)
	}
}

// Died is worker's death, after the engine took it out of the view,
// whose RemoveWorker cleared the in-flight copies to it: what waited on a
// first copy that will now never confirm looks again, as does every
// queue — the ring changed. Its install claims are released and what ran
// there is requeued, in ascending spec order and with the worker avoided,
// each within its budget. The specs past it are handed back in the same
// order for the engine to fail. Specs backing off are no longer on the
// worker and stay where they are.
func (s *Sched[T, I]) Died(worker string, cleared []string) (requeued int, lost []Run[T, I]) {
	for _, obj := range cleared {
		if s.view.PendingCopies[obj] == 0 {
			s.FileAcked(obj)
		}
	}
	s.markAll()
	for _, lq := range s.order {
		s.unclaim(worker, lq.name)
	}
	h := s.hosts[worker]
	if h == nil {
		return 0, nil
	}
	delete(s.hosts, worker)
	s.running -= len(h.runs)
	for _, r := range h.runs {
		if s.again(&r, worker) > 0 {
			s.enqueue(r)
			requeued++
		} else {
			lost = append(lost, r)
		}
	}
	return requeued, lost
}

// again readies r for another attempt after worker lost or failed it —
// one retry spent, that worker avoided, the hop budget fresh — and
// reports how many retries that makes. Zero: the budget is spent.
func (s *Sched[T, I]) again(r *Run[T, I], worker string) int {
	retries, avoid, hops := &r.Inv.Retries, &r.Inv.Avoid, &r.Inv.Hops
	if r.IsTask {
		retries, avoid, hops = &r.Task.Retries, &r.Task.Avoid, &r.Task.Hops
	}
	if *retries >= s.p.maxRetries {
		return 0
	}
	*retries, *avoid, *hops = *retries+1, worker, 0
	return *retries
}

// enqueue puts r at the back of its queue and marks it: a spec fresh from
// the engine's intake, or back after a lost attempt.
func (s *Sched[T, I]) enqueue(r Run[T, I]) {
	if r.IsTask {
		s.Push(r.Task)
	} else {
		s.PushInvs(r.Inv)
	}
}

// markLib marks one library's queue for a pass.
func (s *Sched[T, I]) markLib(lib string) {
	if lq := s.lib(lib, false); lq != nil {
		lq.dirty, s.libsDirty = true, true
	}
}

// markAllLibs marks every library's queue: an instance went idle, which
// may make room for any other library's.
func (s *Sched[T, I]) markAllLibs() { s.libsDirty, s.allLibs = true, true }

// markAll marks everything that competes for worker resources — the
// task queue and every library's: worker churn, freed capacity.
func (s *Sched[T, I]) markAll() { s.dirty, s.libsDirty, s.allLibs = true, true, true }

// Tasks is the queue, in order; the caller must not keep it.
func (s *Sched[T, I]) Tasks() []Task[T] { return s.q }

// Invs counts the queued invocations.
func (s *Sched[T, I]) Invs() int { return s.invs }

// Passes counts the passes run so far; Wakes, the Wakes that ran the
// loop and those a running loop absorbed. No lock needed.
func (s *Sched[T, I]) Passes() int64                { return s.passes.Load() }
func (s *Sched[T, I]) Wakes() (ran, absorbed int64) { return s.ran.Load(), s.absorbed.Load() }

// Settled reports that nothing waits in the intake, no queue is marked
// and no loop runs or is owed.
func (s *Sched[T, I]) Settled() bool {
	return s.intake.Load() == nil && !s.dirty && !s.libsDirty && s.latch.Load() == latchIdle
}

// quiet: no local event is outstanding that could change what this
// shard can place — no install or copy awaits its ack, nothing is in
// flight, no retry is waiting out a backoff.
func (s *Sched[T, I]) quiet() bool {
	return s.claims == 0 && s.running == 0 && len(s.backoff) == 0 && len(s.view.PendingCopies) == 0
}

// Wake ensures the loop runs — and keeps running — until no mark and no
// intake remain. A caller that finds it running leaves a rerun request
// with one CAS and never touches the shard lock, so a burst of events
// costs one follow-up pass and never queues behind a pass in progress.
// No wake is lost: one arriving as the loop exits either lands its
// running→rerun CAS first (the exit CAS then fails and the loop goes
// around again) or finds the latch idle and runs the loop. A loop that
// ran then wakes the shards a quota release under some shard lock fed
// (Route), none being held now — bounded, since each flush empties the
// fed set. Call with no lock held.
func (s *Sched[T, I]) Wake() {
	for {
		switch state := s.latch.Load(); {
		case state == latchIdle && s.latch.CompareAndSwap(latchIdle, latchRunning):
			s.ran.Add(1)
			s.run()
			s.p.WakeFed()
			return
		case state == latchRerun || s.latch.CompareAndSwap(latchRunning, latchRerun):
			s.absorbed.Add(1)
			return
		}
	}
}

// run is the loop: drain intake → evacuate if workerless → task pass,
// invocation pass → forward → look again. It holds the shard lock
// except while specs cross to another shard, so no two shard locks are
// ever held together. Forward chains end: hop counts only grow between
// nudges, and routing never picks a workerless shard. A closed plane's
// loops drain and place nothing.
func (s *Sched[T, I]) run() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.drain()
		pending := s.invs+len(s.q) > 0
		if s.p.closed.Load() || !(s.dirty || s.libsDirty) {
			if starving := pending && s.quiet(); starving != s.starving.Load() {
				s.starving.Store(starving)
				if starving {
					s.p.starving.Add(1)
				} else {
					s.p.starving.Add(-1)
				}
			}
			if s.latch.CompareAndSwap(latchRunning, latchIdle) {
				return
			}
			s.latch.Store(latchRunning)
			continue
		}
		// A workerless shard can place nothing and no local event will
		// change that: every queued spec goes where the router now sends
		// it — tasks one by one by ring key, library queues whole by
		// library name, order and hop counts kept. The marks stay for the
		// next look, which finds the queues empty.
		if len(s.view.Workers) == 0 && pending && s.p.Live() > 0 {
			for i := range s.q {
				s.held = append(s.held, held[T, I]{to: s.p.KeyShard(s.q[i].Key), tasks: s.q[i : i+1]})
			}
			s.q = nil
			for _, lq := range s.order {
				s.hold(lq, s.p.KeyShard(lq.name))
			}
		} else {
			s.passes.Add(1)
			if s.dirty {
				s.dirty = false
				s.pass()
			}
			s.passInvs()
		}
		// Unlocking is also what lets handlers blocked on the lock leave
		// their marks before the next look, and what lets the held specs
		// enter their shards, each under its own lock.
		s.mu.Unlock()
		for _, h := range s.held {
			to := s.p.Shards[h.to]
			to.mu.Lock()
			to.Push(h.tasks...)
			to.PushInvs(h.invs...)
			to.mu.Unlock()
			s.p.forwards.Add(int64(len(h.tasks) + len(h.invs)))
			to.Wake()
		}
		clear(s.held)
		s.held = s.held[:0]
		s.mu.Lock()
	}
}

// pass plans the queue and executes what can be placed, keeping order
// among what stays. A task leaves for the next live shard (held) when
// this one is a dead end and its hop budget allows: before planning,
// when no worker here but the avoided one could ever hold it — the
// planner's avoid fallback would pin it there for good, and the order
// of preference is a non-avoided worker here, any other shard, then
// the avoided worker — or after a refusal, when the shard is quiet:
// capacity exists on paper but nothing in flight will free it. A
// refusal over first copies in flight (Blocked) stays, waiting on their
// acks; a busy shard never forwards, its own completions do.
func (s *Sched[T, I]) pass() {
	if len(s.q) == 0 {
		return
	}
	next, hasNext := s.p.NextAlive(s.idx)
	var fwd []Task[T]
	keep := s.q[:0]
	if hasNext {
		for _, t := range s.q {
			if s.deadEnd(t.Hops, t.Avoid, t.Spec.Need()) {
				t.Hops++
				fwd = append(fwd, t)
				continue
			}
			keep = append(keep, t)
		}
		s.q, keep = keep, keep[:0]
	}
	s.plan = s.shell.Plan(s.plan[:0], s.q)
	for i, d := range s.plan {
		t := &s.q[i]
		for _, obj := range d.Blocked {
			s.wait(obj, "")
		}
		switch {
		case d.Worker != nil:
			s.shell.Place(t, d)
			s.register(d.Worker.ID, Run[T, I]{IsTask: true, Task: *t})
		case len(d.Blocked) == 0 && hasNext && t.Hops < len(s.p.Shards) && s.quiet():
			t.Hops++
			fwd = append(fwd, *t)
		default:
			keep = append(keep, *t)
		}
	}
	s.q = keep
	if len(fwd) > 0 {
		s.held = append(s.held, held[T, I]{to: next, tasks: fwd})
	}
}

// deadEnd is the static rule: within the hop budget, and no worker of
// this shard other than avoid is large enough to ever hold need.
func (s *Sched[T, I]) deadEnd(hops int, avoid string, need core.Resources) bool {
	if hops >= len(s.p.Shards) {
		return false
	}
	for _, w := range s.view.Sorted {
		if w.ID != avoid && need.Fits(w.Total) {
			return false
		}
	}
	return true
}

// passInvs runs the invocation pass (§3.5.2) over every marked library
// in name order. A queue whose instances no worker here could ever host
// is a dead end by the static rule, judged by its head's hops: it leaves
// whole for the next live shard, every entry one hop on.
func (s *Sched[T, I]) passInvs() {
	all := s.allLibs
	s.libsDirty, s.allLibs = false, false
	for _, lq := range s.order {
		marked := all || lq.dirty
		lq.dirty = false
		if !marked || len(lq.q) == 0 {
			continue
		}
		if need, known := s.shell.LibNeed(lq.name); known && s.deadEnd(lq.q[0].Hops, "", need) {
			if next, ok := s.p.NextAlive(s.idx); ok {
				for i := range lq.q {
					lq.q[i].Hops++
				}
				s.hold(lq, next)
				continue
			}
		}
		s.passLib(lq)
	}
}

// hold takes lq's queue out of this shard for the loop to deliver to
// shard to once the lock is dropped.
func (s *Sched[T, I]) hold(lq *libQueue[I], to int) {
	if q := s.DrainLib(lq.name); len(q) > 0 {
		s.held = append(s.held, held[T, I]{to: to, invs: q})
	}
}

// passLib places one library's queue, in order, keeping what cannot
// go. Per entry: a ready instance with a free slot, on a worker other
// than the one its last attempt failed on; else on that worker —
// starving beats the preference; else an install already in flight
// will serve it; else a new instance is deployed and the entry waits
// for its ack. Ready placements are asked for in runs of entries that
// share an avoid preference, and a run's answer stays good for the whole
// pass: an instance deployed mid-pass is not ready until its ack. The
// first entry that can neither be placed nor deploy ends the pass over
// this queue — every later one faces the same cluster — and the tail is
// not looked at, not even by Reject, until the queue drains to it.
func (s *Sched[T, I]) passLib(lq *libQueue[I]) {
	q := lq.q
	keep := q[:0]
	// Installs in flight at pass start each absorb one entry; deploys
	// started during the pass do not join them — each is already the
	// instance its own entry waits for.
	claimable := len(lq.claims)
	var ready []policy.PlaceInvocation
	avoid, dry := "", false
	for i, inv := range q {
		if s.shell.Reject(inv) {
			continue
		}
		if inv.Avoid != avoid || (len(ready) == 0 && !dry) {
			s.ready = s.view.PlaceReadyBatchInto(s.ready[:0], lq.name, len(q)-i, policy.Excluding(inv.Avoid))
			ready, avoid, dry = s.ready, inv.Avoid, len(s.ready) == 0
		}
		if len(ready) > 0 {
			s.placeInv(inv, ready[0])
			ready = ready[1:]
			continue
		}
		// Whatever the fallback finds is on the avoided worker, which the
		// run's answer left out: the run stays dry, not stale.
		if inv.Avoid != "" {
			if s.ready = s.view.PlaceReadyBatchInto(s.ready[:0], lq.name, 1, nil); len(s.ready) > 0 {
				s.placeInv(inv, s.ready[0])
				continue
			}
		}
		keep = append(keep, inv)
		if claimable > 0 {
			claimable--
			continue
		}
		worker, blocked := s.shell.Deploy(lq.name)
		if worker == "" {
			for _, obj := range blocked {
				s.wait(obj, lq.name)
			}
			keep = append(keep, q[i+1:]...)
			break
		}
		lq.claims = append(lq.claims, worker)
		s.claims++
	}
	s.invs -= len(q) - len(keep)
	clear(q[len(keep):])
	lq.q = keep
}

// placeInv executes one ready placement and enters it in the table.
func (s *Sched[T, I]) placeInv(inv Inv[I], d policy.PlaceInvocation) {
	s.shell.PlaceInv(inv, d)
	s.register(d.Worker.ID, Run[T, I]{Inv: inv})
}

// Nudge follows a capacity-freeing event anywhere — a result, a ready
// instance, a join or a death: every starving shard gets its hop budgets
// back and another pass, so rested work circulates again and can reach
// what just freed. The set is read first, in index order. No lock held.
func (p *Plane[T, I]) Nudge() {
	if p.starving.Load() == 0 {
		return
	}
	set := slices.DeleteFunc(slices.Clone(p.Shards), func(s *Sched[T, I]) bool { return !s.starving.Load() })
	for _, s := range set {
		s.mu.Lock()
		for i := range s.q {
			s.q[i].Hops = 0
		}
		for _, lq := range s.order {
			for i := range lq.q {
				lq.q[i].Hops = 0
			}
		}
		s.markAll()
		s.mu.Unlock()
		s.Wake()
	}
}

// WakeParked follows a join: every workerless shard holding specs, parked
// while no worker was live anywhere, runs its loop, which now evacuates
// them. No lock held.
func (p *Plane[T, I]) WakeParked() {
	for _, s := range p.Shards {
		s.mu.Lock()
		s.drain()
		parked := len(s.view.Workers) == 0 && s.invs+len(s.q) > 0
		s.dirty = s.dirty || parked
		s.mu.Unlock()
		if parked {
			s.Wake()
		}
	}
}
