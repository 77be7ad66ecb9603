package shardplane

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/policy"
)

// The per-shard scheduler both engines run (DESIGN.md §12): a keyed
// task queue with its dirty and starving marks, the coalesced wake loop,
// the task pass, and every rule that moves a spec to another shard. An
// engine is a Shell around it — the manager with a mutex, sockets and
// timers; sim.Replay with none.

// Spec is the engine's payload of a queued task; Need is what a worker
// must offer in total to ever hold it.
type Spec interface{ Need() core.Resources }

// Task is one queued keyed spec.
type Task[T Spec] struct {
	Key string // ring key: TaskKey of the spec number
	// Avoid is the worker that died under or failed the task's last
	// attempt: planned around, unless nothing else will have it.
	Avoid string
	// Hops counts overflow forwards (not evacuations): a task no shard
	// can place rests once it has visited them all, until a nudge.
	Hops int
	Spec T
}

// TaskKey is the ring key of spec number n.
func TaskKey(n int64) string { return "task-" + strconv.FormatInt(n, 10) }

// KeyNum recovers the spec number from a TaskKey.
func KeyNum(key string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(key, "task-"), 10, 64)
	return n
}

// Shell is what an engine supplies around one shard's Sched. The first
// group is called with the shard lock held, the second with none.
type Shell[T Spec] interface {
	// Intake moves newly routed specs into the queues (Push for tasks).
	// It reports the engine's own invocation queues — how many specs
	// wait there, whether any is marked for a pass — and whether the
	// engine is still scheduling.
	Intake() (invs int, invDirty, open bool)
	// Quiet: no local event is outstanding that could change what this
	// shard can place — nothing in flight, no copy or install awaiting
	// its ack, no retry waiting out a backoff.
	Quiet() bool
	// Plan appends decisions for a non-empty prefix of tasks — all as
	// one batch, or only the first — against the view as it stands; the
	// pass executes them and asks again for the rest. The engine sees to
	// it that the acks a Blocked refusal waits on mark the queue dirty.
	Plan(dst []policy.PlaceTask, tasks []Task[T]) []policy.PlaceTask
	// Place executes one placement (d.Worker is set).
	Place(t Task[T], d policy.PlaceTask)
	// PassInvs is the engine's invocation pass, after the task pass — or,
	// evacuating, the removal of every queued invocation. Queues that
	// must leave the shard are held for ForwardInvs; it reports any.
	PassInvs(evacuate bool) (forward bool)
	// Nudged marks every invocation queue for a pass, hop budgets reset.
	Nudged()

	// Deliver hands tasks to shard i: Push under its lock, then Wake.
	Deliver(i int, tasks []Task[T])
	// ForwardInvs delivers what PassInvs held.
	ForwardInvs()
	// Woke follows every Wake; ran is false for one a running loop
	// absorbed.
	Woke(ran bool)
}

// NoLock is the shard lock of an engine that runs on one goroutine.
type NoLock struct{}

func (NoLock) Lock()   {}
func (NoLock) Unlock() {}

// Plane is the dispatch plane's shared part: the router and one Sched
// per shard.
type Plane[T Spec] struct {
	*Router
	Shards []*Sched[T]
	// starving counts the starving shards, so Nudge costs one load when
	// there are none.
	starving atomic.Int32
}

// NewPlane builds a plane of n shards (n < 1: DefaultShards) for Attach
// to fill.
func NewPlane[T Spec](n int) *Plane[T] {
	r := NewRouter(n)
	return &Plane[T]{Router: r, Shards: make([]*Sched[T], r.n)}
}

// Attach builds shard i's scheduler over the engine's view of its
// workers, its lock and its shell.
func (p *Plane[T]) Attach(i int, view *policy.ClusterView, mu sync.Locker, shell Shell[T]) *Sched[T] {
	s := &Sched[T]{p: p, idx: i, view: view, mu: mu, shell: shell}
	p.Shards[i] = s
	return s
}

// Sched is one shard's scheduler. Everything but Wake needs the shard
// lock.
type Sched[T Spec] struct {
	p     *Plane[T]
	idx   int
	view  *policy.ClusterView
	mu    sync.Locker
	shell Shell[T]

	q     []Task[T]
	dirty bool
	plan  []policy.PlaceTask // the pass's reusable decision buffer
	// starving: the loop went idle resting work that nothing local is
	// outstanding to unblock — only another shard's event (Nudge) can.
	starving atomic.Bool
	// latch coalesces wakes: idle, running, or running with a rerun
	// owed because a wake arrived since the loop's last look.
	latch atomic.Int32
}

const (
	latchIdle int32 = iota
	latchRunning
	latchRerun
)

// Push queues tasks and marks the queue for a pass.
func (s *Sched[T]) Push(tasks ...Task[T]) {
	s.q = append(s.q, tasks...)
	s.dirty = s.dirty || len(tasks) > 0
}

// Requeue puts back tasks whose worker died under them or failed them
// retryably: ascending spec order, that worker as the avoid preference.
func (s *Sched[T]) Requeue(avoid string, tasks ...Task[T]) {
	slices.SortFunc(tasks, func(a, b Task[T]) int { return cmp.Compare(KeyNum(a.Key), KeyNum(b.Key)) })
	for i := range tasks {
		tasks[i].Avoid = avoid
	}
	s.Push(tasks...)
}

// MarkDirty marks the task queue for a pass.
func (s *Sched[T]) MarkDirty() { s.dirty = true }

// Tasks is the queue, in order; the caller must not keep it.
func (s *Sched[T]) Tasks() []Task[T] { return s.q }

// Settled reports that the queue is unmarked and no loop runs or is owed.
func (s *Sched[T]) Settled() bool { return !s.dirty && s.latch.Load() == latchIdle }

// Wake ensures the loop runs — and keeps running — until no mark and no
// intake remain. A caller that finds it running leaves a rerun request
// with one CAS and never touches the shard lock, so a burst of events
// costs one follow-up pass and never queues behind a pass in progress.
// No wake is lost: one arriving as the loop exits either lands its
// running→rerun CAS first (the exit CAS then fails and the loop goes
// around again) or finds the latch idle and runs the loop. Call with no
// lock held.
func (s *Sched[T]) Wake() {
	for {
		switch state := s.latch.Load(); {
		case state == latchIdle && s.latch.CompareAndSwap(latchIdle, latchRunning):
			s.run()
			s.shell.Woke(true)
			return
		case state == latchRerun || s.latch.CompareAndSwap(latchRunning, latchRerun):
			s.shell.Woke(false)
			return
		}
	}
}

// run is the loop: drain intake → evacuate if workerless → task pass,
// invocation pass → forward → look again. It holds the shard lock
// except while specs cross to another shard, so no two shard locks are
// ever held together. Forward chains end: hop counts only grow between
// nudges, and routing never picks a workerless shard.
func (s *Sched[T]) run() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		invs, invDirty, open := s.shell.Intake()
		pending := invs+len(s.q) > 0
		if !open || !(s.dirty || invDirty) {
			if starving := pending && s.shell.Quiet(); starving != s.starving.Load() {
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
		// it — tasks one by one by ring key, order and hop counts kept.
		evacuate := len(s.view.Workers) == 0 && pending && s.p.Live() > 0
		var fwd []Task[T]
		var next int
		if evacuate {
			fwd, s.q = s.q, nil
		} else if s.dirty {
			s.dirty = false
			fwd, next = s.pass()
		}
		invFwd := s.shell.PassInvs(evacuate)
		// Unlocking is also what lets handlers blocked on the lock leave
		// their marks before the next look.
		s.mu.Unlock()
		if evacuate {
			for i := range fwd {
				s.shell.Deliver(s.p.KeyShard(fwd[i].Key), fwd[i:i+1])
			}
		} else if len(fwd) > 0 {
			s.shell.Deliver(next, fwd)
		}
		if invFwd {
			s.shell.ForwardInvs()
		}
		s.mu.Lock()
	}
}

// pass plans the queue and executes what can be placed, keeping order
// among what stays. A task leaves for the next live shard (fwd) when
// this one is a dead end and its hop budget allows: before planning,
// when no worker here but the avoided one could ever hold it — the
// planner's avoid fallback would pin it there for good, and the order
// of preference is a non-avoided worker here, any other shard, then
// the avoided worker — or after a refusal, when the shard is quiet:
// capacity exists on paper but nothing in flight will free it. A
// refusal over first copies in flight (Blocked) stays, the ack re-runs
// the pass; a busy shard never forwards, its own completions do.
func (s *Sched[T]) pass() (fwd []Task[T], next int) {
	if len(s.q) == 0 {
		return nil, 0
	}
	next, hasNext := s.p.NextAlive(s.idx)
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
	for rest := s.q; len(rest) > 0; rest = rest[len(s.plan):] {
		s.plan = s.shell.Plan(s.plan[:0], rest)
		for i, d := range s.plan {
			t := rest[i]
			switch {
			case d.Worker != nil:
				s.shell.Place(t, d)
			case len(d.Blocked) == 0 && hasNext && t.Hops < len(s.p.Shards) && s.shell.Quiet():
				t.Hops++
				fwd = append(fwd, t)
			default:
				keep = append(keep, t)
			}
		}
	}
	s.q = keep
	return fwd, next
}

// deadEnd is the static rule: within the hop budget, and no worker of
// this shard other than avoid is large enough to ever hold need.
func (s *Sched[T]) deadEnd(hops int, avoid string, need core.Resources) bool {
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

// Overflow applies the static rule to a queue the engine keeps itself
// (one library's invocations, moved whole to keep their order) whose head
// has made hops forwards and whose instances need need.
func (s *Sched[T]) Overflow(hops int, need core.Resources) (next int, ok bool) {
	if !s.deadEnd(hops, "", need) {
		return 0, false
	}
	return s.p.NextAlive(s.idx)
}

// Nudge follows a capacity-freeing event anywhere — a result, a ready
// instance, a join or a death: every starving shard gets its hop budgets
// back and another pass, so rested work circulates again and can reach
// what just freed. The set is read first, in index order. No lock held.
func (p *Plane[T]) Nudge() {
	if p.starving.Load() == 0 {
		return
	}
	set := slices.DeleteFunc(slices.Clone(p.Shards), func(s *Sched[T]) bool { return !s.starving.Load() })
	for _, s := range set {
		s.mu.Lock()
		for i := range s.q {
			s.q[i].Hops = 0
		}
		s.dirty = true
		s.shell.Nudged()
		s.mu.Unlock()
		s.Wake()
	}
}

// WakeParked follows a join: every workerless shard holding specs, parked
// while no worker was live anywhere, runs its loop, which now evacuates
// them. No lock held.
func (p *Plane[T]) WakeParked() {
	for _, s := range p.Shards {
		s.mu.Lock()
		invs, _, _ := s.shell.Intake()
		parked := len(s.view.Workers) == 0 && invs+len(s.q) > 0
		s.dirty = s.dirty || parked
		s.mu.Unlock()
		if parked {
			s.Wake()
		}
	}
}
