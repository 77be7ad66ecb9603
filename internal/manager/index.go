package manager

import (
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
)

// This file keeps each shard's policy.ClusterView current and runs the
// shard's coalesced wake loop. The paper's headline result (§4) needs
// the manager off the critical path while invocations fan out; the
// view's derived indexes (the ready index, Holders, PendingCopies,
// LibFull — internal/policy) make each decision O(candidates), and the
// structures kept here make each *event* cheap:
//
//   - objWaiters: object → the placements its arrival could unblock,
//     so a FileAck wakes exactly those queues.
//   - per-worker ackWaiters: object → dispatches on that worker still
//     waiting for the ack (TransferTime stamping without scanning the
//     whole inflight table).
//   - dirty marks + wake(): a burst of events triggers one coalesced
//     schedule pass, not one per event — per shard.
//
// All shard methods here require s.mu unless noted. The randomized
// consistency test (index_test.go) asserts the view's indexes always
// match a brute-force recomputation from ground-truth worker state.

// objWaiter records which placements a blocked object is holding up.
type objWaiter struct {
	tasks bool
	libs  map[string]bool
}

// ---- dirty marks + coalesced wakeups ----

// markTasksDirtyLocked queues a reconsideration of pending tasks.
func (s *shard) markTasksDirtyLocked() { s.dirtyTasks = true }

// markLibDirtyLocked queues a reconsideration of one library's pending
// invocations.
func (s *shard) markLibDirtyLocked(lib string) {
	if s.dirtyAllLibs {
		return
	}
	if s.dirtyLibs == nil {
		s.dirtyLibs = map[string]bool{}
	}
	s.dirtyLibs[lib] = true
}

// markAllLibsDirtyLocked queues a reconsideration of every library with
// pending invocations (worker churn, freed capacity).
func (s *shard) markAllLibsDirtyLocked() {
	s.dirtyAllLibs = true
	clear(s.dirtyLibs)
}

// wakeCapacityLocked marks everything that competes for worker
// resources: pending tasks and every library still waiting to deploy.
func (s *shard) wakeCapacityLocked() {
	s.markTasksDirtyLocked()
	s.markAllLibsDirtyLocked()
}

func (s *shard) hasDirtyLocked() bool {
	return s.dirtyTasks || s.dirtyAllLibs || len(s.dirtyLibs) > 0
}

// hasPendingLocked reports whether any spec is queued in this shard.
func (s *shard) hasPendingLocked() bool {
	return len(s.pendingTasks) > 0 || s.pendingInvCount > 0
}

// wake ensures a schedule loop runs (and keeps running) until no
// dirty marks and no intake remain in this shard. The latch is
// lock-free: a caller finding the loop already running leaves a rerun
// request behind with one CAS and returns without ever touching the
// shard lock — so a submit burst coalesces into one follow-up pass,
// not N, and never queues behind a pass in progress.
//
// No wakeup is lost: a wake that arrives while the loop is exiting
// either lands its wakeRunning→wakeRerun CAS first (the exit CAS then
// fails and the loop runs again) or finds the latch idle and runs the
// loop itself.
func (s *shard) wake() {
	for {
		switch s.wakeState.Load() {
		case wakeIdle:
			if s.wakeState.CompareAndSwap(wakeIdle, wakeRunning) {
				s.runWake()
				// Quota released under a shard lock (emitFailure, crash
				// exhaustion, quarantine) parks its wakes; flush them now
				// that no lock is held. pump() may wake further shards
				// inline — bounded, since each flush empties the parked
				// set and refills only on new failure-path releases.
				if s.m.plane != nil {
					s.m.plane.pump()
				}
				return
			}
		case wakeRunning:
			if !s.wakeState.CompareAndSwap(wakeRunning, wakeRerun) {
				continue
			}
			atomic.AddInt64(&s.m.stats.CoalescedWakeups, 1)
			return
		default: // wakeRerun: a follow-up pass is already owed
			atomic.AddInt64(&s.m.stats.CoalescedWakeups, 1)
			return
		}
	}
}

// runWake is the schedule loop body, entered only by the wake that won
// the idle→running CAS.
//
// The loop also hosts the shard-crossing evacuation path: a shard
// whose last worker died (or whose parked work predates the first
// worker) cannot place anything, so its queues are extracted and
// re-routed to live shards — with the shard lock released, never
// holding two shard locks at once.
func (s *shard) runWake() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.drainIntakeLocked()
		if !s.hasDirtyLocked() || s.m.closed.Load() {
			// Starvation registration: queued work survives with nothing
			// in flight locally — no result, ack, or backoff timer of
			// this shard will ever re-run the pass. A capacity-freeing
			// event in any other shard nudges us awake (nudgeStarving).
			s.setStarvingLocked(s.hasPendingLocked() && s.quietLocked())
			if s.wakeState.CompareAndSwap(wakeRunning, wakeIdle) {
				return
			}
			// A wake arrived since the last pass: absorb the rerun
			// request and go around again.
			s.wakeState.Store(wakeRunning)
			continue
		}
		if len(s.workers) == 0 && s.hasPendingLocked() && s.m.router.Live() > 0 {
			tasks, invs := s.extractPendingLocked()
			s.mu.Unlock()
			s.m.forwardEvacuated(tasks, invs)
			s.mu.Lock()
			continue
		}
		tasks := s.dirtyTasks
		allLibs := s.dirtyAllLibs
		// Copy this pass's dirty libraries into the reusable scratch
		// slice and clear the (retained) map, so marks recorded while
		// the pass runs are observed by the next iteration. Sorting
		// restores determinism after the unordered collect.
		libs := s.libScratch[:0]
		for lib := range s.dirtyLibs { //vinelint:unordered collected keys are sorted below
			libs = append(libs, lib)
		}
		sort.Strings(libs)
		s.libScratch = libs
		clear(s.dirtyLibs)
		s.dirtyTasks, s.dirtyAllLibs = false, false

		atomic.AddInt64(&s.m.stats.SchedulePasses, 1)
		var fwdTasks []pendingTask
		var fwdTarget int
		if tasks {
			fwdTasks, fwdTarget = s.scheduleTasksLocked()
		}
		// Competing library queues must drain in sorted-name order:
		// they contend for the same worker capacity, so map iteration
		// order here would leak straight into the decision trace and
		// break replay against the simulator.
		var fwdInvs map[string][]pendingInv
		var invTarget int
		handleLib := func(lib string) {
			if q, target, ok := s.invOverflowLocked(lib); ok {
				if fwdInvs == nil {
					fwdInvs = map[string][]pendingInv{}
				}
				fwdInvs[lib] = q
				invTarget = target
				return
			}
			s.scheduleLibQueueLocked(lib)
		}
		if allLibs {
			for _, lib := range core.SortedKeys(s.pendingInvs) {
				handleLib(lib)
			}
		} else {
			for _, lib := range libs {
				handleLib(lib)
			}
		}
		// Overflow forwarding (shard-crossing path): work this shard
		// cannot place — and that no local event will unblock — hops
		// to the next live shard, with the shard lock released and at
		// most one shard lock held at a time.
		if len(fwdTasks) > 0 || len(fwdInvs) > 0 {
			s.mu.Unlock()
			if len(fwdTasks) > 0 {
				s.m.forwardTasksTo(fwdTarget, fwdTasks)
			}
			for _, lib := range core.SortedKeys(fwdInvs) {
				s.m.forwardInvQueue(invTarget, lib, fwdInvs[lib])
			}
			s.mu.Lock()
			continue
		}
		// Release briefly so event handlers blocked on the lock can
		// record their dirty marks (and coalesce) before the re-check.
		s.mu.Unlock()
		s.mu.Lock()
	}
}

// quietLocked reports whether no local event is pending that could
// change this shard's placement state: nothing in flight, no copies
// awaiting acks, no installs awaiting acks, no retries waiting out a
// backoff.
func (s *shard) quietLocked() bool {
	if len(s.inflight) > 0 || s.backoffs > 0 || len(s.view.PendingCopies) > 0 {
		return false
	}
	for _, n := range s.installing { //vinelint:unordered existence check over a set
		if n > 0 {
			return false
		}
	}
	return true
}

// extractPendingLocked removes and returns every queued spec so the
// coordinator can re-route it to live shards. Blocked-object interest
// is dropped too: the specs are leaving, and whichever shard receives
// them re-registers waiters against its own view.
func (s *shard) extractPendingLocked() ([]pendingTask, map[string][]pendingInv) {
	tasks := s.pendingTasks
	s.pendingTasks = nil
	invs := s.pendingInvs
	s.pendingInvs = map[string][]pendingInv{}
	s.pendingInvCount = 0
	s.objWaiters = map[string]*objWaiter{}
	return tasks, invs
}

// forwardEvacuated re-routes extracted specs: tasks individually by
// ring key, invocation queues whole per library (preserving order) to
// the library's owner shard. Called with no shard lock held.
func (m *Manager) forwardEvacuated(tasks []pendingTask, invs map[string][]pendingInv) {
	for _, pt := range tasks {
		atomic.AddInt64(&m.stats.ShardForwards, 1)
		m.routeTask(pt)
	}
	for _, lib := range core.SortedKeys(invs) {
		m.forwardInvQueue(m.router.KeyShard(lib), lib, invs[lib])
	}
}

// forwardTasksTo moves overflow tasks into a target shard's queue.
// Called with no shard lock held.
func (m *Manager) forwardTasksTo(idx int, tasks []pendingTask) {
	s := m.shards[idx]
	s.mu.Lock()
	s.pendingTasks = append(s.pendingTasks, tasks...)
	s.markTasksDirtyLocked()
	s.mu.Unlock()
	atomic.AddInt64(&m.stats.ShardForwards, int64(len(tasks)))
	s.wake()
}

// ---- overflow forwarding eligibility ----
//
// A shard forwards queued work to the next live shard when local
// placement is a dead end: either no non-avoided worker here is large
// enough to ever hold the spec, or capacity exists on paper but is
// committed with nothing in flight to free it (idle library
// deployments pinning a worker, an avoided worker being the only fit).
// The hop counter bounds circulation: once a spec has visited every
// shard without placing, it rests where it is until a membership
// change or a starvation nudge resets the budget. Transiently busy
// shards — inflight work, pending copies, ticking backoffs — never
// forward; their own completions re-run the pass.

// anyEligibleWorkerLocked reports whether some non-avoided worker in
// this shard is large enough to ever hold the task — the static
// pre-planning check deciding between planning here and hopping to
// the next live shard.
func (s *shard) anyEligibleWorkerLocked(pt pendingTask) bool {
	for _, w := range s.workers { //vinelint:unordered existence check over a set
		if w.id != pt.avoid && pt.t.Resources.Fits(w.v.Total) {
			return true
		}
	}
	return false
}

// invOverflowLocked decides whether one library's whole pending queue
// should hop to the next live shard: no worker in this shard is large
// enough to ever host an instance of the library. Queues move whole
// to preserve submission order. On a forward it removes the queue and
// returns it with hop counts bumped.
func (s *shard) invOverflowLocked(lib string) ([]pendingInv, int, bool) {
	q := s.pendingInvs[lib]
	if len(q) == 0 || q[0].hops >= len(s.m.shards) {
		return nil, 0, false
	}
	spec, known := s.m.libSpec(lib)
	if !known {
		return nil, 0, false
	}
	for _, w := range s.workers { //vinelint:unordered existence check over a set
		if spec.Resources.Fits(w.v.Total) {
			return nil, 0, false
		}
	}
	target, ok := s.m.router.NextAlive(s.idx)
	if !ok {
		return nil, 0, false
	}
	delete(s.pendingInvs, lib)
	s.pendingInvCount -= len(q)
	for i := range q {
		q[i].hops++
	}
	return q, target, true
}

// ---- pending queues ----

// taskRingKey is the consistent-hash key for a task, precomputed once
// per spec instead of fmt.Sprintf on every placement attempt.
func taskRingKey(id int64) string {
	return "task-" + strconv.FormatInt(id, 10)
}

// enqueueInvLocked appends an invocation to its library's wait queue.
func (s *shard) enqueueInvLocked(pi pendingInv) {
	s.pendingInvs[pi.inv.Library] = append(s.pendingInvs[pi.inv.Library], pi)
	s.pendingInvCount++
	s.markLibDirtyLocked(pi.inv.Library)
}

// ---- view wrappers ----
//
// The scheduler's cluster state lives in s.view (policy.ClusterView);
// the wrappers below forward transitions and keep the lock-free
// observability counter in sync with the view's Holders index. Holder
// counts are global across shards, so the wrappers publish deltas.

// noteReplicaLocked records a confirmed cached copy of an object on a
// worker.
func (s *shard) noteReplicaLocked(w *workerState, id string) {
	if s.view.NoteReplica(w.v, id) {
		s.m.holderAdd(id, w.id)
	}
}

// holderAdd publishes a worker's confirmed replica in the global
// registry, under its own lock so ObjectHolders reads and cross-shard
// source picks never contend with any shard's scheduler.
func (m *Manager) holderAdd(id, workerID string) {
	m.obsMu.Lock()
	hs := m.holders[id]
	if hs == nil {
		hs = map[string]bool{}
		m.holders[id] = hs
	}
	hs[workerID] = true
	m.obsMu.Unlock()
}

// holderDrop retracts a worker's replica from the global registry.
func (m *Manager) holderDrop(id, workerID string) {
	m.obsMu.Lock()
	if hs := m.holders[id]; hs != nil {
		delete(hs, workerID)
		if len(hs) == 0 {
			delete(m.holders, id)
		}
	}
	m.obsMu.Unlock()
}

// peerAdd registers a live worker as a potential cross-shard peer
// source.
func (m *Manager) peerAdd(w *workerState) {
	m.obsMu.Lock()
	m.peers[w.id] = &peerSource{w: w}
	m.obsMu.Unlock()
}

// peerDrop unregisters a dead worker. In-flight release attempts
// against it become no-ops; its slots die with it.
func (m *Manager) peerDrop(workerID string) {
	m.obsMu.Lock()
	delete(m.peers, workerID)
	m.obsMu.Unlock()
}

// ---- global staging catalog ----

// catalogAdd remembers a staged FileSpec so any shard can later
// recover the object from the manager's own link (failed peer fetch,
// deploy planned in a shard that never staged it).
func (m *Manager) catalogAdd(fs core.FileSpec) {
	m.catMu.Lock()
	m.catalog[fs.Object.ID] = fs
	m.catMu.Unlock()
}

// catalogGet looks up a staged FileSpec by object ID.
func (m *Manager) catalogGet(id string) (core.FileSpec, bool) {
	m.catMu.RLock()
	fs, ok := m.catalog[id]
	m.catMu.RUnlock()
	return fs, ok
}

// ---- starvation registry (shard-crossing capacity signal) ----

// setStarvingLocked records whether this shard is resting work it
// cannot place and no local event will unblock. Caller holds s.mu;
// starveMu nests inside shard locks (never the reverse — nudges copy
// the set before taking any shard lock).
func (s *shard) setStarvingLocked(starving bool) {
	m := s.m
	m.starveMu.Lock()
	if starving && !m.starving[s.idx] {
		m.starving[s.idx] = true
		m.nStarving.Add(1)
	} else if !starving && m.starving[s.idx] {
		delete(m.starving, s.idx)
		m.nStarving.Add(-1)
	}
	m.starveMu.Unlock()
}

// nudgeStarving wakes every starving shard after a capacity-freeing
// event anywhere (a completed result, a ready instance, a membership
// change): overflow hop budgets reset so rested work circulates again
// and can reach the shard whose capacity just freed. Must be called
// with no shard lock held. When nothing is starving — the steady
// state — this is one atomic load.
func (m *Manager) nudgeStarving() {
	if m.nStarving.Load() == 0 {
		return
	}
	m.starveMu.Lock()
	idxs := make([]int, 0, len(m.starving))
	for idx := range m.starving { //vinelint:unordered wakes commute; each shard drains its own queues deterministically
		idxs = append(idxs, idx)
	}
	m.starveMu.Unlock()
	for _, idx := range idxs {
		s := m.shards[idx]
		s.mu.Lock()
		for i := range s.pendingTasks {
			s.pendingTasks[i].hops = 0
		}
		for lib := range s.pendingInvs { //vinelint:unordered resets commute; scheduling order is fixed by the wake loop
			q := s.pendingInvs[lib]
			for i := range q {
				q[i].hops = 0
			}
		}
		s.wakeCapacityLocked()
		s.mu.Unlock()
		s.wake()
	}
}

// notePendingLocked records that a copy of the object is in flight to
// the worker.
func (s *shard) notePendingLocked(w *workerState, id string) {
	s.view.NotePending(w.v, id)
}

// clearPendingLocked removes the in-flight record, reporting whether
// one existed.
func (s *shard) clearPendingLocked(w *workerState, id string) bool {
	return s.view.ClearPending(w.v, id)
}

// libSlotsChangedLocked republishes one instance's free ready-slot
// count after any slot or readiness transition, re-seating it in the
// view's ready index.
func (s *shard) libSlotsChangedLocked(w *workerState, li *libInstance) {
	free := 0
	if li.Ready && !li.Failed && li.SlotsUsed < li.Slots {
		free = li.Slots - li.SlotsUsed
	}
	s.view.SetFreeReady(w.v, &li.LibraryView, free)
}

// ---- blocked-placement wait queues ----

// addObjWaiterLocked registers interest in an object's next FileAck:
// either the task queue (lib == "") or one library's queue.
func (s *shard) addObjWaiterLocked(id, lib string) {
	ww := s.objWaiters[id]
	if ww == nil {
		ww = &objWaiter{}
		s.objWaiters[id] = ww
	}
	if lib == "" {
		ww.tasks = true
		return
	}
	if ww.libs == nil {
		ww.libs = map[string]bool{}
	}
	ww.libs[lib] = true
}

// wakeObjWaitersLocked marks dirty exactly the queues an object event
// (ack, failed transfer, holder death) could unblock.
func (s *shard) wakeObjWaitersLocked(id string) {
	ww := s.objWaiters[id]
	if ww == nil {
		return
	}
	delete(s.objWaiters, id)
	if ww.tasks {
		s.markTasksDirtyLocked()
	}
	for lib := range ww.libs { //vinelint:unordered dirty marks form a set; wake() drains them in sorted order
		s.markLibDirtyLocked(lib)
	}
}

// ---- worker lifecycle ----

// registerWorkerLocked adds a connected worker to the shard's worker
// table and view (which puts it on the shard's placement ring).
func (s *shard) registerWorkerLocked(w *workerState) {
	s.workers[w.id] = w
	w.v = s.view.AddWorker(w.id, w.hello.Cluster, w.hello.Resources)
}

// dropWorkerLocked removes a dead worker from the worker table and
// every view index: its library instances, its replicas, its in-flight
// copies — republishing observability counters and waking anything
// queued behind a first copy that will now never confirm.
func (s *shard) dropWorkerLocked(w *workerState) {
	delete(s.workers, w.id)
	// Un-acked installs on the dead worker will never ack; release
	// their claims so queued invocations can trigger fresh deploys.
	for name, li := range w.libs { //vinelint:unordered per-library counter decrements commute
		if !li.Ready && !li.Failed && s.installing[name] > 0 {
			s.installing[name]--
		}
	}
	dropped, cleared := s.view.RemoveWorker(w.v)
	for _, id := range dropped {
		s.m.holderDrop(id, w.id)
	}
	for _, id := range cleared {
		if s.view.PendingCopies[id] == 0 {
			s.wakeObjWaitersLocked(id)
		}
	}
	w.ackWaiters = nil
}
