package manager

import (
	"sync/atomic"

	"repro/internal/core"
)

// This file keeps each shard's policy.ClusterView current and makes the
// shard the Shell of its shared scheduler (shardplane.Sched, DESIGN.md
// §12). The paper's headline result (§4) needs the manager off the
// critical path while invocations fan out; the view's derived indexes
// (the ready index, Holders, PendingCopies, LibFull — internal/policy)
// make each decision O(candidates), and the structures kept here make
// each *event* cheap:
//
//   - objWaiters: object → the placements its arrival could unblock,
//     so a FileAck wakes exactly those queues.
//   - per-worker ackWaiters: object → dispatches on that worker still
//     waiting for the ack (TransferTime stamping without scanning the
//     in-flight table).
//   - dirty marks + Sched.Wake: a burst of events triggers one coalesced
//     schedule pass, not one per event — per shard.
//
// …Locked methods require s.mu, as do the Shell methods but Deliver
// and Woke, which the scheduler calls with none held. The
// randomized consistency test (index_test.go) asserts the view's indexes
// always match a brute-force recomputation from ground-truth state.

// objWaiter records which placements a blocked object is holding up.
type objWaiter struct {
	tasks bool
	libs  map[string]bool
}

// ---- the scheduler's shell ----

// Deliver moves specs into shard i's queues and wakes it.
func (s *shard) Deliver(i int, tasks []pendingTask, invs []pendingInv) {
	to := s.m.shards[i]
	to.mu.Lock()
	to.sched.Push(tasks...)
	to.sched.PushInvs(invs...)
	to.mu.Unlock()
	atomic.AddInt64(&s.m.stats.ShardForwards, int64(len(tasks)+len(invs)))
	to.sched.Wake()
}

// Woke counts a wake the running loop absorbed; after one that ran the
// loop it flushes the wakes parked by quota released under a shard lock
// (Reject, crash exhaustion, quarantine), now that none is held.
// pump() may wake further shards inline — bounded, since each flush
// empties the parked set and only failure-path releases refill it.
func (s *shard) Woke(ran bool) {
	if !ran {
		atomic.AddInt64(&s.m.stats.CoalescedWakeups, 1)
	} else if s.m.plane != nil {
		s.m.plane.pump()
	}
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
		s.sched.MarkDirty()
	}
	for lib := range ww.libs { //vinelint:unordered dirty marks form a set; the pass drains them in sorted order
		s.sched.MarkLib(lib)
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
