package manager

import "repro/internal/core"

// This file keeps each shard's policy.ClusterView current. The paper's
// headline result (§4) needs the manager off the critical path while
// invocations fan out; the view's derived indexes (the ready index,
// Holders, PendingCopies, LibFull — internal/policy) make each decision
// O(candidates), and each *event* is cheap: the scheduler's verbs
// (shardplane.Sched) mark exactly the queues it could unblock, a burst
// of events costs one coalesced pass per shard, and per-worker
// ackWaiters (object → dispatches on that worker still waiting for the
// ack) stamp TransferTime without scanning the in-flight table.
//
// …Locked methods require s.mu. The randomized consistency test
// (index_test.go) asserts the view's indexes always match a brute-force
// recomputation from ground-truth state.

// ---- view wrappers ----
//
// The scheduler's cluster state lives in s.view (policy.ClusterView);
// the wrappers below forward transitions and keep the global replica
// registry in sync with the view's Holders index. Holder counts are
// global across shards, so the wrappers publish deltas.

// Held publishes a replica the view has just noted (the plane's replica
// rule, shardplane events.go) in the global registry, under its own lock
// so ObjectHolders reads and cross-shard source picks never contend with
// any shard's scheduler.
func (s *shard) Held(worker, id string) {
	m := s.m
	m.obsMu.Lock()
	hs := m.holders[id]
	if hs == nil {
		hs = map[string]bool{}
		m.holders[id] = hs
	}
	hs[worker] = true
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

// peerAdd registers a connected worker as live and a potential
// cross-shard peer source, unless one of that ID already is.
func (m *Manager) peerAdd(w *workerState) bool {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	if m.peers[w.id] != nil {
		return false
	}
	m.peers[w.id] = &peerSource{w: w}
	return true
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

// ---- worker lifecycle ----

// registerWorkerLocked adds a connected worker to the shard's worker
// table and view (which puts it on the shard's placement ring).
func (s *shard) registerWorkerLocked(w *workerState) {
	s.workers[w.id] = w
	w.v = s.view.AddWorker(w.id, w.hello.Cluster, w.hello.Resources)
}

// dropWorkerLocked removes a dead worker from the worker table and
// every view index — its library instances, its replicas, its in-flight
// copies — republishing observability counters, and returns the objects
// whose copies to it were cleared.
func (s *shard) dropWorkerLocked(w *workerState) (cleared []string) {
	delete(s.workers, w.id)
	dropped, cleared := s.view.RemoveWorker(w.v)
	for _, id := range dropped {
		s.m.holderDrop(id, w.id)
	}
	w.ackWaiters = nil
	return cleared
}
