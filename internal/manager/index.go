package manager

import "repro/internal/core"

// The manager's two global tables, each behind a mutex of its own that no
// shard lock is ever taken under: the live-worker table (peers), through
// which sends reach a worker in any shard — a peer stage's source, a ref
// transfer's, a spill's or an adopt's — and the staging catalog. The
// cluster state every decision reads, the holder index among it, is the
// plane's (internal/shardplane).

// ---- live-worker table ----

// peerAdd enters a connected worker in the live-worker table, unless one
// of that ID already is.
func (m *Manager) peerAdd(w *workerState) bool {
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	if m.peers[w.id] != nil {
		return false
	}
	m.peers[w.id] = w
	return true
}

// peer is the live worker id, nil if none is.
func (m *Manager) peer(id string) *workerState {
	m.peerMu.RLock()
	defer m.peerMu.RUnlock()
	return m.peers[id]
}

// peerDrop takes a dead worker out of the table: sends through it find
// none.
func (m *Manager) peerDrop(workerID string) {
	m.peerMu.Lock()
	delete(m.peers, workerID)
	m.peerMu.Unlock()
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
