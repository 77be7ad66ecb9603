// Package shardplane is the sharded dispatch plane both engines run
// (DESIGN.md §12). Worker state is partitioned into N shards and every
// spec (task or invocation) is routed to exactly one at submission.
// This file is the routing: the Router, a read-mostly membership index
// that holds no spec state and takes no shard locks.
//
//   - A worker's home shard is hashring.Partition(workerID, N) — a
//     pure function of the ID, so both engines agree without
//     coordination.
//   - Tasks route to the shard owning the task key's ring-preferred
//     live worker (Owner): the per-shard ring walk then starts at the
//     same worker the unsharded ring walk would have chosen.
//   - Invocations round-robin across shards that have live workers
//     (RouteSpec): invocations of one library are interchangeable, so
//     spreading them is pure load balancing.
//   - With no live workers anywhere, specs park in a key-derived home
//     shard and are re-routed when the first worker joins. KeyShard,
//     InvShard and TenantInvShard are total, each with the fallback
//     inside, and only the plane calls them (sched.go: Submit, Route,
//     evacuation).
//
// sched.go is the scheduling: one Sched per shard — intake, task queue
// and library queues, wake loop, task pass and invocation pass, every
// path that moves a spec to another shard, and the event verbs — around
// which the manager and sim.Replay are shells.
package shardplane

import (
	"slices"
	"sync"

	"repro/internal/hashring"
)

// DefaultShards is the dispatch plane's default partition count. It is
// a fixed constant — not derived from the machine — so decision traces
// are reproducible across hosts.
const DefaultShards = 8

// Router maps workers and specs to shards. Safe for concurrent use.
type Router struct {
	mu      sync.RWMutex
	n       int
	ring    *hashring.Ring
	members map[string]bool
	live    []int // live worker count per shard
	alive   []int // sorted shard indexes with live > 0
}

// NewRouter builds a router over n shards (n < 1 defaults to
// DefaultShards).
func NewRouter(n int) *Router {
	if n < 1 {
		n = DefaultShards
	}
	return &Router{
		n:       n,
		ring:    hashring.New(0),
		members: map[string]bool{},
		live:    make([]int, n),
	}
}

// ShardOf returns workerID's home shard — a pure function of the ID.
func (r *Router) ShardOf(workerID string) int {
	return hashring.Partition(workerID, r.n)
}

// Add registers a live worker. Reports whether membership changed.
func (r *Router) Add(workerID string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[workerID] {
		return false
	}
	r.members[workerID] = true
	r.ring.Add(workerID)
	r.live[hashring.Partition(workerID, r.n)]++
	r.recomputeAlive()
	return true
}

// Remove unregisters a worker. Reports whether membership changed.
func (r *Router) Remove(workerID string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[workerID] {
		return false
	}
	delete(r.members, workerID)
	r.ring.Remove(workerID)
	r.live[hashring.Partition(workerID, r.n)]--
	r.recomputeAlive()
	return true
}

func (r *Router) recomputeAlive() {
	r.alive = r.alive[:0]
	for s := 0; s < r.n; s++ {
		if r.live[s] > 0 {
			r.alive = append(r.alive, s)
		}
	}
}

// Live reports how many live workers the router knows.
func (r *Router) Live() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// LiveIn reports how many live workers shard s holds.
func (r *Router) LiveIn(s int) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live[s]
}

// Owner routes a key to the shard of its ring-preferred live worker.
// ok is false when no worker is live anywhere.
func (r *Router) Owner(key string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id := r.ring.Lookup(key)
	if id == "" {
		return 0, false
	}
	return hashring.Partition(id, r.n), true
}

// RouteSpec round-robins a spec ID across shards with live workers.
// ok is false when no worker is live anywhere.
func (r *Router) RouteSpec(id int64) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.alive) == 0 {
		return 0, false
	}
	if id < 0 {
		id = -id
	}
	return r.alive[int(id)%len(r.alive)], true
}

// KeyShard is where a keyed spec goes: a task by its ring key, an
// evacuated invocation queue by its library name. The shard of the
// key's ring-preferred live worker, or — no worker live anywhere — the
// key's home shard, a pure function of the key, so the re-route on the
// first join finds it deterministically.
func (r *Router) KeyShard(key string) int {
	if idx, ok := r.Owner(key); ok {
		return idx
	}
	return hashring.Partition(key, r.n)
}

// InvShard is where a directly submitted invocation goes: RouteSpec's
// round-robin over its spec ID, or the library's home shard while no
// worker is live.
func (r *Router) InvShard(id int64, lib string) int {
	if idx, ok := r.RouteSpec(id); ok {
		return idx
	}
	return hashring.Partition(lib, r.n)
}

// TenantInvShard is where the seq-th invocation a tenant's plane queue
// released goes: a per-tenant round-robin over the shards with live
// workers whose start is a pure hash of the tenant name. Each tenant's
// cursor advances with its own drain count — not the global spec ID —
// so one tenant's burst sweeps every live shard evenly no matter how
// the global ID sequence interleaves with other tenants, and no shard's
// intake can be monopolized. While no worker is live it is the
// library's home shard.
func (r *Router) TenantInvShard(tenant string, seq int64, lib string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.alive) == 0 {
		return hashring.Partition(lib, r.n)
	}
	if seq < 0 {
		seq = -seq
	}
	off := int64(tenantHash(tenant) % uint32(len(r.alive)))
	return r.alive[int((off+seq)%int64(len(r.alive)))]
}

// tenantHash is FNV-1a over the tenant name — a fixed, seedless hash
// so both engines and every host agree on each tenant's shard offset.
func tenantHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// NextAlive returns the first shard with live workers strictly after
// `after` in cyclic shard-index order, excluding `after` itself — the
// overflow-forwarding rule: work a shard cannot place locally hops to
// the next live shard, visiting every live shard within n-1 hops. ok
// is false when no *other* shard has live workers.
func (r *Router) NextAlive(after int) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := 1; i < r.n; i++ {
		s := (after + i) % r.n
		if r.live[s] > 0 {
			return s, true
		}
	}
	return 0, false
}

// MergeTraces is the deterministic merge rule for per-shard decision
// traces: concatenate in shard-index order. Within a shard the trace
// is already the shard's own deterministic decision order; across
// shards no order is defined (the shards are independent loops), so
// the merge pins one.
func MergeTraces(perShard [][]string) []string {
	var out []string
	for _, t := range perShard {
		out = append(out, t...)
	}
	return out
}

// ComposeTraces is an engine's whole decision trace: the submission
// plane's stream, then the ref catalog's — each global, each recorded
// once — then the shard traces merged.
func ComposeTraces(plane, refs []string, perShard [][]string) []string {
	return append(append(slices.Clip(plane), refs...), MergeTraces(perShard)...)
}
