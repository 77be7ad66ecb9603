package manager

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// The ref plane (DESIGN.md §15) is the manager's half of the
// proxy-object data plane: a global catalog of results that stayed on
// their producing workers (pass-by-reference), driven entirely by the
// pure policy.RefTable — every sequence, the failed-fetch recovery
// included, is one table call. What is left here is what a concurrent
// engine with real workers needs: the lock, the messages that carry
// out spills and adoptions, and the Stats counters. Like the submission
// plane it serializes its decisions on one leaf mutex with its OWN
// recorder — ref ownership, spills, promotes, resolves, and rehomes
// form a single global decision stream, compared against the
// simulator's catalog as its own trace (RefDecisions), never
// interleaved into any shard's.
//
// Locking: refMu is a leaf below shard locks. Under it the plane only
// mutates the table and records; message sends to spill victims and
// new owners go through the global live-worker registry (obsMu →
// enqueue), acquired after refMu is released or nested inside it —
// never a shard lock. The lock order is therefore s.mu → refMu →
// obsMu, consistent with every other path.
//
// Trace determinism: the ref stream is written from whichever shard's
// event handler triggered the decision, in the order the handlers took
// refMu. Where events are injected one at a time — the differential
// harness at any shard count, the golden pipeline — that order is the
// injection order, so the stream is deterministic and the simulator
// reproduces it byte for byte (TestDifferentialRefSharded). A live
// multi-shard manager's handlers race for refMu; its ref stream is one
// valid serialization, not a reproducible one.
type refPlane struct {
	m *Manager
	// rec records the global ref decision stream (nil when tracing is
	// off — Recorder.Record on nil is a no-op, keeping call sites flat).
	rec *policy.Recorder

	// active flips on the first ref result, so workloads without proxy
	// objects pay one atomic load per ack instead of a mutex hop.
	active atomic.Bool

	mu  sync.Mutex
	tab *policy.RefTable
}

func newRefPlane(m *Manager, ownedBytesCap int64, traced bool) *refPlane {
	p := &refPlane{m: m, tab: policy.NewRefTable(ownedBytesCap)}
	if traced {
		p.rec = &policy.Recorder{}
	}
	return p
}

// noteResult is the ownership transfer on completion: the producing
// worker becomes the ref's owner and holder of record, and the manager
// only updates its catalog — the result bytes never transit it. Spills
// cascaded by the owner's budget are executed immediately. Callable
// with a shard lock held.
func (p *refPlane) noteResult(workerID string, ref *core.ObjectRef) {
	p.active.Store(true)
	p.mu.Lock()
	spills := p.tab.NoteRefResult(workerID, ref.ID, ref.Name, ref.Size, p.rec)
	p.mu.Unlock()
	p.execSpills(spills)
}

// resolve plans where consumer dst pulls ref id from, executing any
// promote-cascaded spills before returning; the table is told whether
// the manager's own staging catalog could restage the bytes (the last
// resort — normally not, for by-ref results, whose bytes the manager
// never held). With failed set it is the recovery of a fetch that
// failed on every source the data plane tried:
// policy.RefTable.PlanRestage — retract the unreliable replica records,
// resolve afresh against what survives — under one hold of the plane's
// lock, so the table cannot change between the retraction and the
// resolve. There tracked is false (one atomic load on workloads without
// refs) when id is no proxy object and the ordinary-object recovery
// applies; name is the ref's file name, which no failed ack carries.
func (p *refPlane) resolve(dst, id string, failed bool) (d policy.ResolveDecision, name string, tracked bool) {
	if failed && !p.active.Load() {
		return d, "", false
	}
	_, catalog := p.m.catalogGet(id)
	p.mu.Lock()
	if failed {
		d, name, tracked = p.tab.PlanRestage(dst, id, catalog, p.rec)
	} else {
		d = p.tab.PlanResolve(dst, id, catalog, p.rec)
	}
	p.mu.Unlock()
	if d.Promote {
		atomic.AddInt64(&p.m.stats.RefPromotes, 1)
	}
	p.execSpills(d.Spills)
	return d, name, tracked
}

// execSpills tells each spill victim to demote the object to the
// shared tier. Victims may live in any shard, so the sends go through
// the global live-worker registry — enqueue only, no shard locks. The
// catalog was re-tiered at decision time; a victim that died in the
// window simply never materializes the shared copy, and a later
// resolve walks the surviving replicas instead.
func (p *refPlane) execSpills(spills []policy.RefSpill) {
	if len(spills) == 0 {
		return
	}
	atomic.AddInt64(&p.m.stats.RefSpills, int64(len(spills)))
	p.m.obsMu.RLock()
	for _, sp := range spills {
		if ps := p.m.peers[sp.Worker]; ps != nil {
			ps.w.enqueue(outMsg{t: proto.MsgSpillObject, v: proto.SpillObject{ID: sp.ID}})
		}
	}
	p.m.obsMu.RUnlock()
}

// noteHolder records a consumer's confirmed replica after its fetch
// acked — the ref-catalog twin of noteReplicaLocked. No-op for
// untracked objects and on workloads without refs.
func (p *refPlane) noteHolder(workerID, id string) {
	if !p.active.Load() {
		return
	}
	p.mu.Lock()
	p.tab.AddRefHolder(workerID, id)
	p.mu.Unlock()
}

// rehome handles an owner's death: every ref it owned is re-homed onto
// a surviving holder (told to adopt the copy), falls back to its
// shared-tier copy, or is declared lost. Called from onWorkerGone with
// no shard lock held.
func (p *refPlane) rehome(deadID string) {
	if !p.active.Load() {
		return
	}
	p.mu.Lock()
	rhs := p.tab.PlanRehome(deadID, p.rec)
	p.mu.Unlock()
	if len(rhs) == 0 {
		return
	}
	atomic.AddInt64(&p.m.stats.RefRehomes, int64(len(rhs)))
	var spills []policy.RefSpill
	p.m.obsMu.RLock()
	for _, rh := range rhs {
		if rh.Lost {
			atomic.AddInt64(&p.m.stats.RefLost, 1)
			continue
		}
		if rh.Owner == "" {
			continue // fell back to the durable shared-tier copy
		}
		if ps := p.m.peers[rh.Owner]; ps != nil {
			ps.w.enqueue(outMsg{t: proto.MsgOwnObject, v: proto.OwnObject{ID: rh.ID}})
		}
		spills = append(spills, rh.Spills...)
	}
	p.m.obsMu.RUnlock()
	p.execSpills(spills)
}

// Decisions returns a copy of the recorded ref decision stream.
func (p *refPlane) Decisions() []string {
	if p == nil || p.rec == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.rec.Decisions...)
}

// RefDecisions returns the global ref-plane decision trace: one line
// per ownership transfer, spill, resolve, promote, and rehome. Empty
// unless Options.DecisionTrace was set.
func (m *Manager) RefDecisions() []string {
	return m.refs.Decisions()
}

// refSourceAddrs maps resolve-picked worker IDs to data-server
// addresses through the global live-worker registry — the source may
// live in any shard. A dead source comes back as "" and the caller
// falls through to recovery.
func (m *Manager) refSourceAddrs(src string, alts []string) (string, []string) {
	m.obsMu.RLock()
	defer m.obsMu.RUnlock()
	var addr string
	if ps := m.peers[src]; ps != nil {
		addr = ps.w.hello.DataAddr
	}
	var altAddrs []string
	for _, id := range alts {
		if ps := m.peers[id]; ps != nil {
			altAddrs = append(altAddrs, ps.w.hello.DataAddr)
		}
	}
	return addr, altAddrs
}
