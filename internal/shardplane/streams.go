package shardplane

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// The plane's global state (DESIGN.md §12), each part one value behind a
// leaf mutex, owned here for both engines:
//
//   - the tenant stream (DESIGN.md §14): policy.TenantPlane — admission
//     control, the tenants' plane queues, the weighted fair-share drain
//     into the shards' intakes (Route), and the quota a final result
//     returns;
//   - the ref stream (DESIGN.md §15): policy.RefTable — the catalog of
//     results that stayed on their producers, with the ownership
//     transfers, spills, resolves, promotes and rehomes over it;
//   - the holder index (§3.3): the one Holders map every shard view
//     shares — which workers hold a confirmed replica of each object —
//     and each worker's TransfersOut, its one count of the peer fetches
//     it serves, under the paper's per-worker cap N wherever the fetching
//     worker lives. A shard's task and deploy plans hold copyMu from the
//     plan until its stages are taken (Sched.planTask), so a source's
//     last slot goes to one plan; the invocation pass never takes it.
//
// The two streams carry a recorder of their own; a stage, whichever
// shard its source is in, is its destination shard's decision. The
// plane's passes and event methods (events.go) call these; an engine
// keeps the transport, sending the spill, adopt and fetch messages its
// Shell is handed (sim.Replay drops them: they carry no state). Every
// mutex here is a leaf, taken under a shard lock or none: under tenantMu
// only Route runs (lock-free posts), never a shard lock or a wake — the
// shards a drain fed wake at WakeFed, or at the next wake-loop exit on
// paths that hold a shard lock.
//
// Determinism: each stream and the index is written in the order its
// mutex is taken. Where events arrive one at a time — the differentials
// at any shard count, the golden pipeline — that is the event order, so
// both engines write the same. A live multi-shard manager's handlers
// race for the mutexes, and its streams are one valid serialization, not
// a reproducible one.

// SubmitTenant submits r for tenant through the tenant plane and wakes
// the shards its drain fed. An unregistered tenant, the empty one
// included, or a plane without tenants routes r directly (Submit), and
// known is false; d is the admission verdict.
func (p *Plane[T, I]) SubmitTenant(tenant string, r Run[T, I]) (d policy.AdmitDecision, known bool) {
	var released int
	if tenant != "" && p.tenants != nil {
		p.tenantMu.Lock()
		d, released, known = p.tenants.Submit(tenant, r, p.Route)
		p.tenantMu.Unlock()
	}
	if !known {
		p.Submit(r)
		return d, false
	}
	p.drains.Add(int64(released))
	p.WakeFed()
	return d, true
}

// Release returns one unit of tenant's quota — a final result of a spec
// it submitted, or a retry budget spent — and the specs the freed quota
// releases enter the shards' intakes; they wake at the next wake-loop
// exit. Free without tenants or for untenanted work.
func (p *Plane[T, I]) Release(tenant string) {
	if tenant == "" || p.tenants == nil {
		return
	}
	p.tenantMu.Lock()
	p.drains.Add(int64(p.tenants.Release(tenant, p.Route)))
	p.tenantMu.Unlock()
}

// Drains counts the specs the tenant plane has released into the shards'
// intakes. No lock needed.
func (p *Plane[T, I]) Drains() int64 { return p.drains.Load() }

// TenantStats is the per-tenant breakdown in sorted-name order; nil
// without tenants.
func (p *Plane[T, I]) TenantStats() []policy.TenantStat {
	if p.tenants == nil {
		return nil
	}
	p.tenantMu.Lock()
	defer p.tenantMu.Unlock()
	return p.tenants.Stats()
}

// RefResult is the ownership transfer of a by-ref result: worker becomes
// ref's owner and holder of record. It returns the spills the owner's
// budget cascaded, which the catalog has already re-tiered. Callable
// under a shard lock.
func (p *Plane[T, I]) RefResult(worker string, ref *core.ObjectRef) []policy.RefSpill {
	p.refActive.Store(true)
	p.refMu.Lock()
	defer p.refMu.Unlock()
	return p.refTab.NoteRefResult(worker, ref.ID, ref.Name, ref.Size, p.refRec)
}

// ResolveRef plans where consumer dst pulls ref id from; the engine's
// Catalog, asked first, says whether it could restage the bytes itself.
// With failed set it is the recovery of a fetch that failed on every
// source: the replica records are retracted and the resolve planned
// afresh (policy.RefTable.PlanRestage) under one hold of the lock. There
// tracked is false — one atomic load on workloads without refs — when id
// is no ref, and name is the ref's file name, which no failed ack carries.
// Callable under a shard lock.
func (p *Plane[T, I]) ResolveRef(dst, id string, failed bool) (d policy.ResolveDecision, name string, tracked bool) {
	if failed && !p.refActive.Load() {
		return d, "", false
	}
	catalog := p.cfg.Catalog != nil && p.cfg.Catalog(id)
	p.refMu.Lock()
	defer p.refMu.Unlock()
	if failed {
		return p.refTab.PlanRestage(dst, id, catalog, p.refRec)
	}
	return p.refTab.PlanResolve(dst, id, catalog, p.refRec), "", false
}

// RefHeld records worker's confirmed replica of ref id after its fetch
// acked. No-op for other objects, and free on workloads without refs.
func (p *Plane[T, I]) RefHeld(worker, id string) {
	if !p.refActive.Load() {
		return
	}
	p.refMu.Lock()
	p.refTab.AddRefHolder(worker, id)
	p.refMu.Unlock()
}

// RefOwnerDied re-homes every ref dead owned onto a surviving holder,
// falls it back to its shared-tier copy or declares it lost, and returns
// those fates for the engine to carry out. Free on workloads without refs.
func (p *Plane[T, I]) RefOwnerDied(dead string) []policy.Rehome {
	if !p.refActive.Load() {
		return nil
	}
	p.refMu.Lock()
	defer p.refMu.Unlock()
	return p.refTab.PlanRehome(dead, p.refRec)
}

// RefInput is ref id's input binding, rebuilt from the catalog; false if
// the catalog does not hold id.
func (p *Plane[T, I]) RefInput(id string) (core.FileSpec, bool) {
	p.refMu.Lock()
	defer p.refMu.Unlock()
	ref := p.refTab.Get(id)
	if ref == nil {
		return core.FileSpec{}, false
	}
	return core.RefSpec(&core.ObjectRef{ID: ref.ID, Name: ref.Name, Size: ref.Size}), true
}

// ---- the holder index ----

// copyKey names one copy in flight: object obj to worker dst.
type copyKey struct{ dst, obj string }

// take applies a plan's stages, copyMu held: each peer or direct copy is
// in flight to its destination and holds its source's slot (source).
func (s *Sched[T, I]) take(stages []policy.StageFile) {
	for _, sf := range stages {
		if sf.Mode == policy.StagePeer || sf.Mode == policy.StageDirect {
			s.view.NotePending(sf.Dst, sf.Object)
			s.source(sf.Dst.ID, sf.Object, sf.Src)
		}
	}
}

// source notes dst's copy of obj as coming from src, whose transfer slot
// it takes — or, with src nil, from the engine's own link, one of the
// view's ManagerSends. copyMu held for a peer.
func (s *Sched[T, I]) source(dst, obj string, src *policy.WorkerView) {
	if src != nil {
		src.TransfersOut++
	} else {
		s.view.ManagerSends++
	}
	s.sources[copyKey{dst, obj}] = src
}

// unsource ends the record of dst's copy of obj, returning its slot to
// src, the peer that served it (peer), or to the manager; ok reports that
// there was a record. copyMu held.
func (s *Sched[T, I]) unsource(dst, obj string) (src *policy.WorkerView, peer, ok bool) {
	k := copyKey{dst, obj}
	if src, ok = s.sources[k]; !ok {
		return nil, false, false
	}
	delete(s.sources, k)
	if src == nil {
		s.view.ManagerSends = max(s.view.ManagerSends-1, 0)
		return nil, false, true
	}
	src.TransfersOut = max(src.TransfersOut-1, 0)
	return src, true, true
}

// release settles the slot of worker's copy that ack answers, and reports
// whether a peer served it: by the copy's record or, for an ack no record
// answers (a duplicate), by the source the worker echoes — which gets its
// slot back unless it has none out or holds no replica of the object any
// more (it died). A source with a slot back is one again: what waits here
// on an object it holds looks again. copyMu held.
func (s *Sched[T, I]) release(worker string, ack proto.FileAck) (peer bool) {
	src, peer, ok := s.unsource(worker, ack.ID)
	if !ok && ack.Source != "" {
		if src, peer = s.p.holders[ack.ID][ack.Source], true; src != nil {
			src.TransfersOut = max(src.TransfersOut-1, 0)
		}
	}
	if src != nil && len(s.waiting) > 0 {
		for _, obj := range core.SortedKeys(s.waiting) {
			if src.Files[obj] {
				s.FileAcked(obj)
			}
		}
	}
	return peer
}

// note records a confirmed replica of obj on wv in the holder index.
func (s *Sched[T, I]) note(wv *policy.WorkerView, obj string) {
	if wv.Files[obj] {
		return
	}
	s.p.copyMu.Lock()
	s.view.NoteReplica(wv, obj)
	s.p.copyMu.Unlock()
}

// resolve has the shell carry out a ref resolve of obj onto wv, and notes
// the copy it sent in flight. Ref copies hold no slot: the workers' serve
// concurrency bounds them, not the cap N.
func (s *Sched[T, I]) resolve(wv *policy.WorkerView, obj, name string, d policy.ResolveDecision) bool {
	if !s.shell.Resolve(wv.ID, obj, name, d) {
		return false
	}
	s.view.NotePending(wv, obj)
	return true
}

// remove takes worker out of the view — its replicas out of the holder
// index, its instances, its ring position, its copies in flight, each
// source getting its slot back — and returns the objects whose copies to
// it were cleared.
func (s *Sched[T, I]) remove(worker string) []string {
	s.p.copyMu.Lock()
	defer s.p.copyMu.Unlock()
	_, cleared := s.view.RemoveWorker(s.view.Workers[worker])
	for _, obj := range cleared {
		s.unsource(worker, obj)
	}
	return cleared
}

// Source is where worker's copy of obj in flight comes from: the peer
// serving it, or "" for the engine's own link; ok is false when no stage
// or restage sent one (a ref copy, or none in flight). Shard lock held.
func (s *Sched[T, I]) Source(worker, obj string) (src string, ok bool) {
	wv, ok := s.sources[copyKey{worker, obj}]
	if wv != nil {
		src = wv.ID
	}
	return src, ok
}

// Holders counts the workers holding a confirmed replica of obj.
func (p *Plane[T, I]) Holders(obj string) int {
	p.copyMu.Lock()
	defer p.copyMu.Unlock()
	return len(p.holders[obj])
}

// Alternates lists up to two holders of obj besides a fetch's source src
// and its destination dst, which the fetch may retry on by itself.
func (p *Plane[T, I]) Alternates(obj, src, dst string) []string {
	p.copyMu.Lock()
	defer p.copyMu.Unlock()
	return policy.Alternates(p.holders[obj], src, dst)
}

// Quiescent verifies the plane at rest: no tenant holds queued specs or
// quota, no shard holds a spec queued, in flight or backing off, or a copy
// in flight, and no worker serves a transfer.
func (p *Plane[T, I]) Quiescent() error {
	if p.tenants != nil {
		p.tenantMu.Lock()
		err := p.tenants.Quiescent()
		p.tenantMu.Unlock()
		if err != nil {
			return err
		}
	}
	for i, s := range p.Shards {
		s.mu.Lock()
		err := s.quiescent(i)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// quiescent is Quiescent for shard i, its lock held.
func (s *Sched[T, I]) quiescent(i int) error {
	if queued, backoff := len(s.q)+s.invs, len(s.backoff); queued+s.running+backoff != 0 {
		return fmt.Errorf("shard %d still holds %d specs queued, %d in flight and %d backing off", i, queued, s.running, backoff)
	}
	if n := len(s.view.PendingCopies); n != 0 {
		return fmt.Errorf("shard %d still has copies of %d objects in flight", i, n)
	}
	s.p.copyMu.Lock()
	defer s.p.copyMu.Unlock()
	for _, w := range s.view.Sorted {
		if w.TransfersOut != 0 {
			return fmt.Errorf("worker %s still serves %d transfers", w.ID, w.TransfersOut)
		}
	}
	return nil
}

// Trace is an engine's decision trace in its three parts: the tenant
// stream, the ref stream, and each shard's own.
type Trace struct {
	Tenants, Refs []policy.Decision
	Shards        [][]policy.Decision
}

// All is the whole trace: the tenant stream, then the ref stream — each
// global, each recorded once — then the shard traces concatenated in
// shard order. Within a shard the trace is its own decision order; across
// shards none is defined (the shards are independent loops), so the
// concatenation pins one.
func (t Trace) All() []policy.Decision {
	out := append(slices.Clip(t.Tenants), t.Refs...)
	for _, s := range t.Shards {
		out = append(out, s...)
	}
	return out
}

// Trace copies out what every recorder holds; empty parts unless the
// plane was built with Config.Trace.
func (p *Plane[T, I]) Trace() Trace {
	t := Trace{Shards: make([][]policy.Decision, len(p.Shards))}
	p.tenantMu.Lock()
	t.Tenants = p.tenants.Decisions()
	p.tenantMu.Unlock()
	p.refMu.Lock()
	if p.refRec != nil {
		t.Refs = slices.Clone(p.refRec.Decisions)
	}
	p.refMu.Unlock()
	for i, s := range p.Shards {
		s.mu.Lock()
		if s.rec != nil {
			t.Shards[i] = slices.Clone(s.rec.Decisions)
		}
		s.mu.Unlock()
	}
	return t
}
