package shardplane

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/policy"
)

// The plane's two global decision streams (DESIGN.md §12), each one
// policy value behind a leaf mutex, with a recorder of its own, owned here
// for both engines:
//
//   - the tenant stream (DESIGN.md §14): policy.TenantPlane — admission
//     control, the tenants' plane queues, the weighted fair-share drain
//     into the shards' intakes (Route), and the quota a final result
//     returns;
//   - the ref stream (DESIGN.md §15): policy.RefTable — the catalog of
//     results that stayed on their producers, with the ownership
//     transfers, spills, resolves, promotes and rehomes over it.
//
// The plane's passes and event methods (events.go) call these; an engine
// keeps the transport, sending the spill, adopt and fetch messages its
// Shell is handed (sim.Replay drops them: they carry no state). Both
// mutexes are leaves, taken under a shard lock or none: under tenantMu
// only Route runs (lock-free posts), never a shard lock or a wake — the
// shards a drain fed wake at WakeFed, or at the next wake-loop exit on
// paths that hold a shard lock.
//
// Determinism: each stream is written in the order its mutex is taken.
// Where events arrive one at a time — the differentials at any shard
// count, the golden pipeline — that is the event order, so both engines
// write the same streams. A live multi-shard manager's handlers race for
// the mutexes, and its streams are one valid serialization, not a
// reproducible one.

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

// Quiescent verifies the plane at rest: no tenant holds queued specs or
// quota, and no shard holds a spec queued, in flight or backing off.
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
		queued, running, backoff := len(s.q)+s.invs, s.running, len(s.backoff)
		s.mu.Unlock()
		if queued+running+backoff != 0 {
			return fmt.Errorf("shard %d still holds %d specs queued, %d in flight and %d backing off", i, queued, running, backoff)
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
