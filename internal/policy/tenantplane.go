package policy

import (
	"fmt"

	"repro/internal/core"
)

// TenantPlane is the multi-tenant submission plane (DESIGN.md §14), the
// one implementation under every engine: the tenant registry, each
// tenant's FIFO of admitted-but-unreleased items, the accounting the
// pure decisions above read, and the trace of every admit verdict and
// fair-share pick. T is whatever the engine queues for a shard — the
// plane never looks inside an item. It holds no lock and starts no
// goroutine: the manager serializes calls under its plane mutex, the
// simulator drivers are single-threaded.
type TenantPlane[T any] struct {
	tenants []planeTenant[T]
	// states aliases each tenant's TenantState in registry order — the
	// slice the pure policy calls take.
	states []*TenantState
	byName map[string]int
	rec    *Recorder
}

type planeTenant[T any] struct {
	state TenantState
	queue core.FIFO[T]
	// released counts the items released so far: the tenant's routing
	// cursor, handed to the engine with each item.
	released int64
	// Cumulative breakdown for Stats.
	submits, shed, throttled, done int64
}

// Route is an engine's hand-off for one item the fair-share drain
// released: tenant names its owner and seq is how many items that
// tenant had released before this one, so an engine can spread one
// tenant's burst over its shards whatever else is being submitted.
type Route[T any] func(item T, tenant string, seq int64)

// TenantStat is one tenant's submission-plane breakdown: cumulative
// admission outcomes plus a point-in-time view of its queue depth and
// quota occupancy.
type TenantStat struct {
	Name      string
	Weight    int
	Submits   int64 // submissions entering admission control
	Shed      int64 // rejected outright (queue bound hit)
	Throttled int64 // accepted with a backpressure verdict
	Done      int64 // final results delivered (quota units returned)
	Queued    int   // waiting in the plane queue right now
	InFlight  int   // released into the engine, not yet resolved
	Quota     int   // configured in-flight+queued bound (0 = unbounded)
	MaxQueue  int   // configured queue bound (0 = unbounded)
}

// NewTenantPlane builds the plane over the normalized tenant registry,
// recording into rec (nil records nothing).
func NewTenantPlane[T any](specs []core.TenantSpec, rec *Recorder) *TenantPlane[T] {
	norm := core.NormalizeTenants(specs, MaxTenantWeight)
	p := &TenantPlane[T]{
		tenants: make([]planeTenant[T], len(norm)),
		byName:  make(map[string]int, len(norm)),
		rec:     rec,
	}
	for i, ts := range norm {
		p.tenants[i].state.Spec = ts
		p.states = append(p.states, &p.tenants[i].state)
		p.byName[ts.Name] = i
	}
	return p
}

// Submit runs one submission through admission control and, unless it
// is shed, queues it and releases whatever is now eligible, in
// fair-share order, through route. released counts those hand-offs.
// known is false for an unregistered tenant: nothing happened, and the
// caller submits the item directly (unknown tenants degrade to the
// single-tenant path rather than failing).
func (p *TenantPlane[T]) Submit(tenant string, item T, route Route[T]) (d AdmitDecision, released int, known bool) {
	ti, known := p.byName[tenant]
	if !known {
		return d, 0, false
	}
	t := &p.tenants[ti]
	t.submits++
	d = AdmitSubmit(&t.state)
	p.rec.Record(TraceAdmit(tenant, d))
	switch d.Verdict {
	case AdmitShed:
		t.shed++
		return d, 0, true
	case AdmitThrottle:
		t.throttled++
	}
	NoteQueued(p.states, &t.state)
	t.queue.Push(item)
	return d, p.drain(route), true
}

// Release returns one unit of a tenant's in-flight capacity — once per
// final result of a plane-admitted item, success or failure — and
// releases whatever the freed quota unblocks. An unregistered (or
// empty) tenant is a no-op.
func (p *TenantPlane[T]) Release(tenant string, route Route[T]) (released int) {
	ti, known := p.byName[tenant]
	if !known {
		return 0
	}
	t := &p.tenants[ti]
	t.done++
	if t.state.InFlight > 0 {
		t.state.InFlight--
	}
	return p.drain(route)
}

// drain releases queued items until no tenant is eligible: the pure
// batch plan picks the order, and each picked tenant's queue head goes
// to route with the tenant's cursor.
func (p *TenantPlane[T]) drain(route Route[T]) int {
	picks := PlanSubmitBatch(p.states, 0, p.rec)
	for _, ti := range picks {
		t := &p.tenants[ti]
		item, _ := t.queue.Pop()
		seq := t.released
		t.released++
		route(item, t.state.Spec.Name, seq)
	}
	return len(picks)
}

// Stats returns the per-tenant breakdown in registry (sorted-name)
// order.
func (p *TenantPlane[T]) Stats() []TenantStat {
	out := make([]TenantStat, len(p.tenants))
	for i := range p.tenants {
		t := &p.tenants[i]
		out[i] = TenantStat{
			Name:      t.state.Spec.Name,
			Weight:    t.state.Spec.Weight,
			Submits:   t.submits,
			Shed:      t.shed,
			Throttled: t.throttled,
			Done:      t.done,
			Queued:    t.state.Queued,
			InFlight:  t.state.InFlight,
			Quota:     t.state.Spec.Quota,
			MaxQueue:  t.state.Spec.MaxQueue,
		}
	}
	return out
}

// Quiescent verifies the plane at rest: no tenant has queued items or
// unreleased in-flight capacity.
func (p *TenantPlane[T]) Quiescent() error {
	for i := range p.tenants {
		st := &p.tenants[i].state
		if st.Queued != 0 {
			return fmt.Errorf("tenant %q still has %d specs queued in the submission plane", st.Spec.Name, st.Queued)
		}
		if st.InFlight != 0 {
			return fmt.Errorf("tenant %q still holds %d in-flight quota units", st.Spec.Name, st.InFlight)
		}
	}
	return nil
}

// Decisions returns a copy of the plane's recorded admission/drain
// trace; nil for a nil plane or one built without a recorder.
func (p *TenantPlane[T]) Decisions() []string {
	if p == nil || p.rec == nil {
		return nil
	}
	return append([]string(nil), p.rec.Decisions...)
}
