package manager

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/policy"
)

// The submission plane (DESIGN.md §14) sits in front of the sharded
// dispatch plane: when Options.Tenants is set, every spec carrying a
// TenantID passes admission control, waits in its tenant's bounded
// plane queue, and is released to a shard's lock-free intake in
// weighted fair-share order. All of that is policy.TenantPlane, the
// same value the simulator drives, and the hand-off into the shards is
// shardplane.Plane.Route; submitPlane is the manager's shell around
// them: the mutex, the shed result and the Stats counters.
//
// Locking: the plane mutex is a leaf. Under it the plane only does
// tenant accounting and lock-free intake posts (Route) — never a shard
// lock, never a wake. The shards a drain fed wake after the plane mutex
// is released (WakeFed); on paths that already hold a shard lock (Reject
// inside a schedule pass, crash-requeue exhaustion, library quarantine)
// they wake at the next wake-loop exit, which runs with no locks held.
type submitPlane struct {
	m *Manager

	mu sync.Mutex
	// tenants always gets its own recorder (never a shard's):
	// admissions serialize on the plane mutex while placements
	// serialize on shard locks, so sharing one recorder would race
	// under concurrent use.
	tenants *policy.TenantPlane[dispatch]
}

func newSubmitPlane(m *Manager, specs []core.TenantSpec, traced bool) *submitPlane {
	var rec *policy.Recorder
	if traced {
		rec = &policy.Recorder{}
	}
	return &submitPlane{m: m, tenants: policy.NewTenantPlane[dispatch](specs, rec)}
}

// submit runs one spec through admission control. It reports whether
// the plane consumed the spec: false means the tenant is unregistered
// and the caller should route directly. On shed the spec's failed
// result has already been delivered.
func (p *submitPlane) submit(tenant string, it dispatch, id int64) bool {
	m := p.m
	p.mu.Lock()
	d, released, known := p.tenants.Submit(tenant, it, m.shardPlane.Route)
	p.mu.Unlock()
	if !known {
		return false
	}
	m.ctr.FairDrains.Add(int64(released))
	switch d.Verdict {
	case policy.AdmitThrottle:
		m.ctr.SubmitsThrottled.Add(1)
	case policy.AdmitShed:
		m.ctr.SubmitsShed.Add(1)
		m.ctr.Failures.Add(1)
	}
	m.shardPlane.WakeFed()
	if d.Verdict == policy.AdmitShed {
		m.deliver(core.Result{ID: id, Ok: false,
			Err: fmt.Sprintf("manager: submission shed (%s): tenant %q's plane queue is at its MaxQueue", d.Reason, tenant)})
	}
	return true
}

// release returns one unit of a tenant's in-flight capacity — called
// on every final result delivery for a plane-admitted spec, success
// or failure — and drains any work the freed quota unblocks into the
// shards' intakes, which wake at the next wake-loop exit. A no-op
// without a plane, or for single-tenant work.
func (p *submitPlane) release(tenant string) {
	if p == nil || tenant == "" {
		return
	}
	p.mu.Lock()
	released := p.tenants.Release(tenant, p.m.shardPlane.Route)
	p.mu.Unlock()
	p.m.ctr.FairDrains.Add(int64(released))
}

// specTenant names the tenant of a resolved in-flight spec — empty
// for single-tenant work, so release() is a no-op there.
func specTenant(run *dispatch) string {
	if run.IsTask {
		return run.Task.Spec.t.TenantID
	}
	return run.Inv.Spec.TenantID
}

// TenantStat is one tenant's submission-plane breakdown.
type TenantStat = policy.TenantStat

// TenantStats returns the per-tenant submission-plane breakdown in
// tenant-registry (sorted-name) order. Nil when the plane is off.
func (m *Manager) TenantStats() []TenantStat {
	p := m.plane
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tenants.Stats()
}

// Decisions returns the plane's recorded admission/drain trace.
func (p *submitPlane) Decisions() []policy.Decision {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tenants.Decisions()
}

// checkQuiescence verifies the plane at rest: no tenant has queued
// specs or unreleased in-flight capacity.
func (p *submitPlane) checkQuiescence() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.tenants.Quiescent(); err != nil {
		return fmt.Errorf("manager: %w", err)
	}
	return nil
}
