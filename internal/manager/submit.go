package manager

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/policy"
)

// The submission plane (DESIGN.md §14) sits in front of the sharded
// dispatch plane: when Options.Tenants is set, every spec carrying a
// TenantID passes admission control, waits in its tenant's bounded
// plane queue, and is released to a shard's lock-free intake in
// weighted fair-share order. All of that is policy.TenantPlane, the
// same value the simulator drives; submitPlane is the manager's shell
// around it: the mutex, the hand-off to a shard's intake, the wakes,
// the shed result and the Stats counters.
//
// Locking: the plane mutex is a leaf. Under it the plane only does
// tenant accounting and lock-free intake pushes (shard.pushIntake) —
// never a shard lock, never a wake. Shard wakes happen after the
// plane mutex is released; on paths that already hold a shard lock
// (Reject inside a schedule pass, crash-requeue exhaustion,
// library quarantine) the wakes are parked and flushed by pump() from
// the next wake-loop exit, which runs with no locks held.
type submitPlane struct {
	m *Manager

	mu sync.Mutex
	// tenants always gets its own recorder (never a shard's):
	// admissions serialize on the plane mutex while placements
	// serialize on shard locks, so sharing one recorder would race
	// under concurrent use.
	tenants *policy.TenantPlane[dispatch]
	// fed lists the shards a drain pushed intake onto and nobody has
	// woken yet, in first-fed order; parked makes the empty check one
	// atomic load for pump().
	fed    []int
	parked atomic.Bool
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
	d, released, known := p.tenants.Submit(tenant, it, p.route)
	if !known {
		p.mu.Unlock()
		return false
	}
	wakes := p.takeFedLocked()
	p.mu.Unlock()
	atomic.AddInt64(&m.stats.FairDrains, int64(released))
	switch d.Verdict {
	case policy.AdmitThrottle:
		atomic.AddInt64(&m.stats.SubmitsThrottled, 1)
	case policy.AdmitShed:
		atomic.AddInt64(&m.stats.SubmitsShed, 1)
		atomic.AddInt64(&m.stats.Failures, 1)
	}
	p.wakeShards(wakes)
	if d.Verdict == policy.AdmitShed {
		m.deliver(core.Result{ID: id, Ok: false,
			Err: fmt.Sprintf("manager: submission shed (%s): tenant %q's plane queue is at its MaxQueue", d.Reason, tenant)})
	}
	return true
}

// release returns one unit of a tenant's in-flight capacity — called
// on every final result delivery for a plane-admitted spec, success
// or failure — and drains any work the freed quota unblocks. Callers
// holding a shard lock pass wakeNow=false: the drain still happens
// (intake pushes are lock-free) but the wakes park until pump(). A
// no-op without a plane, or for single-tenant work.
func (p *submitPlane) release(tenant string, wakeNow bool) {
	if p == nil || tenant == "" {
		return
	}
	p.mu.Lock()
	released := p.tenants.Release(tenant, p.route)
	var wakes []int
	if wakeNow {
		wakes = p.takeFedLocked()
	} else {
		p.parked.Store(len(p.fed) > 0)
	}
	p.mu.Unlock()
	atomic.AddInt64(&p.m.stats.FairDrains, int64(released))
	p.wakeShards(wakes)
}

// route pushes one released spec onto its shard's intake stack: a task
// keeps ring-key locality, an invocation follows its tenant's own
// cursor. Caller holds p.mu.
func (p *submitPlane) route(it dispatch, tenant string, seq int64) {
	m := p.m
	var idx int
	if it.IsTask {
		idx = m.shardPlane.KeyShard(it.Task.Key)
	} else {
		idx = m.shardPlane.TenantInvShard(tenant, seq, it.Inv.Lib)
	}
	n := intakeNodePool.Get().(*intakeNode)
	n.spec = it
	m.shards[idx].pushIntake(n)
	if !slices.Contains(p.fed, idx) {
		p.fed = append(p.fed, idx)
	}
}

// takeFedLocked claims every shard waiting for a wake. Caller holds
// p.mu and wakes them after releasing it.
func (p *submitPlane) takeFedLocked() []int {
	wakes := p.fed
	p.fed = nil
	p.parked.Store(false)
	return wakes
}

// wakeShards wakes the drained-to shards. Must be called with no
// locks held: wake may run a schedule pass inline.
func (p *submitPlane) wakeShards(wakes []int) {
	for _, idx := range wakes {
		p.m.shards[idx].sched.Wake()
	}
}

// pump flushes wakes parked by shard-lock-holding release paths. The
// wake-loop exit calls it with no locks held, so a quota release
// performed inside a schedule pass still wakes the shards its drain
// fed — without ever waking under a lock.
func (p *submitPlane) pump() {
	if !p.parked.Load() {
		return
	}
	p.mu.Lock()
	wakes := p.takeFedLocked()
	p.mu.Unlock()
	p.wakeShards(wakes)
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
func (p *submitPlane) Decisions() []string {
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
