package policy

import (
	"repro/internal/core"
)

// The multi-tenant submission surface (DESIGN.md §14): every admission
// and fair-share decision the submission plane makes lives here as a
// pure function over explicit TenantState. TenantPlane (tenantplane.go)
// is their one caller: it owns the queues and the accounting, and both
// engines drive it.
//
// Fair share generalizes internal/event/fairshare.go's virtual-time
// model into integer arithmetic: each tenant carries a virtual time
// that advances by vtScale/weight per drained spec, and the next spec
// drained always belongs to the backlogged tenant with the smallest
// virtual time (ties break on tenant index — name order, pinned by
// core.NormalizeTenants). Integer virtual time makes the trace
// portable: no float formatting, no epsilon drift between engines.

// MaxTenantWeight bounds fair-share weights. vtScale is divisible by
// every weight in [1, MaxTenantWeight], so per-dispatch virtual-time
// increments are exact integers and weighted shares are exact ratios.
const (
	MaxTenantWeight = 16
	vtScale         = 720720 // lcm(1..16) = 720720
)

// TenantState is one tenant's live accounting in the submission plane.
// TenantPlane owns the struct; every mutation goes through the pure
// helpers below.
type TenantState struct {
	Spec core.TenantSpec
	// Queued counts specs waiting in the tenant's plane queue (admitted
	// but not yet released to a shard).
	Queued int
	// InFlight counts specs released into the engine and not yet
	// finally resolved (queued in a shard, dispatched, or retrying).
	// Quota gates on it.
	InFlight int
	// VTime is the tenant's fair-share virtual time: total drained
	// service normalized by weight. See chargeDispatch / catchUpVTime.
	VTime int64
}

// weight returns the clamped fair-share weight.
func (t *TenantState) weight() int {
	w := t.Spec.Weight
	if w < 1 {
		w = 1
	}
	if w > MaxTenantWeight {
		w = MaxTenantWeight
	}
	return w
}

// AdmitVerdict is the submission plane's answer to one submit.
type AdmitVerdict int

const (
	// AdmitAccept queues the spec normally.
	AdmitAccept AdmitVerdict = iota
	// AdmitThrottle queues the spec but flags backpressure: the tenant
	// is over its throttle mark or quota and should slow down.
	AdmitThrottle
	// AdmitShed rejects the spec outright: it fails immediately with a
	// non-retryable result instead of queueing.
	AdmitShed
)

func (v AdmitVerdict) String() string {
	switch v {
	case AdmitThrottle:
		return "throttle"
	case AdmitShed:
		return "shed"
	default:
		return "accept"
	}
}

// AdmitDecision is one admission-control verdict with its reason — the
// reason is part of the recorded trace, so overload behavior is as
// replayable as placement.
type AdmitDecision struct {
	Verdict AdmitVerdict
	Reason  string
}

// admitSubmit decides one submission against the tenant's current
// accounting, in strict precedence order: a full plane queue sheds,
// quota pressure throttles, a deep queue throttles, everything else is
// accepted. Pure — the caller applies the queue/in-flight updates.
func admitSubmit(t *TenantState) AdmitDecision {
	if t.Spec.MaxQueue > 0 && t.Queued >= t.Spec.MaxQueue {
		return AdmitDecision{Verdict: AdmitShed, Reason: "queue-full"}
	}
	if t.Spec.Quota > 0 && t.InFlight+t.Queued >= t.Spec.Quota {
		return AdmitDecision{Verdict: AdmitThrottle, Reason: "quota-pressure"}
	}
	if t.Spec.ThrottleAt > 0 && t.Queued >= t.Spec.ThrottleAt {
		return AdmitDecision{Verdict: AdmitThrottle, Reason: "queue-pressure"}
	}
	return AdmitDecision{Verdict: AdmitAccept, Reason: "ok"}
}

// nextTenant picks the tenant the plane drains next: among tenants
// with queued work and quota headroom, the one with the smallest
// virtual time; ties break on the lowest index. Returns -1 when no
// tenant is eligible. Pure — planSubmitBatch applies the accounting.
func nextTenant(ts []*TenantState) int {
	best := -1
	for i, t := range ts {
		if t.Queued == 0 {
			continue
		}
		if t.Spec.Quota > 0 && t.InFlight >= t.Spec.Quota {
			continue
		}
		if best < 0 || t.VTime < ts[best].VTime {
			best = i
		}
	}
	return best
}

// chargeDispatch advances a tenant's virtual time for one drained
// spec: vtScale/weight, so a weight-w tenant's clock runs 1/w as fast
// and it drains w specs per competitor's one when both are backlogged.
func chargeDispatch(t *TenantState) {
	t.VTime += int64(vtScale / t.weight())
}

// catchUpVTime forwards a tenant's virtual time to the backlog
// frontier: the smallest virtual time among *other* tenants with
// queued work, or the largest virtual time anywhere when none are
// backlogged. A tenant going idle would otherwise bank credit — its
// stale clock would let a later burst monopolize the drain until the
// clock caught up. Never moves a clock backwards.
func catchUpVTime(ts []*TenantState, t *TenantState) {
	frontier := int64(0)
	found := false
	for _, o := range ts {
		if o == t || o.Queued == 0 {
			continue
		}
		if !found || o.VTime < frontier {
			frontier = o.VTime
			found = true
		}
	}
	if !found {
		for _, o := range ts {
			if o.VTime > frontier {
				frontier = o.VTime
			}
		}
	}
	if frontier > t.VTime {
		t.VTime = frontier
	}
}

// noteQueued accounts one accepted submission: on the tenant's
// idle→backlogged transition its clock first catches up to the
// frontier (no banked credit), then the queue deepens by one.
func noteQueued(ts []*TenantState, t *TenantState) {
	if t.Queued == 0 {
		catchUpVTime(ts, t)
	}
	t.Queued++
}

// planSubmitBatch drains the plane: repeatedly pick the fair-share
// next tenant, record the pick, and move one of its specs from queued
// to in flight, until no tenant is eligible or max picks are made
// (max <= 0 means unbounded). Returns the picked tenant indexes in
// drain order; TenantPlane hands each tenant's queue head to the
// engine in exactly this order.
func planSubmitBatch(ts []*TenantState, max int, rec *Recorder) []int {
	var out []int
	for max <= 0 || len(out) < max {
		i := nextTenant(ts)
		if i < 0 {
			break
		}
		t := ts[i]
		rec.Record(Decision{Kind: KindTenant, Tenant: t.Spec.Name, VTime: t.VTime, Queued: t.Queued})
		t.Queued--
		t.InFlight++
		chargeDispatch(t)
		out = append(out, i)
	}
	return out
}
