package policy

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func tenants(specs ...core.TenantSpec) []*TenantState {
	norm := core.NormalizeTenants(specs, MaxTenantWeight)
	out := make([]*TenantState, len(norm))
	for i, s := range norm {
		out[i] = &TenantState{Spec: s}
	}
	return out
}

func TestAdmitSubmitPrecedence(t *testing.T) {
	ts := &TenantState{Spec: core.TenantSpec{Name: "a", Quota: 4, MaxQueue: 3, ThrottleAt: 2}}
	if d := admitSubmit(ts); d.Verdict != AdmitAccept || d.Reason != "ok" {
		t.Fatalf("empty tenant: %+v", d)
	}
	// Queue at the throttle mark: accepted but flagged.
	ts.Queued = 2
	if d := admitSubmit(ts); d.Verdict != AdmitThrottle || d.Reason != "queue-pressure" {
		t.Fatalf("at throttle mark: %+v", d)
	}
	// Quota pressure outranks queue pressure.
	ts.InFlight = 2
	if d := admitSubmit(ts); d.Verdict != AdmitThrottle || d.Reason != "quota-pressure" {
		t.Fatalf("quota pressure: %+v", d)
	}
	// A full plane queue sheds regardless of anything else.
	ts.Queued = 3
	if d := admitSubmit(ts); d.Verdict != AdmitShed || d.Reason != "queue-full" {
		t.Fatalf("full queue: %+v", d)
	}
	// Zero-valued bounds never bite.
	open := &TenantState{Spec: core.TenantSpec{Name: "b"}, Queued: 1 << 20, InFlight: 1 << 20}
	if d := admitSubmit(open); d.Verdict != AdmitAccept {
		t.Fatalf("unbounded tenant: %+v", d)
	}
}

func TestNextTenantEligibilityAndTies(t *testing.T) {
	ts := tenants(
		core.TenantSpec{Name: "a", Quota: 1},
		core.TenantSpec{Name: "b"},
		core.TenantSpec{Name: "c"},
	)
	if got := nextTenant(ts); got != -1 {
		t.Fatalf("no queued work: pick %d, want -1", got)
	}
	// Equal virtual time: lowest index wins.
	ts[1].Queued, ts[2].Queued = 1, 1
	if got := nextTenant(ts); got != 1 {
		t.Fatalf("tie: pick %d, want 1", got)
	}
	// Smaller virtual time wins over index.
	ts[2].VTime = -1
	if got := nextTenant(ts); got != 2 {
		t.Fatalf("vtime: pick %d, want 2", got)
	}
	// A tenant at quota is ineligible even with queued work.
	ts[0].Queued, ts[0].InFlight, ts[0].VTime = 5, 1, -100
	if got := nextTenant(ts); got != 2 {
		t.Fatalf("quota-blocked: pick %d, want 2", got)
	}
	ts[0].InFlight = 0
	if got := nextTenant(ts); got != 0 {
		t.Fatalf("quota headroom: pick %d, want 0", got)
	}
}

// TestPlanSubmitBatchWeightedShare drains two backlogged tenants with
// weights 3 and 1 and expects picks in a 3:1 ratio over any window.
func TestPlanSubmitBatchWeightedShare(t *testing.T) {
	ts := tenants(
		core.TenantSpec{Name: "heavy", Weight: 3},
		core.TenantSpec{Name: "light", Weight: 1},
	)
	ts[0].Queued, ts[1].Queued = 40, 40
	rec := &Recorder{}
	picks := planSubmitBatch(ts, 40, rec)
	if len(picks) != 40 {
		t.Fatalf("picks = %d, want 40", len(picks))
	}
	heavy := 0
	for _, i := range picks {
		if i == 0 {
			heavy++
		}
	}
	if heavy != 30 {
		t.Fatalf("heavy picks = %d of 40, want 30 (weight 3:1)", heavy)
	}
	if len(rec.Decisions) != 40 {
		t.Fatalf("recorded %d picks, want 40", len(rec.Decisions))
	}
	// The longest run of consecutive heavy picks is bounded by its
	// weight: fair share interleaves, it does not batch.
	run, maxRun := 0, 0
	for _, i := range picks {
		if i == 0 {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun > 3 {
		t.Fatalf("heavy ran %d consecutive picks, want <= weight 3", maxRun)
	}
}

// TestCatchUpVTimeNoBankedCredit: a tenant idle while a competitor
// drained must not replay its missed share when it returns.
func TestCatchUpVTimeNoBankedCredit(t *testing.T) {
	ts := tenants(core.TenantSpec{Name: "busy"}, core.TenantSpec{Name: "idle"})
	busy, idle := ts[0], ts[1]
	busy.Queued = 100
	planSubmitBatch(ts, 50, nil)
	if busy.VTime != 50*vtScale {
		t.Fatalf("busy vtime = %d, want %d", busy.VTime, 50*vtScale)
	}
	// The idle tenant arrives: its clock catches up to the backlog
	// frontier before queueing, so the next 10 picks alternate instead
	// of going 10-0 to the newcomer.
	for i := 0; i < 5; i++ {
		noteQueued(ts, idle)
	}
	if idle.VTime != busy.VTime {
		t.Fatalf("idle vtime = %d after catch-up, want %d", idle.VTime, busy.VTime)
	}
	picks := planSubmitBatch(ts, 10, nil)
	want := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	if !reflect.DeepEqual(picks, want) {
		t.Fatalf("post-idle picks = %v, want alternating %v", picks, want)
	}
}

// TestCatchUpVTimeAllIdle: with no backlogged competitor the clock
// forwards to the global maximum, never backwards.
func TestCatchUpVTimeAllIdle(t *testing.T) {
	ts := tenants(core.TenantSpec{Name: "a"}, core.TenantSpec{Name: "b"})
	ts[0].VTime = 7 * vtScale
	catchUpVTime(ts, ts[1])
	if ts[1].VTime != 7*vtScale {
		t.Fatalf("vtime = %d, want %d", ts[1].VTime, 7*vtScale)
	}
	catchUpVTime(ts, ts[0])
	if ts[0].VTime != 7*vtScale {
		t.Fatalf("clock moved: %d", ts[0].VTime)
	}
}

// TestPlanSubmitBatchQuotaGate: a quota-blocked tenant's queue rests
// until in-flight capacity returns; the other tenant keeps draining.
func TestPlanSubmitBatchQuotaGate(t *testing.T) {
	ts := tenants(core.TenantSpec{Name: "capped", Quota: 2}, core.TenantSpec{Name: "open"})
	ts[0].Queued, ts[1].Queued = 10, 3
	picks := planSubmitBatch(ts, 0, nil)
	// capped drains 2 (hitting quota), open drains all 3.
	if ts[0].InFlight != 2 || ts[0].Queued != 8 {
		t.Fatalf("capped: inflight %d queued %d, want 2/8", ts[0].InFlight, ts[0].Queued)
	}
	if ts[1].InFlight != 3 || ts[1].Queued != 0 {
		t.Fatalf("open: inflight %d queued %d, want 3/0", ts[1].InFlight, ts[1].Queued)
	}
	if len(picks) != 5 {
		t.Fatalf("picks = %d, want 5", len(picks))
	}
	// One completion releases one slot: exactly one more drain.
	ts[0].InFlight--
	more := planSubmitBatch(ts, 0, nil)
	if !reflect.DeepEqual(more, []int{0}) {
		t.Fatalf("post-release picks = %v, want [0]", more)
	}
}

func TestNormalizeTenants(t *testing.T) {
	got := core.NormalizeTenants([]core.TenantSpec{
		{Name: "z", Weight: 99},
		{Name: "a"},
		{Name: ""},
		{Name: "z", Weight: 2}, // duplicate: first wins
		{Name: "m", Weight: -3},
	}, MaxTenantWeight)
	if len(got) != 3 || got[0].Name != "a" || got[1].Name != "m" || got[2].Name != "z" {
		t.Fatalf("normalize order: %+v", got)
	}
	if got[0].Weight != 1 || got[1].Weight != 1 || got[2].Weight != MaxTenantWeight {
		t.Fatalf("normalize weights: %+v", got)
	}
}
