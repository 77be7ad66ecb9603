package manager

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// TestFairShareNoStarvation is the bounded-wait guarantee behind the
// submission plane: a tenant saturating the cluster cannot starve a
// light one. A heavy tenant floods 200 tasks through a single-slot
// worker, a light equal-weight tenant then submits 20; the virtual-time
// fair share must interleave the light tenant's specs from its first
// eligible drain — never banking the heavy tenant's head start as
// credit (catchUpVTime) — so the light tenant drains in a window
// proportional to its share, not after the flood.
func TestFairShareNoStarvation(t *testing.T) {
	m := New(Options{
		DecisionTrace: true,
		Shards:        1,
		Tenants: []core.TenantSpec{
			{Name: "heavy", Weight: 1, Quota: 2},
			{Name: "light", Weight: 1, Quota: 2},
		},
	})
	w := &workerState{
		id:         "w0",
		hello:      proto.Hello{WorkerID: "w0", Resources: core.Resources{Cores: 1}},
		conn:       linkConn(256),
		ackWaiters: map[string]waiters{},
	}
	if !m.adoptWorker(w) {
		t.Fatal("adoptWorker failed")
	}
	const heavyN, lightN = 200, 20
	for i := 0; i < heavyN; i++ {
		m.Submit(&core.TaskSpec{Script: "1", Resources: core.Resources{Cores: 1}, TenantID: "heavy"})
	}
	for i := 0; i < lightN; i++ {
		m.Submit(&core.TaskSpec{Script: "1", Resources: core.Resources{Cores: 1}, TenantID: "light"})
	}

	// Serial completions: wait for the single slot's dispatch, complete
	// it, repeat. Every completion returns a quota unit, and the drain
	// it triggers is the fair-share decision under test.
	s := m.shardFor(w.id)
	next := func() (int64, bool) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			drainMsgs(w)
			s.mu.Lock()
			best := int64(-1)
			if runs := s.sched.Running(w.id); len(runs) > 0 {
				best = runs[0].ID()
			}
			s.mu.Unlock()
			if best >= 0 {
				return best, true
			}
			time.Sleep(20 * time.Microsecond)
		}
		return 0, false
	}
	for done := 0; done < heavyN+lightN; done++ {
		id, ok := next()
		if !ok {
			t.Fatalf("dispatch stalled after %d completions", done)
		}
		s.onResult(w, core.Result{ID: id, Ok: true, Value: []byte("x")})
	}
	if err := m.CheckQuiescence(); err != nil {
		t.Fatalf("not quiescent after drain: %v", err)
	}

	// Parse the plane trace's fair-share picks and bound the light
	// tenant's wait: once light is eligible, no more than a few heavy
	// picks may separate consecutive light picks (equal weights should
	// alternate; 3 leaves slack for quota-release batching), and the
	// whole light queue must drain in a window proportional to its
	// share — not trail the flood.
	var picks []string
	for _, d := range m.Trace().Tenants {
		if d.Kind == policy.KindTenant {
			picks = append(picks, d.Tenant)
		}
	}
	if len(picks) != heavyN+lightN {
		t.Fatalf("plane released %d specs, want %d", len(picks), heavyN+lightN)
	}
	firstLight, lastLight, lightSeen, run, maxRun := -1, -1, 0, 0, 0
	for i, p := range picks {
		if p == "light" {
			if firstLight < 0 {
				firstLight = i
			}
			lastLight = i
			lightSeen++
			run = 0
			continue
		}
		if firstLight >= 0 && lightSeen < lightN {
			run++
			if run > maxRun {
				maxRun = run
			}
		}
	}
	if firstLight < 0 {
		t.Fatal("light tenant never picked")
	}
	if maxRun > 3 {
		t.Errorf("light tenant starved: %d consecutive heavy picks between light picks (want <= 3)", maxRun)
	}
	if window := lastLight - firstLight; window > 3*lightN {
		t.Errorf("light tenant's %d specs took a %d-pick window to drain (want <= %d)", lightN, window, 3*lightN)
	}
}
