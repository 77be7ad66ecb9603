package policy

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// planeItem is what the test queues: the submitting tenant and that
// tenant's submission number, so FIFO order is checkable at the route.
type planeItem struct {
	tenant string
	n      int
}

// planeModel drives a TenantPlane and keeps the books a shell would:
// what was accepted, what the plane handed over, what is in flight.
type planeModel struct {
	t        *testing.T
	p        *TenantPlane[planeItem]
	rec      *Recorder
	accepted map[string][]int // submission numbers not shed, in order
	routed   map[string][]int // submission numbers handed to route, in order
	inFlight map[string]int
	calls    int // route calls during the current verb
	// admits and picks count the trace lines of each kind among the
	// first seen.
	admits, picks, seen int
}

func newPlaneModel(t *testing.T, specs []core.TenantSpec) *planeModel {
	rec := &Recorder{}
	return &planeModel{
		t: t, p: NewTenantPlane[planeItem](specs, rec), rec: rec,
		accepted: map[string][]int{}, routed: map[string][]int{}, inFlight: map[string]int{},
	}
}

func (m *planeModel) route(it planeItem, tenant string, seq int64) {
	m.t.Helper()
	if it.tenant != tenant {
		m.t.Fatalf("item of tenant %q routed as tenant %q", it.tenant, tenant)
	}
	if want := int64(len(m.routed[tenant])); seq != want {
		m.t.Fatalf("tenant %q: routing cursor %d, want %d", tenant, seq, want)
	}
	m.routed[tenant] = append(m.routed[tenant], it.n)
	m.inFlight[tenant]++
	m.calls++
}

func (m *planeModel) submit(tenant string, n int) {
	m.t.Helper()
	m.calls = 0
	d, released, known := m.p.Submit(tenant, planeItem{tenant, n}, m.route)
	if _, registered := m.p.byName[tenant]; known != registered {
		m.t.Fatalf("Submit(%q) known = %v, registry says %v", tenant, known, registered)
	}
	if released != m.calls {
		m.t.Fatalf("Submit(%q) reported %d released, routed %d", tenant, released, m.calls)
	}
	if known && d.Verdict != AdmitShed {
		m.accepted[tenant] = append(m.accepted[tenant], n)
	}
}

func (m *planeModel) release(tenant string) {
	m.t.Helper()
	m.calls = 0
	m.inFlight[tenant]--
	if released := m.p.Release(tenant, m.route); released != m.calls {
		m.t.Fatalf("Release(%q) reported %d released, routed %d", tenant, released, m.calls)
	}
}

// check holds the plane to its invariants between verbs.
func (m *planeModel) check() {
	m.t.Helper()
	routedTotal, submits := 0, int64(0)
	for i, ts := range m.p.Stats() {
		acc, got := m.accepted[ts.Name], m.routed[ts.Name]
		// Per-tenant FIFO: what was routed is a prefix of what was accepted.
		if len(got) > len(acc) || !slices.Equal(got, acc[:len(got)]) {
			m.t.Fatalf("tenant %q routed %v, accepted %v: not FIFO", ts.Name, got, acc)
		}
		if ts.Queued != len(acc)-len(got) || ts.Queued != m.p.tenants[i].queue.Len() {
			m.t.Fatalf("tenant %q: Queued %d, model %d, queue length %d", ts.Name, ts.Queued, len(acc)-len(got), m.p.tenants[i].queue.Len())
		}
		if ts.InFlight != m.inFlight[ts.Name] {
			m.t.Fatalf("tenant %q: InFlight %d, model %d", ts.Name, ts.InFlight, m.inFlight[ts.Name])
		}
		if ts.Quota > 0 && ts.InFlight > ts.Quota {
			m.t.Fatalf("tenant %q: InFlight %d over Quota %d", ts.Name, ts.InFlight, ts.Quota)
		}
		if ts.MaxQueue > 0 && ts.Queued > ts.MaxQueue {
			m.t.Fatalf("tenant %q: Queued %d over MaxQueue %d", ts.Name, ts.Queued, ts.MaxQueue)
		}
		// The drain runs to a fixed point: nothing waits beside headroom.
		if ts.Queued > 0 && (ts.Quota == 0 || ts.InFlight < ts.Quota) {
			m.t.Fatalf("tenant %q: %d queued with quota headroom (%d of %d in flight)", ts.Name, ts.Queued, ts.InFlight, ts.Quota)
		}
		if ts.Submits != ts.Shed+ts.Done+int64(ts.Queued)+int64(ts.InFlight) {
			m.t.Fatalf("tenant %q: Submits %d != Shed %d + Done %d + Queued %d + InFlight %d",
				ts.Name, ts.Submits, ts.Shed, ts.Done, ts.Queued, ts.InFlight)
		}
		routedTotal += len(got)
		submits += ts.Submits
	}
	for ; m.seen < len(m.rec.Decisions); m.seen++ {
		switch line := m.rec.Decisions[m.seen]; {
		case strings.HasPrefix(line, "admit "):
			m.admits++
		case strings.HasPrefix(line, "tenant pick="):
			m.picks++
		}
	}
	if m.rec.Max == 0 && (m.picks != routedTotal || int64(m.admits) != submits || m.admits+m.picks != m.seen) {
		m.t.Fatalf("trace has %d admit and %d pick lines of %d; %d submits, %d routed",
			m.admits, m.picks, m.seen, submits, routedTotal)
	}
}

// TestTenantPlaneRandomScripts runs seeded random submit/release
// scripts over the differential harness's three tenant shapes (weight
// only; quota + throttle; quota + queue bound), with an empty and an
// unregistered tenant mixed in, and checks the plane's books against
// the model after every verb and at rest.
func TestTenantPlaneRandomScripts(t *testing.T) {
	specs := []core.TenantSpec{
		{Name: "alpha", Weight: 3},
		{Name: "beta", Weight: 1, Quota: 4, ThrottleAt: 6},
		{Name: "gamma", Weight: 2, Quota: 2, MaxQueue: 3, ThrottleAt: 2},
	}
	names := []string{"alpha", "beta", "gamma", "gamma", "", "ghost"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newPlaneModel(t, specs)
		var busy []string // tenants with something in flight, one entry per unit
		for op := 0; op < 2000; op++ {
			// Submissions outrun releases in the first half, so the
			// bounded tenants build queues, throttle and shed; the second
			// half drains them.
			submitPct := 70
			if op >= 1000 {
				submitPct = 40
			}
			if len(busy) == 0 || rng.Intn(100) < submitPct {
				m.submit(names[rng.Intn(len(names))], op)
			} else {
				i := rng.Intn(len(busy))
				m.release(busy[i])
			}
			busy = busy[:0]
			for _, name := range []string{"alpha", "beta", "gamma"} {
				for k := 0; k < m.inFlight[name]; k++ {
					busy = append(busy, name)
				}
			}
			m.check()
		}
		st := m.p.Stats()
		if st[1].Throttled == 0 || st[2].Shed == 0 || st[2].Throttled == 0 {
			t.Fatalf("seed %d: script never pressed the bounds: %+v", seed, st)
		}
		if len(busy) > 0 && m.p.Quiescent() == nil {
			t.Fatalf("seed %d: Quiescent() nil with %d units in flight", seed, len(busy))
		}
		for progress := true; progress; {
			progress = false
			for _, name := range []string{"alpha", "beta", "gamma"} {
				for m.inFlight[name] > 0 {
					m.release(name)
					progress = true
				}
			}
			m.check()
		}
		if err := m.p.Quiescent(); err != nil {
			t.Fatalf("seed %d: everything released, yet: %v", seed, err)
		}
	}
}

// TestTenantPlaneQueueStaysSmallWhenNeverEmpty: a quota-gated tenant
// whose queue always holds one spec — every release lets the waiting
// one through and another arrives — must not keep a backing array as
// long as everything it ever submitted.
func TestTenantPlaneQueueStaysSmallWhenNeverEmpty(t *testing.T) {
	m := newPlaneModel(t, []core.TenantSpec{{Name: "gated", Quota: 1}})
	m.rec.Max = 1        // the trace is not what this measures
	m.submit("gated", 0) // takes the quota unit
	m.submit("gated", 1) // waits
	for n := 2; n < 100002; n++ {
		m.submit("gated", n) // two waiting
		m.release("gated")   // the older one goes; one still waits
	}
	m.check()
	if got := m.routed["gated"]; len(got) != 100001 || got[100000] != 100000 {
		t.Fatalf("routed %d specs ending %v, want 100001 in submission order", len(got), got[len(got)-1:])
	}
	if c := m.p.tenants[0].queue.Cap(); c > 64 {
		t.Fatalf("queue capacity %d after 100000 submit/release pairs with one spec waiting, want <= 64", c)
	}
}
