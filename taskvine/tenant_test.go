package taskvine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
)

// TestDispatchTenantsSmoke drives the live engine through the
// multi-tenant submission plane: four equal-weight tenants round-robin
// a batch of no-op invocations over four real TCP workers, so the
// fair-share drain, the admission accounting and the quota release all
// run with real goroutines on both sides of the plane mutex. `make
// race` runs it under the race detector — the plane's lock discipline
// is part of what it proves.
func TestDispatchTenantsSmoke(t *testing.T) {
	const tenants, perTenant = 4, 64
	var opts Options
	for i := 0; i < tenants; i++ {
		opts.Tenants = append(opts.Tenants, core.TenantSpec{Name: fmt.Sprintf("t%d", i), Weight: 1})
	}
	m := newTestManager(t, 4, opts)
	env, err := m.Exec("def noop(x):\n    return x\n")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("dispatch", LibraryOptions{Slots: 4}, env, "noop")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < tenants*perTenant; j++ {
		if _, err := m.CallTenant(opts.Tenants[j%tenants].Name, "dispatch", "noop", minipy.Int(int64(j))); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(tenants*perTenant, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("invocation %d failed: %s", r.ID, r.Err)
		}
	}
	// A result is delivered before its quota unit goes back, so the
	// plane may trail the last Collect by a moment.
	waitQuiescent(t, m, 10*time.Second)
	stats := m.TenantStats()
	if len(stats) != tenants {
		t.Fatalf("TenantStats has %d tenants, want %d", len(stats), tenants)
	}
	for _, ts := range stats {
		if ts.Submits != perTenant || ts.Done != ts.Submits || ts.Queued != 0 || ts.InFlight != 0 {
			t.Errorf("tenant %s at rest: %+v, want %d submitted and done, nothing queued or in flight", ts.Name, ts, perTenant)
		}
	}
	if got := m.Stats().FairDrains; got != tenants*perTenant {
		t.Errorf("FairDrains = %d, want every one of %d submissions released by the plane", got, tenants*perTenant)
	}
}
