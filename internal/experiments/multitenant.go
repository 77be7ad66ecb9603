package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
)

// BurstyMultiTenant exercises the multi-tenant submission plane
// (DESIGN.md §14) beyond anything the paper measures: three tenants
// with independent Poisson arrival processes — a steady heavy tenant, a
// lightly-loaded interactive tenant, and a front-loaded burst arriving
// faster than the cluster can absorb — share one L3 cluster through
// weighted fair-share dispatch, quota-gated admission, and load
// shedding. Execution times are heavy-tailed (log-normal draws), so
// stragglers make fairness matter: without the plane the burst would
// bury the interactive tenant's queue.
func BurstyMultiTenant(opts Options) *Report {
	heavyN := opts.scale(4000)
	lightN := opts.scale(500)
	burstN := opts.scale(1500)
	n := heavyN + lightN + burstN
	rep := &Report{ID: "multitenant-bursty", Title: fmt.Sprintf("Bursty multi-tenant fair share, %d invocations, L3, 24 workers", n)}

	// Heavy-tailed per-invocation execution: log-normal with a 3 s
	// median and sigma 1.2 — a fat right tail (p99 ~ 49 s) instead of
	// the LNNI cost model's bounded draws.
	rng := newExpRNG(opts.seed())
	draws := make([]float64, n)
	for i := range draws {
		draws[i] = rng.LogNormal(3.0, 1.2)
	}

	cfg := sim.Config{
		App: apps.LNNI(), Level: core.L3,
		Workers: 24, SlotsPerWorker: 4,
		Units: 16, Seed: opts.seed(), PeerTransfers: true,
		ExecDraws: draws, DropTimes: true,
		Tenants: []core.TenantSpec{
			// The steady bulk tenant: double weight, quota well under
			// its appetite, so its backlog lives in the plane queue.
			{Name: "heavy", Weight: 2, Quota: 48},
			// The interactive tenant: unbounded but light — the plane
			// must keep serving it through everyone else's pressure.
			{Name: "light", Weight: 2},
			// The burst: arrives ~10x faster than it drains, with a
			// tight queue bound — admission control sheds the overflow
			// and throttle marks the pre-shed pressure band.
			{Name: "burst", Weight: 1, Quota: 16, MaxQueue: 24, ThrottleAt: 12},
		},
		TenantRates:       []float64{12, 2, 60},
		TenantInvocations: []int{heavyN, lightN, burstN},
	}
	r := sim.Run(cfg)

	served := n - r.SubmitsShed
	rep.Rows = append(rep.Rows,
		Row{Label: "execution time", Measured: r.TotalTime, Unit: "s"},
		Row{Label: "invocations served", Measured: float64(served), Unit: ""},
		Row{Label: "submissions shed (burst overflow)", Measured: float64(r.SubmitsShed), Unit: ""},
		Row{Label: "submissions throttled", Measured: float64(r.SubmitsThrottled), Unit: ""},
		Row{Label: "shed fraction of burst", Measured: 100 * float64(r.SubmitsShed) / float64(burstN), Unit: "%"},
		Row{Label: "libraries deployed", Measured: float64(r.LibsDeployed), Unit: ""},
	)
	return rep
}
