package sim

import "repro/internal/policy"

// specRef identifies one admitted invocation across the plane and the
// slot it eventually binds to: the manager-side spec ID plus the
// owning tenant, so quota releases on completion name the same tenant
// in both engines.
type specRef struct {
	id     int64
	tenant string
}

func (r specRef) ID() int64      { return r.id }
func (r specRef) Tenant() string { return r.tenant }

// ---- the timed simulator's tenant mode ----

// startTenantArrivals switches a timed run into tenant mode: the
// submission plane forms over Config.Tenants, the batch-sized pending
// pool empties, and each tenant gets an independent Poisson arrival
// process (exponential inter-arrival gaps from the run's RNG) feeding
// admission control.
func (st *state) startTenantArrivals() {
	if len(st.cfg.Tenants) == 0 || st.replay {
		return
	}
	st.plane = policy.NewTenantPlane[specRef](st.cfg.Tenants, st.rec)
	st.pending = 0
	st.arrivalsLeft = make([]int, len(st.cfg.Tenants))
	st.arrivals = make([]func(), len(st.cfg.Tenants))
	for i := range st.cfg.Tenants {
		st.arrivals[i] = func() { st.arrive(i) }
		if i < len(st.cfg.TenantInvocations) {
			st.arrivalsLeft[i] = st.cfg.TenantInvocations[i]
		}
		if st.arrivalsLeft[i] > 0 {
			st.scheduleArrival(i)
		}
	}
}

// scheduleArrival queues tenant i's next arrival one exponential gap
// from now.
func (st *state) scheduleArrival(i int) {
	rate := 1.0
	if i < len(st.cfg.TenantRates) && st.cfg.TenantRates[i] > 0 {
		rate = st.cfg.TenantRates[i]
	}
	st.S.After(st.rng.Exp(1/rate), st.arrivals[i])
}

// arrive submits tenant i's next invocation through admission control:
// accepted specs queue in the plane and drain in fair-share order into
// the pending pool; shed specs vanish (counted); unregistered tenant
// names degrade to the direct single-tenant path, as in the manager.
func (st *state) arrive(i int) {
	st.arrivalsLeft[i]--
	st.nextSpecID++
	tenant := st.cfg.Tenants[i].Name
	ref := specRef{id: st.nextSpecID, tenant: tenant}
	if _, _, known := st.plane.Submit(tenant, ref, st.routeTimed); !known {
		st.routeTimed(specRef{id: ref.id}, "", 0)
	}
	st.tryDispatch()
	if st.arrivalsLeft[i] > 0 {
		st.scheduleArrival(i)
	}
}

// routeTimed is the timed simulator's hand-off from the plane: every
// fair-share-released spec joins the pending pool, and the caller's
// tryDispatch picks it up.
func (st *state) routeTimed(ref specRef, _ string, _ int64) {
	st.pending++
	st.owners.Push(ref)
}
