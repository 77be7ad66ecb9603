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

// ---- owner threading through the pending pool ----

// pushOwner appends one admitted invocation's identity to the pool's
// owner FIFO.
func (st *state) pushOwner(ref specRef) { st.owners.Push(ref) }

// popOwner removes the FIFO head. An empty FIFO yields the zero ref —
// an untracked spec — rather than panicking.
func (st *state) popOwner() specRef {
	ref, _ := st.owners.Pop()
	return ref
}

// stampOwner assigns the next placed invocation's identity to the slot
// in replay runs: the manager pops its pending queue's head at every
// recorded placement, so the replay pops the owner FIFO at the same
// points — execReady and the deploy-ack placement in markLibReady.
func (st *state) stampOwner(sl *slot) {
	if st.trackOwners && st.replay {
		ref := st.popOwner()
		sl.owner, sl.tenant = ref.id, ref.tenant
	}
}

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
	st.plane = policy.NewTenantPlane[simIntake](st.cfg.Tenants, st.rec)
	st.trackOwners = true
	st.pending = 0
	st.arrivalsLeft = make([]int, len(st.cfg.Tenants))
	for i := range st.cfg.Tenants {
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
	st.S.After(st.rng.Exp(1/rate), func() { st.arrive(i) })
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
	if _, _, known := st.plane.Submit(tenant, simIntake{ref: ref}, st.routeTimed); !known {
		st.routeTimed(simIntake{ref: specRef{id: ref.id}}, "", 0)
	}
	st.tryDispatch()
	if st.arrivalsLeft[i] > 0 {
		st.scheduleArrival(i)
	}
}

// routeTimed is the timed simulator's hand-off from the plane: every
// fair-share-released spec joins the pending pool, and the caller's
// tryDispatch picks it up.
func (st *state) routeTimed(it simIntake, _ string, _ int64) {
	st.pending++
	st.pushOwner(it.ref)
}
