// Tenant-plane fixture: draining tenant-keyed maps by raw iteration —
// the drain order (and thus the decision trace) would differ run to
// run.
package manager

type queuedSpecs struct {
	specs []int64
}

func DrainTenants(queues map[string]*queuedSpecs) []int64 {
	var out []int64
	for _, q := range queues { // want `map iteration order is nondeterministic`
		out = append(out, q.specs...)
	}
	return out
}

func QuotaReport(inflight map[string]int) []string {
	var over []string
	for tenant, n := range inflight { // want `map iteration order is nondeterministic`
		if n > 0 {
			over = append(over, tenant)
		}
	}
	return over
}
