// Tenant-plane fixture, clean form: the registry maps tenant names to
// dense indices once, and every order-sensitive walk runs over the
// index-ordered slice — the shape the real submission plane uses.
package manager

import "repro/internal/core"

type queuedSpecs struct {
	specs []int64
}

// DrainTenants walks queues in registry (slice) order; the name map is
// only a lookup table.
func DrainTenants(byName map[string]int, queues []*queuedSpecs) []int64 {
	var out []int64
	for _, q := range queues {
		out = append(out, q.specs...)
	}
	_ = byName["lookup-only"]
	return out
}

// QuotaReport iterates tenant names sorted.
func QuotaReport(inflight map[string]int) []string {
	var over []string
	for _, tenant := range core.SortedKeys(inflight) {
		if inflight[tenant] > 0 {
			over = append(over, tenant)
		}
	}
	return over
}
