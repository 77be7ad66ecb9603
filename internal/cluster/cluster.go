// Package cluster models the paper's evaluation hardware (Table 3 of
// §4.2): five machine groups in a heterogeneous HTCondor pool with
// differing CPU throughput and DRAM, 10 GbE links, and local SATA SSDs.
// Workers in the scale simulator draw their machines from these groups
// in the published proportions.
package cluster

// MachineGroup is one row of Table 3.
type MachineGroup struct {
	Name string
	// CPU is the processor model string.
	CPU string
	// Count is the number of machines of this group used in the runs.
	Count int
	// GFlops is the per-core compute rating the paper lists.
	GFlops float64
	// DRAMGB is the memory capacity.
	DRAMGB int
}

// Machine is one concrete node a worker runs on.
type Machine struct {
	Group  string
	GFlops float64
	DRAMGB int
	// NICBytesPerSec is the 10 GbE link rate.
	NICBytesPerSec float64
	// DiskBytesPerSec is the local SATA SSD rate.
	DiskBytesPerSec float64
}

// Paper machine constants (§4.2).
const (
	NIC10GbE = 10e9 / 8 // 10 Gb/s Ethernet in bytes/s
	SataSSD  = 520e6    // SATA 6 Gb/s SSD effective bytes/s
)

// ReferenceGFlops is the rating the cost model's published timings are
// calibrated against (group 2, the most common machine).
const ReferenceGFlops = 5.4

// Table3 returns the five major machine groups exactly as published.
func Table3() []MachineGroup {
	return []MachineGroup{
		{Name: "g1-epyc7532", CPU: "AMD EPYC 7532 32-Core", Count: 58, GFlops: 4.4, DRAMGB: 256},
		{Name: "g2-epyc7543", CPU: "AMD EPYC 7543 32-Core", Count: 117, GFlops: 5.4, DRAMGB: 256},
		{Name: "g3-xeon6326", CPU: "Intel Xeon Gold 6326", Count: 14, GFlops: 1.9, DRAMGB: 256},
		{Name: "g4-xeon6326", CPU: "Intel Xeon Gold 6326", Count: 7, GFlops: 1.9, DRAMGB: 256},
		{Name: "g5-xeon4316", CPU: "Intel Xeon Silver 4316", Count: 5, GFlops: 1.9, DRAMGB: 256},
	}
}

// Sample draws n machines from the groups proportionally to their
// counts (largest-remainder apportionment), matching "all experiments
// are run with a similar proportion of machine groups" (§4.2). The
// result is deterministic.
func Sample(groups []MachineGroup, n int) []Machine {
	if n <= 0 {
		return nil
	}
	total := 0
	for _, g := range groups {
		total += g.Count
	}
	if total == 0 {
		return nil
	}
	type alloc struct {
		idx   int
		base  int
		fract float64
	}
	allocs := make([]alloc, len(groups))
	assigned := 0
	for i, g := range groups {
		exact := float64(n) * float64(g.Count) / float64(total)
		base := int(exact)
		allocs[i] = alloc{idx: i, base: base, fract: exact - float64(base)}
		assigned += base
	}
	// Distribute the remainder to the largest fractional parts
	// (ties broken by group order).
	for assigned < n {
		best := -1
		for i := range allocs {
			if best < 0 || allocs[i].fract > allocs[best].fract {
				best = i
			}
		}
		allocs[best].base++
		allocs[best].fract = -1
		assigned++
	}
	var out []Machine
	for _, a := range allocs {
		g := groups[a.idx]
		for k := 0; k < a.base; k++ {
			out = append(out, Machine{
				Group:           g.Name,
				GFlops:          g.GFlops,
				DRAMGB:          g.DRAMGB,
				NICBytesPerSec:  NIC10GbE,
				DiskBytesPerSec: SataSSD,
			})
		}
	}
	return out
}

// SampleBiased draws n machines but forces a fraction of them to come
// from one group, reproducing the experiment notes in §4.4 ("the run
// with L1 and 16 inferences uses 89% of group 2 machines") and §4.5
// ("the run with L3 and 50 workers has no group 2 machines").
func SampleBiased(groups []MachineGroup, n int, group string, fraction float64) []Machine {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	forced := int(float64(n)*fraction + 0.5)
	var target *MachineGroup
	var rest []MachineGroup
	for i := range groups {
		if groups[i].Name == group {
			target = &groups[i]
		} else {
			rest = append(rest, groups[i])
		}
	}
	var out []Machine
	if target != nil {
		for k := 0; k < forced; k++ {
			out = append(out, Machine{
				Group:           target.Name,
				GFlops:          target.GFlops,
				DRAMGB:          target.DRAMGB,
				NICBytesPerSec:  NIC10GbE,
				DiskBytesPerSec: SataSSD,
			})
		}
	}
	out = append(out, Sample(rest, n-len(out))...)
	return out
}
