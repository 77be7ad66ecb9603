package cluster

import (
	"testing"
	"testing/quick"
)

func TestTable3Published(t *testing.T) {
	groups := Table3()
	if len(groups) != 5 {
		t.Fatalf("Table 3 has %d groups, want 5", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.Count
		if g.GFlops <= 0 || g.Count <= 0 || g.DRAMGB <= 0 {
			t.Errorf("group %s has invalid fields: %+v", g.Name, g)
		}
	}
	// 58 + 117 + 14 + 7 + 5 machines in the published table.
	if total != 201 {
		t.Errorf("total machines %d, want 201", total)
	}
	if groups[1].GFlops != 5.4 || groups[1].Count != 117 {
		t.Errorf("group 2 should be the 117-machine 5.4 GFlops EPYC 7543 group")
	}
}

func TestSampleProportions(t *testing.T) {
	ms := Sample(Table3(), 150)
	if len(ms) != 150 {
		t.Fatalf("sampled %d machines", len(ms))
	}
	counts := map[string]int{}
	for _, m := range ms {
		counts[m.Group]++
		if m.NICBytesPerSec != NIC10GbE || m.DiskBytesPerSec != SataSSD {
			t.Errorf("machine links wrong: %+v", m)
		}
	}
	// Group 2 holds 117/201 = 58% of the pool.
	if c := counts["g2-epyc7543"]; c < 80 || c < counts["g1-epyc7532"] {
		t.Errorf("group 2 should dominate the sample: %v", counts)
	}
}

func TestSampleEdgeCases(t *testing.T) {
	if got := Sample(Table3(), 0); got != nil {
		t.Errorf("Sample(0) = %v", got)
	}
	if got := Sample(nil, 5); got != nil {
		t.Errorf("Sample with no groups = %v", got)
	}
	one := Sample(Table3(), 1)
	if len(one) != 1 {
		t.Errorf("Sample(1) returned %d machines", len(one))
	}
}

func TestSampleBiased(t *testing.T) {
	// "89% of group 2 machines" (§4.4).
	ms := SampleBiased(Table3(), 100, "g2-epyc7543", 0.89)
	if len(ms) != 100 {
		t.Fatalf("biased sample has %d machines", len(ms))
	}
	g2 := 0
	for _, m := range ms {
		if m.Group == "g2-epyc7543" {
			g2++
		}
	}
	if g2 != 89 {
		t.Errorf("group-2 count %d, want 89", g2)
	}
	// "no group 2 machines" (§4.5).
	none := SampleBiased(Table3(), 50, "g2-epyc7543", 0)
	for _, m := range none {
		if m.Group == "g2-epyc7543" {
			t.Fatalf("excluded group present")
		}
	}
	if len(none) != 50 {
		t.Errorf("exclusion sample has %d machines", len(none))
	}
}

func TestMeanGFlops(t *testing.T) {
	ms := Sample(Table3(), 201)
	var mean float64
	for _, m := range ms {
		mean += m.GFlops / float64(len(ms))
	}
	// Weighted mean of the published table: about 4.6.
	if mean < 4.0 || mean > 5.4 {
		t.Errorf("mean GFlops %.2f implausible", mean)
	}
}

// Property: Sample always returns exactly n machines and is
// deterministic.
func TestQuickSampleSize(t *testing.T) {
	f := func(k uint8) bool {
		n := int(k)%300 + 1
		a := Sample(Table3(), n)
		b := Sample(Table3(), n)
		if len(a) != n || len(b) != n {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
