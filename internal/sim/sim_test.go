package sim

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
)

// Reduced-scale configs keep the paper's worker counts but 1/20 of the
// invocations, so contention shapes survive while tests stay fast.
func lnni(level core.ReuseLevel, workers, n int) Config {
	return Config{
		App: apps.LNNI(), Level: level, Workers: workers,
		SlotsPerWorker: 16, Invocations: n, Units: 16,
		Seed: 7, PeerTransfers: true,
	}
}

func TestLevelsOrdering(t *testing.T) {
	n := 5000
	r1 := Run(lnni(core.L1, 150, n))
	r2 := Run(lnni(core.L2, 150, n))
	r3 := Run(lnni(core.L3, 150, n))
	if !(r1.TotalTime > r2.TotalTime && r2.TotalTime > r3.TotalTime) {
		t.Errorf("expected L1 > L2 > L3 totals, got %.0f / %.0f / %.0f",
			r1.TotalTime, r2.TotalTime, r3.TotalTime)
	}
	if !(r1.Summary.Mean > r2.Summary.Mean && r2.Summary.Mean > r3.Summary.Mean) {
		t.Errorf("expected mean runtimes L1 > L2 > L3, got %.2f / %.2f / %.2f",
			r1.Summary.Mean, r2.Summary.Mean, r3.Summary.Mean)
	}
	// L3's per-invocation cost must be in the seconds range while L1's
	// is tens of seconds (Table 4's shape). At this reduced scale a
	// larger fraction of invocations are cold (library startup), so the
	// bound is looser than the paper's 4.77 s steady-state mean.
	if r3.Summary.Mean > 10 {
		t.Errorf("L3 mean %.2f too high", r3.Summary.Mean)
	}
	if r1.Summary.Mean < 12 {
		t.Errorf("L1 mean %.2f too low", r1.Summary.Mean)
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(lnni(core.L3, 50, 2000))
	b := Run(lnni(core.L3, 50, 2000))
	if a.TotalTime != b.TotalTime {
		t.Errorf("same seed, different totals: %f vs %f", a.TotalTime, b.TotalTime)
	}
	if len(a.Times) != len(b.Times) {
		t.Fatalf("different result counts")
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("runtime %d differs: %f vs %f", i, a.Times[i], b.Times[i])
		}
	}
	c := lnni(core.L3, 50, 2000)
	c.Seed = 8
	if Run(c).TotalTime == a.TotalTime {
		t.Errorf("different seeds produced identical totals (suspicious)")
	}
}

func TestAllInvocationsComplete(t *testing.T) {
	for _, level := range []core.ReuseLevel{core.L1, core.L2, core.L3} {
		r := Run(lnni(level, 20, 1500))
		if len(r.Times) != 1500 {
			t.Errorf("%v: %d of 1500 invocations completed", level, len(r.Times))
		}
		for i, x := range r.Times {
			if x <= 0 {
				t.Fatalf("%v: invocation %d has non-positive runtime %f", level, i, x)
			}
		}
		// The same run stepped by hand, as bench/ times it.
		st, loop := DebugStart(lnni(level, 20, 1500))
		if end := loop.Run(); DebugCompleted(st) != 1500 || end != r.TotalTime {
			t.Errorf("%v: a stepped run completed %d of 1500 in %v, Run took %v", level, DebugCompleted(st), end, r.TotalTime)
		}
	}
}

func TestL3LibraryMetrics(t *testing.T) {
	r := Run(lnni(core.L3, 150, 20000))
	if r.LibsDeployed == 0 {
		t.Fatalf("no libraries deployed")
	}
	if r.LibsDeployed > 150*16 {
		t.Errorf("deployed %d libraries exceeds slot count", r.LibsDeployed)
	}
	// Share value grows linearly (Figure 11).
	slope, _, corr := r.ShareSeries.LinearFit()
	if corr < 0.98 {
		t.Errorf("share value not linear: r = %f", corr)
	}
	if slope <= 0 {
		t.Errorf("share value slope %f not positive", slope)
	}
	final := r.ShareSeries.Last().Y
	expect := float64(20000) / float64(r.LibsDeployed)
	if final < expect*0.8 || final > expect*1.2 {
		t.Errorf("final share value %f, expected about %f", final, expect)
	}
	// Deployed libraries ramp up and then plateau (Figure 10): the
	// value at 30%% completion is already most of the final value.
	at30 := r.DeployedSeries.YAt(20000 * 0.3)
	if at30 < 0.8*float64(r.LibsDeployed) {
		t.Errorf("deployment ramp too slow: %f at 30%%, final %d", at30, r.LibsDeployed)
	}
}

func TestL1UsesSharedFSOnly(t *testing.T) {
	r := Run(lnni(core.L1, 20, 500))
	if r.SharedFSBytes == 0 {
		t.Errorf("L1 read nothing from the shared FS")
	}
	if r.EnvDirect != 0 || r.EnvPeer != 0 {
		t.Errorf("L1 should not distribute environments (%d direct, %d peer)", r.EnvDirect, r.EnvPeer)
	}
	r2 := Run(lnni(core.L2, 20, 500))
	if r2.SharedFSBytes != 0 {
		t.Errorf("L2 should not touch the shared FS, read %f bytes", r2.SharedFSBytes)
	}
	if r2.EnvDirect+r2.EnvPeer != 20 {
		t.Errorf("L2 should deliver the environment to each worker once, got %d+%d", r2.EnvDirect, r2.EnvPeer)
	}
}

func TestPeerTransfersFormSpanningTree(t *testing.T) {
	cfg := lnni(core.L3, 100, 3000)
	cfg.PeerTransfers = true
	cfg.ManagerSourceCap = 1
	r := Run(cfg)
	if r.EnvDirect+r.EnvPeer != 100 {
		t.Fatalf("expected 100 env deliveries, got %d", r.EnvDirect+r.EnvPeer)
	}
	if r.EnvDirect > 10 {
		t.Errorf("manager sent %d copies; the tree should carry most", r.EnvDirect)
	}
	off := lnni(core.L3, 100, 3000)
	off.PeerTransfers = false
	off.ManagerSourceCap = 1 << 30
	r2 := Run(off)
	if r2.EnvPeer != 0 {
		t.Errorf("peer transfers disabled but %d happened", r2.EnvPeer)
	}
	if r2.EnvDirect != 100 {
		t.Errorf("manager-only mode sent %d copies, want 100", r2.EnvDirect)
	}
}

func TestMoreWorkersFlatForL3(t *testing.T) {
	// Figure 9's key shape: L3 gains little beyond 50 workers because
	// the manager, not compute, is the limit.
	n := 5000
	t50 := Run(lnni(core.L3, 50, n)).TotalTime
	t150 := Run(lnni(core.L3, 150, n)).TotalTime
	if t150 < t50*0.5 {
		t.Errorf("L3 sped up too much with workers (%.0f -> %.0f): should be manager-bound", t50, t150)
	}
	// But very few workers do hurt (slot-bound region).
	t10 := Run(lnni(core.L3, 10, n)).TotalTime
	if t10 < t50*1.3 {
		t.Errorf("10 workers (%.0f) should be clearly slower than 50 (%.0f)", t10, t50)
	}
}

func TestUnitsScaleExecution(t *testing.T) {
	// Few workers and many invocations keep the cold fraction small so
	// the means reflect steady-state execution.
	short := Run(lnni(core.L3, 10, 3000))
	cfg := lnni(core.L3, 10, 3000)
	cfg.Units = 160
	long := Run(cfg)
	ratio := long.Summary.Mean / short.Summary.Mean
	if ratio < 5 || ratio > 15 {
		t.Errorf("160 vs 16 inferences mean ratio %.1f, want ~10", ratio)
	}
}

func TestMachineHeterogeneityMatters(t *testing.T) {
	fast := lnni(core.L3, 50, 2000)
	fast.Machines = cluster.SampleBiased(cluster.Table3(), 50, "g2-epyc7543", 1.0)
	slow := lnni(core.L3, 50, 2000)
	slow.Machines = cluster.SampleBiased(cluster.Table3(), 50, "g5-xeon4316", 1.0)
	rf := Run(fast)
	rs := Run(slow)
	if rs.Summary.Mean <= rf.Summary.Mean {
		t.Errorf("slow machines (%.2f) should have larger mean than fast (%.2f)",
			rs.Summary.Mean, rf.Summary.Mean)
	}
}

func TestExecDrawsMakeLevelsComparable(t *testing.T) {
	app := apps.LNNI()
	draws := make([]float64, 1000)
	for i := range draws {
		draws[i] = 3.0
	}
	cfg := lnni(core.L3, 20, 1000)
	cfg.App = app
	cfg.ExecDraws = draws
	r := Run(cfg)
	// With constant draws, runtime variation comes only from machine
	// scaling — min is the fastest machine's 3.0 s.
	if r.Summary.Min < 2.9 || r.Summary.Min > 3.3 {
		t.Errorf("min runtime %f with constant 3.0s draws on g2 machines", r.Summary.Min)
	}
}

func TestExaMolModel(t *testing.T) {
	cfg := Config{
		App: apps.ExaMol(), Level: core.L2, Workers: 50,
		SlotsPerWorker: 8, Invocations: 1000, Seed: 11, PeerTransfers: true,
	}
	r := Run(cfg)
	if r.Summary.Mean < 100 || r.Summary.Mean > 600 {
		t.Errorf("ExaMol task mean %.0f outside minutes range", r.Summary.Mean)
	}
	cfg.Level = core.L1
	r1 := Run(cfg)
	if r1.TotalTime <= r.TotalTime {
		t.Errorf("ExaMol L1 (%.0f) should be slower than L2 (%.0f)", r1.TotalTime, r.TotalTime)
	}
}

func TestClusterTopologyConstrainsTransfers(t *testing.T) {
	cfg := lnni(core.L3, 60, 2000)
	cfg.Clusters = 3
	cfg.CrossClusterBytesPerSec = 50e6
	r := Run(cfg)
	if len(r.Times) != 2000 {
		t.Fatalf("clustered run incomplete: %d", len(r.Times))
	}
	flat := lnni(core.L3, 60, 2000)
	rf := Run(flat)
	if r.TotalTime < rf.TotalTime {
		t.Errorf("constrained cross-cluster links should not be faster (%.0f vs %.0f)", r.TotalTime, rf.TotalTime)
	}
}

func TestBreakdownsPopulated(t *testing.T) {
	r := Run(Config{
		App: apps.LNNI(), Level: core.L2, Workers: 1, SlotsPerWorker: 1,
		Invocations: 2, Units: 16, Seed: 3, PeerTransfers: true,
	})
	if r.ColdBreakdown.Worker < 10 {
		t.Errorf("cold worker overhead %.2f should include the ~15s unpack", r.ColdBreakdown.Worker)
	}
	if r.HotBreakdown.Exec <= 0 {
		t.Errorf("hot exec missing")
	}
	if r.HotBreakdown.Worker != 0 {
		t.Errorf("hot worker overhead should be ~0, got %f", r.HotBreakdown.Worker)
	}
	r3 := Run(Config{
		App: apps.LNNI(), Level: core.L3, Workers: 1, SlotsPerWorker: 1,
		Invocations: 2, Units: 16, Seed: 3, PeerTransfers: true,
	})
	if r3.LibBreakdown.Setup < 1 {
		t.Errorf("library setup %.2f should include the ~2.7s context setup", r3.LibBreakdown.Setup)
	}
	if r3.InvBreakdown.Exec <= 0 || r3.InvBreakdown.Exec > r.HotBreakdown.Exec {
		t.Errorf("L3 invocation exec %.2f should be positive and below L2 hot exec %.2f",
			r3.InvBreakdown.Exec, r.HotBreakdown.Exec)
	}
}
