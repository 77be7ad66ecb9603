package experiments

import (
	"strings"
	"testing"
)

// Experiments run at 1/5 scale in tests — large enough that every
// regime (manager-bound, FS-bound, slot-bound) appears as at paper
// scale, small enough to stay fast.
var testOpts = Options{Scale: 5, Seed: 99}

func TestTable2Shape(t *testing.T) {
	rep := Table2(testOpts)
	local := rep.MustGet("local-invocation per-invocation")
	taskPer := rep.MustGet("remote-task overhead-per-invocation")
	invPer := rep.MustGet("remote-invocation overhead-per-invocation")
	if local <= 0 || local > 1e-3 {
		t.Errorf("local per-invocation %g implausible", local)
	}
	// The paper's core claim: per-invocation overhead drops by ~75x
	// between task and invocation modes.
	if taskPer/invPer < 20 {
		t.Errorf("task/invocation overhead ratio %.1f, want >> 20", taskPer/invPer)
	}
	if w := rep.MustGet("remote-task overhead-per-worker"); w < 10 || w > 30 {
		t.Errorf("per-worker overhead %.1f outside the ~20s band", w)
	}
}

func TestFig6aShape(t *testing.T) {
	rep := Fig6a(testOpts)
	l1 := rep.MustGet("L1 execution time")
	l2 := rep.MustGet("L2 execution time")
	l3 := rep.MustGet("L3 execution time")
	if !(l1 > l2 && l2 > l3) {
		t.Fatalf("ordering broken: %f %f %f", l1, l2, l3)
	}
	if red := rep.MustGet("L3 vs L1 reduction"); red < 70 {
		t.Errorf("L3 vs L1 reduction %.1f%%, paper shows 94.5%%", red)
	}
}

func TestFig6bShape(t *testing.T) {
	// ExaMol's L1 penalty is a steady-state throughput effect: it needs
	// the full 10k-task workload (many waves over 1200 slots) to show,
	// so this experiment runs at paper scale (it is still fast).
	rep := Fig6b(Options{Scale: 1, Seed: testOpts.Seed})
	red := rep.MustGet("L2 vs L1 reduction")
	if red < 10 || red > 60 {
		t.Errorf("ExaMol L2 vs L1 reduction %.1f%%, paper shows 26.9%%", red)
	}
}

func TestTable4Shape(t *testing.T) {
	rep := Table4(testOpts)
	if !(rep.MustGet("L1 mean") > rep.MustGet("L2 mean") &&
		rep.MustGet("L2 mean") > rep.MustGet("L3 mean")) {
		t.Errorf("mean ordering broken")
	}
	for _, lvl := range []string{"L1", "L2", "L3"} {
		if rep.MustGet(lvl+" min") <= 0 {
			t.Errorf("%s min not positive", lvl)
		}
		if rep.MustGet(lvl+" max") < rep.MustGet(lvl+" mean") {
			t.Errorf("%s max below mean", lvl)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	rep := Fig7(testOpts)
	// The histogram shifts left with more reuse.
	m1 := rep.MustGet("L1 histogram mode")
	m3 := rep.MustGet("L3 histogram mode")
	if m3 >= m1 {
		t.Errorf("L3 mode (%.1f) should sit left of L1 mode (%.1f)", m3, m1)
	}
	if mass := rep.MustGet("L3 mass in 2-8s"); mass < 50 {
		t.Errorf("L3 mass in 2-8s = %.1f%%, want most of it", mass)
	}
	if !strings.Contains(rep.Extra, "#") {
		t.Errorf("expected rendered histograms")
	}
}

func TestFig8Shape(t *testing.T) {
	rep := Fig8(testOpts)
	// The benefit of reuse diminishes with longer invocations.
	r16 := rep.MustGet("L3 vs L1 reduction @16")
	r160 := rep.MustGet("L3 vs L1 reduction @160")
	r1600 := rep.MustGet("L3 vs L1 reduction @1600")
	if !(r16 > r160 && r160 > r1600) {
		t.Errorf("reduction should shrink with invocation length: %.1f %.1f %.1f", r16, r160, r1600)
	}
	if r16 < 50 {
		t.Errorf("short invocations should gain >50%%, got %.1f%%", r16)
	}
	if r1600 > 25 || r1600 < -25 {
		t.Errorf("long invocations should gain little, got %.1f%%", r1600)
	}
}

func TestFig9Shape(t *testing.T) {
	rep := Fig9(testOpts)
	// L3 roughly flat from 50 to 150 workers; 10 workers much slower.
	l3w50 := rep.MustGet("L3 workers=50 execution time")
	l3w150 := rep.MustGet("L3 workers=150 execution time")
	l3w10 := rep.MustGet("L3 workers=10 execution time")
	if l3w150 < 0.4*l3w50 {
		t.Errorf("L3 should be near-flat beyond 50 workers: %f vs %f", l3w50, l3w150)
	}
	if l3w10 < 1.2*l3w50 {
		t.Errorf("L3 with 10 workers (%f) should be much slower than 50 (%f)", l3w10, l3w50)
	}
	// L1 shows only slight improvement with more workers.
	l1w50 := rep.MustGet("L1 workers=50 execution time")
	l1w150 := rep.MustGet("L1 workers=150 execution time")
	if l1w150 < 0.5*l1w50 {
		t.Errorf("L1 should improve only slightly with workers: %f -> %f", l1w50, l1w150)
	}
}

func TestFig10Fig11Shape(t *testing.T) {
	rep10 := Fig10(testOpts)
	final := rep10.MustGet("final deployed libraries")
	peak := rep10.MustGet("peak deployed libraries")
	if final <= 0 || final > 2400 {
		t.Errorf("deployed libraries %f out of range", final)
	}
	if peak < final {
		t.Errorf("peak %f below final %f", peak, final)
	}
	rep11 := Fig11(testOpts)
	if corr := rep11.MustGet("linear fit correlation r"); corr < 0.97 {
		t.Errorf("share value growth not linear: r=%f", corr)
	}
	if share := rep11.MustGet("final average share value"); share <= 0 {
		t.Errorf("final share value %f", share)
	}
}

func TestTable5Shape(t *testing.T) {
	rep := Table5(testOpts)
	// Cold pays the big worker-side setup; hot pays almost nothing.
	coldW := rep.MustGet("L2-cold worker overhead")
	hotW := rep.MustGet("L2-hot worker overhead")
	if coldW < 5 {
		t.Errorf("cold worker overhead %.2f should include the unpack", coldW)
	}
	if hotW > 0.1 {
		t.Errorf("hot worker overhead %.4f should be ~0", hotW)
	}
	// L3's per-invocation overheads are orders of magnitude below L2's.
	if inv := rep.MustGet("L3-invoc setup overhead"); inv > 0.01 {
		t.Errorf("L3 invocation setup %.4f should be milliseconds", inv)
	}
	// L3 exec excludes the model rebuild, so it is below L2 hot exec.
	if rep.MustGet("L3-invoc exec time") >= rep.MustGet("L2-hot exec time") {
		t.Errorf("L3 exec should beat L2 hot exec")
	}
}

func TestAblations(t *testing.T) {
	tr := AblationTransfer(testOpts)
	if tr.MustGet("3b env transfers from peers") == 0 {
		t.Errorf("peer topology moved nothing via peers")
	}
	if tr.MustGet("3a manager-only execution time") <= 0 {
		t.Errorf("missing 3a total")
	}
	pc := AblationPeerCap(testOpts)
	if v := pc.MustGet("cap=3 execution time"); v <= 0 {
		t.Errorf("peercap sweep empty")
	}
	sl := AblationSlots(testOpts)
	if sl.MustGet("1 library x 16 slots execution time") <= 0 {
		t.Errorf("slots ablation empty")
	}
	di := AblationDispatch(testOpts)
	fast := di.MustGet("dispatch=0.0010s execution time")
	slow := di.MustGet("dispatch=0.0300s execution time")
	if slow <= fast {
		t.Errorf("higher dispatch cost should slow the run: %f vs %f", fast, slow)
	}
	ex := ExaMolL3Projection(Options{Scale: 1, Seed: testOpts.Seed})
	l1, l2, l3 := ex.MustGet("L1 execution time"), ex.MustGet("L2 execution time"), ex.MustGet("L3 execution time")
	if !(l3 < l2 && l2 < l1) {
		t.Errorf("projected ExaMol should speed up with each level: L1 %f, L2 %f, L3 %f", l1, l2, l3)
	}
}

func TestBurstyMultiTenantShape(t *testing.T) {
	rep := BurstyMultiTenant(testOpts)
	if v := rep.MustGet("execution time"); v <= 0 {
		t.Fatalf("execution time %f", v)
	}
	// The burst tenant must actually overflow its queue bound, and the
	// pre-shed pressure band must actually throttle — otherwise the
	// experiment degenerates into single-tenant dispatch.
	shed := rep.MustGet("submissions shed (burst overflow)")
	if shed <= 0 {
		t.Errorf("burst tenant shed nothing; admission control never bit")
	}
	if thr := rep.MustGet("submissions throttled"); thr <= 0 {
		t.Errorf("no submissions throttled")
	}
	// The burst arrives ~10x faster than it drains, so most of it is
	// shed by design — but never all of it (MaxQueue + Quota always
	// admit the head of the burst).
	frac := rep.MustGet("shed fraction of burst")
	if frac <= 0 || frac >= 97 {
		t.Errorf("shed fraction %.1f%% outside the plausible band (0, 97)", frac)
	}
	if served := rep.MustGet("invocations served"); served <= 0 || served+shed != float64(testOpts.scale(4000)+testOpts.scale(500)+testOpts.scale(1500)) {
		t.Errorf("served %f + shed %f does not account for the workload", served, shed)
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		if _, ok := ByName(name); !ok {
			t.Errorf("Names lists %q but ByName misses it", name)
		}
	}
	if _, ok := ByName("nonsense"); ok {
		t.Errorf("ByName accepted nonsense")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{ID: "x", Title: "T", Rows: []Row{
		{Label: "a", Measured: 1.5, Paper: 2.0, Unit: "s"},
		{Label: "b", Measured: 3, Unit: "%"},
	}}
	out := rep.String()
	if !strings.Contains(out, "paper: 2") || !strings.Contains(out, "== x: T ==") {
		t.Errorf("rendering wrong:\n%s", out)
	}
	if _, ok := rep.Get("missing"); ok {
		t.Errorf("Get found a missing row")
	}
}
