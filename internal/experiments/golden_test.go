package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden decision traces")

// compareGolden pins got against the golden file at path: -update
// rewrites it, otherwise any divergence fails with the first differing
// line.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gl := strings.Split(got, "\n")
	wl := strings.Split(string(want), "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			t.Fatalf("decision trace diverges from golden at line %d:\n  got:  %q\n  want: %q\n(regenerate with -update if the change is deliberate)", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("decision trace length differs from golden: got %d lines, want %d (regenerate with -update if deliberate)", len(gl), len(wl))
}

// TestGoldenDecisionTraces pins the exact scheduling-decision sequence
// the policy core produces for the L1/L2/L3 seed workloads at reduced
// scale. Any change to placement order, source selection, staging
// modes, or deploy targets shows up as a golden diff — deliberate
// policy changes regenerate with `go test ./internal/experiments
// -run Golden -update`, accidental ones fail review.
// TestGoldenBurstyMultiTenant pins the decision trace of the
// bursty-multi-tenant seed workload: every admission verdict (accept,
// throttle, shed), every fair-share pick, and every placement, in
// order. This is the golden proof that tenancy flows through the timed
// simulator's plane deterministically; the differential harness proves
// the manager produces the same stream.
func TestGoldenBurstyMultiTenant(t *testing.T) {
	rec := &policy.Recorder{Max: 2000}
	cfg := BurstyGoldenConfig()
	cfg.DecisionTrace = rec
	r := sim.Run(cfg)
	got := rec.Dump()
	if r.SubmitsShed == 0 || r.SubmitsThrottled == 0 {
		t.Fatalf("degenerate seed: shed=%d throttled=%d — the burst tenant never hit its bounds", r.SubmitsShed, r.SubmitsThrottled)
	}
	for _, needle := range []string{"admit tenant=burst verdict=shed", "admit tenant=heavy verdict=throttle", "tenant pick=light"} {
		if !strings.Contains(got, needle) {
			t.Fatalf("trace missing %q", needle)
		}
	}
	compareGolden(t, filepath.Join("testdata", "golden_trace_multitenant.txt"), got)
}

func TestGoldenDecisionTraces(t *testing.T) {
	cases := []struct {
		name  string
		level core.ReuseLevel
	}{
		{"L1", core.L1},
		{"L2", core.L2},
		{"L3", core.L3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &policy.Recorder{Max: 600}
			cfg := SeedConfig(tc.level, 8, 64)
			cfg.DecisionTrace = rec
			sim.Run(cfg)
			got := rec.Dump()
			if len(rec.Decisions) == 0 {
				t.Fatalf("seed run recorded no decisions")
			}
			compareGolden(t, filepath.Join("testdata", "golden_trace_"+tc.name+".txt"), got)
		})
	}
}

// TestGoldenRefPipeline pins the proxy-object data plane's decision
// stream (DESIGN.md §15) for a scripted pass-by-reference pipeline:
// producers whose large results stay on their workers (ownership
// transfers and cap-pressure spills), consumers pulling them by ref
// (peer resolves, shared-tier fetches with promote-on-reuse), an
// owner's death mid-pipeline (rehome), and a stranded fetch's recovery
// resolve. The differential harness proves the manager emits the same
// stream for the same events; this golden pins what that stream is.
func TestGoldenRefPipeline(t *testing.T) {
	cfg := sim.Config{
		App:              &apps.CostModel{Name: "reflib", EnvPackedBytes: 64 << 20},
		Level:            core.L2,
		Workers:          4,
		SlotsPerWorker:   2,
		PeerTransfers:    true,
		PeerCap:          3,
		ManagerSourceCap: 1 << 30,
		// A 2MB owned budget the 1–3MB results overflow, so spills,
		// shared-tier resolves and promotes all appear in the trace.
		RefOwnedBytesCap: 2 << 20,
		Seed:             1,
	}
	r := sim.NewReplay(cfg, 1)
	workers := []string{"w0000", "w0001", "w0002", "w0003"}
	refs := []core.ObjectRef{
		{ID: "ref-a", Name: "a.out", Size: 1 << 20},
		{ID: "ref-b", Name: "b.out", Size: 2 << 20},
		{ID: "ref-c", Name: "c.out", Size: 3 << 20},
		{ID: "ref-d", Name: "d.out", Size: 1 << 20},
	}
	// land applies every deliverable transfer ack — environment copies
	// and ref fetches — until the cluster is static.
	land := func() {
		for changed := true; changed; {
			changed = false
			for _, w := range workers {
				if r.EnvArrived(w) {
					changed = true
				}
				for _, ref := range refs {
					if r.RefArrived(w, ref.ID) {
						changed = true
					}
				}
			}
		}
	}
	completeRef := func(key string, ref core.ObjectRef) string {
		for _, w := range workers {
			if r.CompleteTaskRef(w, key, ref) {
				return w
			}
		}
		t.Fatalf("no worker is running %s", key)
		return ""
	}
	completeTask := func(key string) {
		for _, w := range workers {
			if r.CompleteTask(w, key) {
				return
			}
		}
		t.Fatalf("no worker is running %s", key)
	}

	// Four by-ref producers: their results stay put, transferring
	// ownership to the completing workers and overflowing the owned
	// budget into spills.
	r.Submit(4)
	land()
	owners := map[string]string{}
	for i, ref := range refs {
		owners[ref.ID] = completeRef(fmt.Sprintf("task-%d", i+1), ref)
	}

	// Consumers across the tiers: a plain peer (or ready) resolve, a
	// two-ref task, and the spilled 3MB result promoting back to the
	// cache tier on re-use.
	r.SubmitTaskRefs("ref-a")          // task-5
	r.SubmitTaskRefs("ref-a", "ref-b") // task-6
	r.SubmitTaskRefs("ref-c")          // task-7
	land()
	completeTask("task-5")
	completeTask("task-6")
	completeTask("task-7")

	// Owner death mid-resolve: another consumer of ref-b is submitted,
	// then ref-b's producer — still its cache-tier owner, with the
	// task-6 worker holding a peer replica — dies. The rehome transfers
	// ownership to the surviving holder; force-failing any in-flight
	// fetch exercises the recovery resolve against what survives.
	r.SubmitTaskRefs("ref-b") // task-8
	dead := owners["ref-b"]
	r.KillWorker(dead)
	for _, w := range workers {
		if w != dead {
			r.RefFailed(w, "ref-b")
		}
	}
	land()
	completeTask("task-8")
	if p := r.Pending(); p != 0 {
		t.Fatalf("replay still has %d pending specs after the pipeline", p)
	}

	got := strings.Join(r.Decisions(), "\n") + "\n"
	// The pipeline must actually exhibit the plane's behaviors before
	// the byte-level pin means anything.
	for _, needle := range []string{"own obj=ref-a", "spill obj=", "mode=ref", "resolve obj=", "mode=shared", "promote obj=ref-c", "rehome obj=ref-b owner="} {
		if !strings.Contains(got, needle) {
			t.Fatalf("ref pipeline trace missing %q:\n%s", needle, got)
		}
	}
	compareGolden(t, filepath.Join("testdata", "golden_trace_refpipeline.txt"), got)
}
