package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/bench/internal/workload"
)

func TestMain(m *testing.M) {
	if err := loadCatalog("../BENCHMARK.json"); err != nil {
		fatal(err)
	}
	os.Exit(m.Run())
}

func result(correct bool) *workload.Result {
	failed := 0
	if !correct {
		failed = 2
	}
	return &workload.Result{
		Workload: "invoke_burst", Attempted: 1000, Failed: failed, Correct: correct,
		Metrics: map[string]float64{"ops_per_s": 12345.678, "setup_s": 1.25},
		Epochs:  3, TimedSeconds: 0.1,
	}
}

// TestEmit: the exit code follows the output checks, every metric is
// printed by name with its unit, and the last line is the result object
// with exactly the four keys of the contract.
func TestEmit(t *testing.T) {
	var out bytes.Buffer
	if code := emit(&out, result(true)); code != 0 {
		t.Errorf("a correct run exits with %d", code)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if !strings.Contains(out.String(), "invoke_burst/ops_per_s 12345.678 1/s\n") {
		t.Errorf("no `workload/metric value unit` line for ops_per_s in:\n%s", out.String())
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("result line has no %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(last))
	}
	var parsed line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
		t.Fatal(err)
	}
	if v := parsed.Metrics["setup_s"]; v.Value != 1.25 || v.Unit != "s" {
		t.Errorf("setup_s came back as %+v", v)
	}

	out.Reset()
	if code := emit(&out, result(false)); code == 0 {
		t.Error("a run with failed output checks exits with 0")
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), `"failed":2`) {
		t.Errorf("failure not reported in the result line:\n%s", out.String())
	}
}

// TestCatalogNamesTheWorkloads: BENCHMARK.json loads, and lists exactly
// the workloads the program has, in the order it runs them.
func TestCatalogNamesTheWorkloads(t *testing.T) {
	var got []string
	for _, w := range catalog.Workloads {
		got = append(got, w.Name)
	}
	if want := workload.Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json lists the workloads %v, the program has %v", got, want)
	}
	if catalog.RunSeconds < 8 {
		t.Errorf("run_seconds %d: every timed phase must last at least 8 s", catalog.RunSeconds)
	}
	if unit("ops_per_s") != "1/s" || unit("taskvine.call_us") != "us" {
		t.Errorf("units of ops_per_s and taskvine.call_us read as %q and %q", unit("ops_per_s"), unit("taskvine.call_us"))
	}
}

func TestCompare(t *testing.T) {
	one := func(v float64) []float64 { return []float64{v} }
	a := &set{
		samples: map[string][]float64{
			"invoke_burst/ops_per_s": {200000, 150000, 250000}, "invoke_burst/setup_s": one(1.0),
			"sim_replay/sim.events_per_inv": one(2.5), "invoke_burst/taskvine.call_us": one(1.0),
		},
		attempted: map[string]int{"invoke_paced": 200000},
	}
	same := &set{samples: map[string][]float64{}, attempted: a.attempted}
	for k, v := range a.samples {
		same.samples[k] = v
	}
	// A per-layer metric has no bound: a large difference is not a
	// violation. Nor is a wide spread of a set's own runs; it is printed.
	same.samples["invoke_burst/taskvine.call_us"] = one(3.0)
	var out bytes.Buffer
	if bad := compare(&out, a, same); bad != 0 {
		t.Errorf("identical end-to-end medians gave %d violations:\n%s", bad, out.String())
	}

	limit, ok := bound("ops_per_s")
	if !ok {
		t.Fatal("ops_per_s has no bound")
	}
	worse := &set{samples: map[string][]float64{}, attempted: map[string]int{"invoke_paced": 199980}}
	for k, v := range a.samples {
		worse.samples[k] = v
	}
	worse.samples["invoke_burst/ops_per_s"] = one(200000 * (1 - limit - 0.01)) // just past the bound
	worse.samples["sim_replay/sim.events_per_inv"] = one(2.5001)               // must repeat exactly
	out.Reset()
	if bad := compare(&out, a, worse); bad != 3 {
		t.Errorf("%d violations, want 3 (median apart, exact count, attempted):\n%s", bad, out.String())
	}
	for _, want := range []string{"invoke_burst/ops_per_s", "sim_replay/sim.events_per_inv", "invoke_paced/attempted"} {
		if !strings.Contains(out.String(), "FAIL "+want+" ") {
			t.Errorf("violation of %s is not named in:\n%s", want, out.String())
		}
	}
}
