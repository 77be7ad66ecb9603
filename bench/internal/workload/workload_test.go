package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/bench/internal/span"
)

// metricNames reads one list of metric names ("end_to_end" or
// "per_layer") from BENCHMARK.json, the one place that names them.
func metricNames(t *testing.T, list string) []string {
	t.Helper()
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name string }
	if err := json.Unmarshal(file[list], &metrics); err != nil || len(metrics) == 0 {
		t.Fatalf("BENCHMARK.json: %q lists %d metrics (%v)", list, len(metrics), err)
	}
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.Name
	}
	return names
}

// short is a run of a few hundred operations; its numbers mean nothing,
// its checks and its plumbing are the real ones.
func short(name string) Config {
	return Config{Workload: name, Seed: 1, Seconds: 0.05, Short: true}
}

func TestShortRunOfEveryWorkload(t *testing.T) {
	endToEnd := metricNames(t, "end_to_end")
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			res, err := Run(short(name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, %d of %d failed: %s", res.Correct, res.Failed, res.Attempted, res.Err)
			}
			if res.Epochs < 1 {
				t.Errorf("no epoch closed in %v s", res.TimedSeconds)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m]; !ok || !(v > 0) {
					t.Errorf("%s = %v (reported: %v), want a positive measurement", m, v, ok)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("an untraced run reported %d metrics, BENCHMARK.json has %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			// The times are stated at the reference host's speed; what they
			// were corrected from is reported beside them. An open loop's
			// rate is its schedule's and stays as measured.
			raw := res.AsMeasured
			if !(raw["host_speed"] > 0) || !(raw["ops_per_s"] > 0) || !(raw["setup_s"] > 0) {
				t.Errorf("as measured: %v, want a host speed and the uncorrected times", raw)
			}
			if pinned := name == "invoke_paced"; pinned != (res.Metrics["ops_per_s"] == raw["ops_per_s"]) {
				t.Errorf("ops_per_s %v, as measured %v: only an open loop's rate is left uncorrected", res.Metrics["ops_per_s"], raw["ops_per_s"])
			}
		})
	}
}

// TestShortTracedRun: a traced run reports exactly BENCHMARK.json's
// per-layer metrics and writes its spans.
func TestShortTracedRun(t *testing.T) {
	cfg := short("context_reload")
	cfg.Trace, cfg.OutDir = true, t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%d of %d failed: %s", res.Failed, res.Attempted, res.Err)
	}
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	want := metricNames(t, "per_layer")
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("traced run reported\n  %v\nBENCHMARK.json's per-layer metrics are\n  %v", got, want)
	}
	for _, name := range []string{"client.l1_p50_us", "client.l2_p50_us", "client.latency_p99_us", "worker.exec_us", "sharedfs.reads_per_op", "trace.overhead_ratio"} {
		if !(res.Metrics[name] > 0) {
			t.Errorf("%s = %v, want a positive reading on context_reload", name, res.Metrics[name])
		}
	}

	data, err := os.ReadFile(filepath.Join(cfg.OutDir, "trace-context_reload.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f span.File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	byID := map[int64]span.Span{}
	for _, s := range f.Spans {
		names[s.Name]++
		byID[s.ID] = s
	}
	for _, name := range []string{"client.op", "client.submit", "client.wait", "worker.exec", "pickle.unmarshal_func", "policy.plan_task_batch"} {
		if names[name] == 0 {
			t.Errorf("no %s span in the trace file (have %v)", name, names)
		}
	}
	for _, s := range f.Spans {
		if s.Name == "client.wait" && byID[s.Parent].Name != "client.op" {
			t.Fatalf("client.wait span %d hangs under %q, want client.op", s.ID, byID[s.Parent].Name)
		}
	}
	if f.TracedOps < 1 || f.SampledOps < 1 || len(f.Aggregates) == 0 {
		t.Errorf("traced %d, sampled %d, %d aggregates", f.TracedOps, f.SampledOps, len(f.Aggregates))
	}
}

// TestFanoutReplacesItsCluster: data_fanout's clusters serve a fixed
// number of timed rounds each, whatever the phase's length; the epochs of
// all of them enter one result, and neither the allocations nor the
// engine counters of the replacements' set-ups are charged to the
// operations.
func TestFanoutReplacesItsCluster(t *testing.T) {
	w := newFanout(short("data_fanout"))
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	first := w.c
	before := w.counters()
	// The cluster has served its rounds: the phase opens with a
	// replacement, and makes more as fast as the machine allows.
	w.served = w.clusterRounds
	m, err := measure(nil, w, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta, last := w.counters().sub(before), w.c
	if err := w.teardown(); err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 {
		t.Fatalf("%d of %d failed: %s", m.failed, m.attempted, m.firstErr)
	}
	if last == first {
		t.Fatal("the phase ended on the cluster it started on")
	}
	epochOps := w.roundsPerEpoch * w.opsPerRound()
	if m.ops != m.epochs.Closed()*epochOps {
		t.Errorf("%d operations in %d epochs of %d: a pass ended inside an epoch", m.ops, m.epochs.Closed(), epochOps)
	}
	if m.untimed.AllocBytes == 0 {
		t.Error("replacing a cluster allocated nothing: its set-up is not being kept out of alloc_kb_per_op")
	}
	// A round moves its blob to each other worker at most once; the
	// replacements' warm-up rounds must not show in the delta.
	rounds := m.ops / w.opsPerRound()
	if got, most := delta[cRefTransfers], int64(rounds*(w.workers-1)); got < int64(rounds) || got > most {
		t.Errorf("%d by-ref transfers over %d timed rounds, want %d..%d", got, rounds, rounds, most)
	}
}

// wrongEcho is invoke_burst with one expected value damaged after
// set-up, so that some operations fail their output check.
type wrongEcho struct{ *invoke }

func (w wrongEcho) setup() error {
	if err := w.invoke.setup(); err != nil {
		return err
	}
	w.want[3] = []byte("not what noop returns")
	return nil
}

func TestFailedOutputCheckFailsTheRun(t *testing.T) {
	res, err := run(short("invoke_burst"), func(cfg Config) (driver, error) {
		return wrongEcho{newInvoke(cfg, false)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct %v with %d of %d failed: a wrong result must fail the run", res.Correct, res.Failed, res.Attempted)
	}
	if res.Failed >= res.Attempted {
		t.Errorf("%d of %d failed; only the operations with the damaged expectation should", res.Failed, res.Attempted)
	}
	if !strings.Contains(res.Err, "did not echo") {
		t.Errorf("first failure %q does not name the check", res.Err)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(short("no_such_workload")); err == nil {
		t.Fatal("an unknown workload name was accepted")
	}
}
