// Command bench is the repository's benchmark: six named workloads, five
// end-to-end metrics and a per-layer budget. One run is one fresh
// process running one workload:
//
//	bash bench/run.sh -workload invoke_burst -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload invoke_burst -seed 1 -trace 1   # per-layer metrics, spans in bench/out/
//	bash bench/run.sh -all                                      # every workload, both kinds of run
//	bash bench/run.sh -selfcheck                                # two interleaved sets of the same code, compared
//
// bench/run.sh runs it from the repository root, where it reads
// BENCHMARK.json: the one place that names the workloads and the
// metrics with their units and bounds. The last line of standard output
// of a single run is one JSON object with the keys correct, attempted,
// failed and metrics. bench/README.md describes every name it prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/bench/internal/stats"
	"repro/bench/internal/workload"
)

// outDir receives trace-<workload>.json, relative to the repository
// root.
const outDir = "bench/out"

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// catalog is BENCHMARK.json, loaded by main before anything is printed.
var catalog benchmarkFile

func loadCatalog(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the metric catalogue (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(data, &catalog); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// bound returns an end-to-end metric's bound; ok is false for any other
// name.
func bound(metric string) (b float64, ok bool) {
	for _, m := range catalog.EndToEnd {
		if m.Name == metric {
			return m.Bound, true
		}
	}
	return 0, false
}

// unit returns a metric's unit ("" when BENCHMARK.json does not name
// it).
func unit(metric string) string {
	for _, m := range catalog.EndToEnd {
		if m.Name == metric {
			return m.Unit
		}
	}
	for _, m := range catalog.PerLayer {
		if m.Name == metric {
			return m.Unit
		}
	}
	return ""
}

func main() {
	start := time.Now() // setup_s counts from here
	if err := loadCatalog("BENCHMARK.json"); err != nil {
		fatal(err)
	}
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workload.Names(), ", "))
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", float64(catalog.RunSeconds), "length of the timed phase (epochs are never cut short)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to "+outDir)
		all       = flag.Bool("all", false, "run every workload, untraced and traced, each in a fresh process")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of the same code and compare their medians against the bounds")
		runs      = flag.Int("runs", 5, "untraced runs per workload per set (-selfcheck)")
		pinSim    = flag.Bool("pin-sim", false, "print the values for bench/testdata/sim_pinned.json")
	)
	flag.Parse()

	switch {
	case *pinSim:
		data, err := json.MarshalIndent(workload.Pin(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case *all:
		os.Exit(runAll(os.Stdout, *seed, *seconds))
	case *selfcheck:
		os.Exit(runSelfcheck(os.Stdout, *seed, *seconds, *runs))
	default:
		if *name == "" {
			flag.Usage()
			os.Exit(2)
		}
		res, err := workload.Run(workload.Config{
			Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			OutDir: outDir, Start: start,
		})
		if err != nil {
			fatal(err)
		}
		os.Exit(emit(os.Stdout, res))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the JSON object a single run prints last.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit prints a run's host block, every metric as `workload/metric
// value unit`, the readings an untraced run's times were corrected from,
// and the result line; it returns the process exit code, which is
// non-zero when any operation or output check failed.
func emit(w io.Writer, res *workload.Result) int {
	host, _ := json.Marshal(res.Host) // a struct of strings and ints cannot fail to marshal
	fmt.Fprintf(w, "host %s\n", host)
	fmt.Fprintf(w, "%s: %d epochs in %.2f s timed, %d attempted, %d failed\n", res.Workload, res.Epochs, res.TimedSeconds, res.Attempted, res.Failed)
	if res.Err != "" {
		fmt.Fprintf(w, "%s: first failure: %s\n", res.Workload, res.Err)
	}
	out := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, name := range sortedKeys(res.Metrics) {
		v := value{Value: res.Metrics[name], Unit: unit(name)}
		out.Metrics[name] = v
		fmt.Fprintf(w, "%s/%s %s %s\n", res.Workload, name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	for _, name := range sortedKeys(res.AsMeasured) {
		fmt.Fprintf(w, "%s as measured: %s %s\n", res.Workload, name, strconv.FormatFloat(res.AsMeasured[name], 'g', -1, 64))
	}
	data, _ := json.Marshal(out) // finite floats and strings only
	fmt.Fprintf(w, "%s\n", data)
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// child runs one workload in a fresh process of this same binary and
// parses its result line. The child's own report goes to w.
func child(w io.Writer, name string, seed uint64, seconds float64, trace int) (*line, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(outBytes), "\n"), "\n")
	for _, l := range lines[:max(len(lines)-1, 0)] {
		if !strings.HasPrefix(l, "host ") {
			fmt.Fprintln(w, l)
		}
	}
	var res line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %v", name, runErr, err)
	}
	return &res, nil
}

// runAll runs all six workloads, untraced then traced, and fails if any
// output check did.
func runAll(w io.Writer, seed uint64, seconds float64) int {
	code := 0
	for _, name := range workload.Names() {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(w, name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(w, "FAIL", err)
				code = 1
				continue
			}
			if !res.Correct {
				fmt.Fprintf(w, "FAIL %s: %d of %d operations failed their checks\n", name, res.Failed, res.Attempted)
				code = 1
			}
		}
	}
	return code
}

// set is one full set of runs: per workload, `runs` untraced runs on
// seeds seed..seed+runs-1 and one traced run, of which it keeps every
// metric's values.
type set struct {
	samples   map[string][]float64 // "workload/metric"
	attempted map[string]int       // untraced attempted counts of the first seed
	failed    bool
}

func newSet() *set { return &set{samples: map[string][]float64{}, attempted: map[string]int{}} }

func (s *set) run(w io.Writer, name string, seed uint64, seconds float64, trace int, first bool) {
	res, err := child(io.Discard, name, seed, seconds, trace)
	if err != nil || !res.Correct {
		fmt.Fprintf(w, "FAIL %s seed %d trace %d: %v\n", name, seed, trace, err)
		s.failed = true
		return
	}
	if first {
		s.attempted[name] = res.Attempted
	}
	for metric, v := range res.Metrics {
		s.samples[name+"/"+metric] = append(s.samples[name+"/"+metric], v.Value)
	}
}

// runSets runs two sets of the same code interleaved — run r of set a,
// run r of set b, and the other way round on the next seed — so that a
// host whose speed drifts over minutes slows both sets alike and their
// medians differ by what the code and the measurement do, not by when
// each set happened to run.
func runSets(w io.Writer, seed uint64, seconds float64, runs int) (a, b *set) {
	a, b = newSet(), newSet()
	for _, name := range workload.Names() {
		for r := 0; r <= runs; r++ {
			trace, sd := 0, seed+uint64(r)
			if r == runs {
				trace, sd = 1, seed
			}
			order := []*set{a, b}
			if r%2 == 1 {
				order = []*set{b, a}
			}
			for _, s := range order {
				s.run(w, name, sd, seconds, trace, r == 0)
			}
		}
	}
	return a, b
}

// exact are the counts that must repeat exactly between two sets of the
// same code on the same seeds.
func exact(key string) bool { return strings.HasSuffix(key, "/sim.events_per_inv") }

// compare checks two sets of the same code against each other: every
// end-to-end median within its bound of the other set's, every exact
// count equal. It prints one line per end-to-end metric — the spread of
// each set's runs is shown, not judged — and `FAIL workload/metric ...`
// for each violation, and returns how many violations there were.
func compare(w io.Writer, a, b *set) int {
	bad := 0
	fail := func(key, format string, args ...any) {
		fmt.Fprintf(w, "FAIL %s %s\n", key, fmt.Sprintf(format, args...))
		bad++
	}
	keys := make([]string, 0, len(a.samples))
	for k := range a.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		va, vb := stats.Median(a.samples[k]), stats.Median(b.samples[k])
		metric := k[strings.Index(k, "/")+1:]
		if exact(k) {
			if va != vb {
				fail(k, "must repeat exactly: %v then %v", va, vb)
			}
			continue
		}
		limit, ok := bound(metric)
		if !ok {
			continue
		}
		d := stats.RelDiff(va, vb)
		fmt.Fprintf(w, "     %-32s %14.6g %14.6g  apart %5.2f%%  spread %5.2f%% %5.2f%%  (bound %.0f%%)\n",
			k, va, vb, 100*d, 100*stats.IQRShare(a.samples[k]), 100*stats.IQRShare(b.samples[k]), 100*limit)
		if d > limit {
			fail(k, "medians %.6g and %.6g are %.2f%% apart, bound %.0f%%", va, vb, 100*d, 100*limit)
		}
	}
	// invoke_paced's operation count is fixed by its schedule.
	if x, y := a.attempted["invoke_paced"], b.attempted["invoke_paced"]; x != y {
		fail("invoke_paced/attempted", "must repeat exactly: %d then %d", x, y)
	}
	return bad
}

func runSelfcheck(w io.Writer, seed uint64, seconds float64, runs int) int {
	a, b := runSets(w, seed, seconds, runs)
	bad := compare(w, a, b)
	if a.failed || b.failed {
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(w, "selfcheck: %d violations\n", bad)
		return 1
	}
	fmt.Fprintln(w, "selfcheck: two sets of the same code agree within every bound")
	return 0
}
