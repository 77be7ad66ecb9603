package taskvine

import (
	"slices"
	"strings"

	"repro/internal/content"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/poncho"
)

const collectTimeout = 30 * time.Second

// installs reports whether env installs the named package.
func installs(env *poncho.EnvSpec, name string) bool {
	return env != nil && slices.ContainsFunc(env.Packages, func(p poncho.PinnedPackage) bool { return p.Name == name })
}

// newDatasetObject builds a small shareable dataset artifact.
func newDatasetObject() *content.Object {
	return content.NewDataset("dataset.tar.gz", []byte("rows: 1000"), 64<<20)
}

// appSource is the LNNI-style application of Figure 5: a context setup
// that loads a model into the library's memory, and a short inference
// function that reuses it.
const appSource = `
def context_setup():
    global model
    import resnet
    model = resnet.load_model("resnet50")

def classify(seed, n):
    import imageproc
    global model
    batch = imageproc.generate_batch(seed, n)
    return model.infer_batch(batch)

def classify_task(seed, n):
    import resnet
    import imageproc
    model = resnet.load_model("resnet50")
    batch = imageproc.generate_batch(seed, n)
    return model.infer_batch(batch)
`

func newTestManager(t *testing.T, workers int, opts Options) *Manager {
	t.Helper()
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	if workers > 0 {
		if err := m.SpawnLocalWorkers(workers, WorkerOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// localExpected computes the expected inference labels by running the
// same code locally in the application interpreter.
func localExpected(t *testing.T, m *Manager, env *minipy.Env, seed, n int) minipy.Value {
	t.Helper()
	fn, err := FuncFrom(env, "classify_task")
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Interp().Call(fn, []minipy.Value{minipy.Int(seed), minipy.Int(n)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestL3LibraryInvocationEndToEnd(t *testing.T) {
	m := newTestManager(t, 2, Options{})
	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("mllib", LibraryOptions{
		ContextSetup: "context_setup",
		Slots:        4,
		Mode:         core.ExecFork,
	}, env, "classify")
	if err != nil {
		t.Fatal(err)
	}
	if !installs(lib.Environment(), "resnet") {
		t.Fatalf("library environment should include resnet: %v", lib.Environment())
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}

	const calls = 12
	for i := 0; i < calls; i++ {
		if _, err := m.Call("mllib", "classify", minipy.Int(i), minipy.Int(4)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(calls, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("invocation %d failed: %s", r.ID, r.Err)
		}
	}
	// Remote results must equal local execution of the same function.
	want := localExpected(t, m, env, 3, 4)
	got, err := m.DecodeValue(findResult(t, results, 4)) // id 4 = seed 3 (ids start at 1)
	if err != nil {
		t.Fatal(err)
	}
	if !minipy.Equal(want, got) {
		t.Errorf("remote result %s != local %s", got.Repr(), want.Repr())
	}

	// Context reuse must be visible: far fewer library deployments than
	// invocations, and a positive share value.
	instances, served := m.LibraryDeployments()
	if instances == 0 || instances > 2 {
		t.Errorf("library instances = %d, want 1..2", instances)
	}
	if served != calls {
		t.Errorf("total share value = %d, want %d", served, calls)
	}
}

func findResult(t *testing.T, results []core.Result, id int64) core.Result {
	t.Helper()
	for _, r := range results {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no result with id %d", id)
	return core.Result{}
}

func TestL2WrappedTasksCacheEnvironment(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := FuncFrom(env, "classify_task")
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Environment() == nil || len(wrapped.Environment().Packages) != 144 {
		t.Fatalf("wrapped env should be the 144-package LNNI environment")
	}

	const calls = 6
	for i := 0; i < calls; i++ {
		if _, err := m.SubmitWrappedCall(wrapped, core.L2, core.Resources{Cores: 2}, minipy.Int(i), minipy.Int(3)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(calls, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("task failed: %s", r.Err)
		}
	}
	want := localExpected(t, m, env, 0, 3)
	got, err := m.DecodeValue(findResult(t, results, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !minipy.Equal(want, got) {
		t.Errorf("L2 result %s != local %s", got.Repr(), want.Repr())
	}

	// The environment and function blobs moved to the worker exactly
	// once each (data-to-worker binding); only args move per call.
	w := m.LocalWorkers()[0]
	if !w.Cache().Has(wrapped.env.ID) {
		t.Errorf("environment tarball not cached on worker")
	}
	if !w.Cache().IsUnpacked(wrapped.env.ID) {
		t.Errorf("environment tarball not unpacked")
	}
	reads, _ := m.SharedFS().Stats()
	if reads != 0 {
		t.Errorf("L2 should not read the shared FS, saw %d reads", reads)
	}
}

func TestL1WrappedTasksHammerSharedFS(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := FuncFrom(env, "classify_task")
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := m.SubmitWrappedCall(wrapped, core.L1, core.Resources{Cores: 2}, minipy.Int(i), minipy.Int(2)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(calls, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("task failed: %s", r.Err)
		}
	}
	// Every single task re-read code and environment from the shared
	// filesystem: 2 objects × 5 tasks.
	reads, bytes := m.SharedFS().Stats()
	if reads != 2*calls {
		t.Errorf("shared FS reads = %d, want %d", reads, 2*calls)
	}
	if bytes < int64(calls)*wrapped.env.LogicalSize {
		t.Errorf("shared FS bytes = %d, want at least %d", bytes, int64(calls)*wrapped.env.LogicalSize)
	}
	// And nothing was retained on the worker.
	w := m.LocalWorkers()[0]
	if w.Cache().Has(wrapped.env.ID) {
		t.Errorf("L1 must not cache the environment")
	}
}

func TestL1AndL2AndL3AgreeOnResults(t *testing.T) {
	m := newTestManager(t, 2, Options{})
	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := FuncFrom(env, "classify_task")
	wrapped, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("mllib", LibraryOptions{
		ContextSetup: "context_setup", Slots: 2,
	}, env, "classify")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}

	id1, _ := m.SubmitWrappedCall(wrapped, core.L1, core.Resources{Cores: 1}, minipy.Int(99), minipy.Int(4))
	id2, _ := m.SubmitWrappedCall(wrapped, core.L2, core.Resources{Cores: 1}, minipy.Int(99), minipy.Int(4))
	id3, err := m.Call("mllib", "classify", minipy.Int(99), minipy.Int(4))
	if err != nil {
		t.Fatal(err)
	}
	results, err := m.Collect(3, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[int64]minipy.Value{}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("result %d failed: %s", r.ID, r.Err)
		}
		v, err := m.DecodeValue(r)
		if err != nil {
			t.Fatal(err)
		}
		vals[r.ID] = v
	}
	if !minipy.Equal(vals[id1], vals[id2]) || !minipy.Equal(vals[id2], vals[id3]) {
		t.Errorf("levels disagree: L1=%s L2=%s L3=%s", vals[id1].Repr(), vals[id2].Repr(), vals[id3].Repr())
	}
}

func TestPeerTransferDistribution(t *testing.T) {
	m := newTestManager(t, 4, Options{PeerTransferCap: 2})
	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := FuncFrom(env, "classify_task")
	wrapped, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	// Enough single-core L2 tasks to hit all 4 workers.
	const calls = 24
	for i := 0; i < calls; i++ {
		if _, err := m.SubmitWrappedCall(wrapped, core.L2, core.Resources{Cores: 16}, minipy.Int(i), minipy.Int(2)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(calls, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("task failed: %s", r.Err)
		}
	}
	stats := m.Stats()
	if stats.PeerTransfers == 0 {
		t.Errorf("expected some worker-to-worker transfers, got none (direct=%d)", stats.DirectTransfers)
	}
	// The environment ends up on all workers even though the manager
	// sent it directly far fewer than 4 times.
	if got := m.inner.ObjectHolders(wrapped.env); got < 3 {
		t.Errorf("environment on %d workers, want >= 3", got)
	}
}

func TestManagerOnlyDistribution(t *testing.T) {
	m := newTestManager(t, 3, Options{DisablePeerTransfers: true})
	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := FuncFrom(env, "classify_task")
	wrapped, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 9
	for i := 0; i < calls; i++ {
		if _, err := m.SubmitWrappedCall(wrapped, core.L2, core.Resources{Cores: 16}, minipy.Int(i), minipy.Int(2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Collect(calls, collectTimeout); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	if stats.PeerTransfers != 0 {
		t.Errorf("peer transfers disabled but saw %d", stats.PeerTransfers)
	}
	if stats.DirectTransfers == 0 {
		t.Errorf("expected direct transfers")
	}
}

func TestEmptyLibraryEviction(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(`
def seta():
    global tag
    tag = "a"

def fa(x):
    global tag
    return tag + str(x)

def setb():
    global tag
    tag = "b"

def fb(x):
    global tag
    return tag + str(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	liba, err := m.CreateLibraryFromFunctions("liba", LibraryOptions{ContextSetup: "seta"}, env, "fa")
	if err != nil {
		t.Fatal(err)
	}
	libb, err := m.CreateLibraryFromFunctions("libb", LibraryOptions{ContextSetup: "setb"}, env, "fb")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(liba); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(libb); err != nil {
		t.Fatal(err)
	}
	// liba takes the whole single worker; an invocation of libb must
	// evict the now-empty liba instance and still succeed.
	if _, err := m.Call("liba", "fa", minipy.Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Collect(1, collectTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("libb", "fb", minipy.Int(2)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Ok {
		t.Fatalf("libb invocation failed: %s", results[0].Err)
	}
	v, _ := m.DecodeValue(results[0])
	if minipy.ToStr(v) != "b2" {
		t.Errorf("fb(2) = %s, want b2", v.Repr())
	}
	if got := m.Stats().LibrariesEvicted; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

func TestInvocationOfUnknownLibraryFails(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	if _, err := m.Call("nolib", "f", minipy.Int(1)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Ok || !strings.Contains(results[0].Err, "unknown library") {
		t.Errorf("expected unknown-library failure, got %+v", results[0])
	}
}

func TestInvocationErrorPropagates(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec("def boom(x):\n    return 1 / x\n")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("blib", LibraryOptions{}, env, "boom")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("blib", "boom", minipy.Int(0)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Ok || !strings.Contains(results[0].Err, "division by zero") {
		t.Errorf("expected division error, got %+v", results[0])
	}
	// The library survives a failed invocation and serves the next one.
	if _, err := m.Call("blib", "boom", minipy.Int(2)); err != nil {
		t.Fatal(err)
	}
	results, err = m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Ok {
		t.Fatalf("second invocation failed: %s", results[0].Err)
	}
}

// TestDeepValuesFailTheInvocation: a result nested past
// minipy.MaxValueDepth, or a self-containing list met by str(), == or <,
// fails its invocation with an error naming the bound — each used to
// kill the worker with a stack overflow — and the worker serves the next
// call.
func TestDeepValuesFailTheInvocation(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(`
def nest(n):
    x = []
    for i in range(n):
        x = [x]
    return x

def loop(op):
    l = [1]
    l.append(l)
    if op == 0:
        return str(l)
    if op == 1:
        return l == l
    return l < l
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("deeplib", LibraryOptions{}, env, "nest", "loop")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fn  string
		arg int
	}{{"nest", 5000}, {"loop", 0}, {"loop", 1}, {"loop", 2}, {"nest", 10}} {
		if _, err := m.Call("deeplib", c.fn, minipy.Int(c.arg)); err != nil {
			t.Fatal(err)
		}
		results, err := m.Collect(1, collectTimeout)
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if c.arg == 10 {
			if !r.Ok {
				t.Fatalf("the worker did not serve the call after: %s", r.Err)
			}
			continue
		}
		if r.Ok || !strings.Contains(r.Err, "nested deeper than 1000 levels") {
			t.Errorf("%s(%d): %+v, want a failure naming the bound", c.fn, c.arg, r)
		}
	}
}

func TestDirectModeRetainsMutations(t *testing.T) {
	// A direct-mode library shares memory between invocations: a
	// counter bumped by each invocation keeps growing (§3.4 step 4).
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(`
def setup():
    global count
    count = 0

def bump():
    global count
    count = count + 1
    return count
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("ctr", LibraryOptions{
		ContextSetup: "setup", Mode: core.ExecDirect, Slots: 1,
	}, env, "bump")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Call("ctr", "bump"); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(3, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	max := int64(0)
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("bump failed: %s", r.Err)
		}
		v, _ := m.DecodeValue(r)
		if n := int64(v.(minipy.Int)); n > max {
			max = n
		}
	}
	if max != 3 {
		t.Errorf("direct mode counter reached %d, want 3", max)
	}
}

func TestForkModeIsolatesMutations(t *testing.T) {
	// Fork mode gives each invocation a copy-on-write view: the
	// library's counter never advances.
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(`
def setup():
    global count
    count = 0

def bump():
    global count
    count = count + 1
    return count
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("ctr2", LibraryOptions{
		ContextSetup: "setup", Mode: core.ExecFork, Slots: 1,
	}, env, "bump")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Call("ctr2", "bump"); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(3, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("bump failed: %s", r.Err)
		}
		v, _ := m.DecodeValue(r)
		if n := int64(v.(minipy.Int)); n != 1 {
			t.Errorf("fork mode counter = %d, want 1 every time", n)
		}
	}
}

func TestLambdaAndCapturedFunctionsPickleIntoLibrary(t *testing.T) {
	// Functions with captures can't ship as source; the library must
	// fall back to pickled code objects transparently.
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(`
scale = 10
def helper(x):
    return x * scale

def f(x):
    return helper(x) + 1
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("caplib", LibraryOptions{}, env, "f")
	if err != nil {
		t.Fatal(err)
	}
	if lib.Spec().Functions[0].Source != "" {
		t.Fatalf("function with captures should be pickled, not shipped as source")
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("caplib", "f", minipy.Int(4)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Ok {
		t.Fatalf("invocation failed: %s", results[0].Err)
	}
	v, _ := m.DecodeValue(results[0])
	if v.Repr() != "41" {
		t.Errorf("f(4) = %s, want 41", v.Repr())
	}
}

func TestLibraryInputDataSharedAcrossInvocations(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(`
def lookup(i):
    return i * i
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("dlib", LibraryOptions{Slots: 2}, env, "lookup")
	if err != nil {
		t.Fatal(err)
	}
	obj := newDatasetObject()
	lib.AddInput(obj, true)
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Call("dlib", "lookup", minipy.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(4, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("lookup failed: %s", r.Err)
		}
	}
	// Exactly one copy of the dataset on the worker.
	w := m.LocalWorkers()[0]
	if !w.Cache().Has(obj.ID) {
		t.Errorf("library input not cached")
	}
}

func TestWorkerResourceLimitsRespected(t *testing.T) {
	m, err := NewManager(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	if err := m.SpawnLocalWorkers(1, WorkerOptions{Resources: core.Resources{Cores: 4, MemoryMB: 1024, DiskMB: 1024}}); err != nil {
		t.Fatal(err)
	}
	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := FuncFrom(env, "classify_task")
	wrapped, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	// 6 two-core tasks on a 4-core worker: they must all finish anyway
	// (queued), never failing for resources.
	for i := 0; i < 6; i++ {
		if _, err := m.SubmitWrappedCall(wrapped, core.L2, core.Resources{Cores: 2, MemoryMB: 256, DiskMB: 128}, minipy.Int(i), minipy.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(6, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("task failed: %s", r.Err)
		}
	}
}

func TestCreateLibraryAutoHoistsContext(t *testing.T) {
	// The function does its own model load; the auto-hoister must pull
	// it out into a generated context-setup so the library retains it.
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	lib, split, err := m.CreateLibraryAuto("auto", LibraryOptions{Slots: 2, Mode: core.ExecFork}, env, "classify_task")
	if err != nil {
		t.Fatal(err)
	}
	if !split.Hoistable() || split.HoistedStmts != 3 {
		t.Fatalf("expected imports + model load hoisted, got %d:\n%s", split.HoistedStmts, split.SetupSource)
	}
	if len(lib.Spec().ContextSetup) == 0 {
		t.Fatalf("auto library has no generated context setup")
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	const calls = 4
	for i := 0; i < calls; i++ {
		if _, err := m.Call("auto", "classify_task", minipy.Int(int64(i)), minipy.Int(3)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(calls, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// The auto-hoisted function must compute exactly what the original
	// computes.
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("auto invocation failed: %s", r.Err)
		}
	}
	want := localExpected(t, m, env, 0, 3)
	got, err := m.DecodeValue(findResult(t, results, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !minipy.Equal(want, got) {
		t.Errorf("auto-hoisted result %s != original %s", got.Repr(), want.Repr())
	}
}

func TestCreateLibraryAutoNoHoistFallback(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec("def plain(x):\n    return x + x\n")
	if err != nil {
		t.Fatal(err)
	}
	lib, split, err := m.CreateLibraryAuto("plain-lib", LibraryOptions{}, env, "plain")
	if err != nil {
		t.Fatal(err)
	}
	if split.Hoistable() {
		t.Errorf("nothing should hoist from a param-only body")
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("plain-lib", "plain", minipy.Int(21)); err != nil {
		t.Fatal(err)
	}
	results, err := m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.DecodeValue(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Repr() != "42" {
		t.Errorf("plain(21) = %s", v.Repr())
	}
}

func TestLibraryReadsBoundInputData(t *testing.T) {
	// The data-to-context binding (§2.2.1): the setup function loads a
	// dataset bound to the library; invocations share the loaded copy.
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(`
def setup():
    global rows
    import vine_data
    rows = vine_data.load_pickle("table.pkl")

def lookup(key):
    global rows
    return rows.get(key, -1)
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("datalib", LibraryOptions{
		ContextSetup: "setup", Slots: 2,
	}, env, "lookup")
	if err != nil {
		t.Fatal(err)
	}
	rows := minipy.NewDict()
	for key, v := range map[string]int64{"a": 10, "b": 20} {
		if err := rows.Set(minipy.Str(key), minipy.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := pickle.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	table := content.NewDataset("table.pkl", data, 1<<20)
	lib.AddInput(table, true)
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "missing"} {
		if _, err := m.Call("datalib", "lookup", minipy.Str(key)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := m.Collect(3, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, r := range results {
		if !r.Ok {
			t.Fatalf("lookup failed: %s", r.Err)
		}
		v, err := m.DecodeValue(r)
		if err != nil {
			t.Fatal(err)
		}
		got[v.Repr()] = true
	}
	for _, want := range []string{"10", "20", "-1"} {
		if !got[want] {
			t.Errorf("missing result %s (have %v)", want, got)
		}
	}
}
