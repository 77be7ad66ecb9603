package library

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/modlib"
	"repro/internal/pickle"
)

// testHost exposes the full module registry.
func testHost() *Host {
	reg := modlib.Standard()
	return &Host{Resolve: func(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
		if !reg.Has(name) {
			return nil, fmt.Errorf("no module named '%s'", name)
		}
		return reg.Build(name)
	}}
}

// pickled compiles src in a scratch interpreter and pickles the named
// function.
func pickled(t *testing.T, src, name string) []byte {
	t.Helper()
	ip := minipy.NewInterp(nil)
	env, err := ip.RunModule(src, "app")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := env.Get(name)
	if !ok {
		t.Fatalf("no %q", name)
	}
	data, err := pickle.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func pickledArgs(t *testing.T, args ...minipy.Value) []byte {
	t.Helper()
	data, err := pickle.Marshal(minipy.NewTuple(args...))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStartFromSource(t *testing.T) {
	spec := core.LibrarySpec{
		Name: "lib",
		Functions: []core.FunctionSpec{{
			Name:   "double",
			Source: "def double(x):\n    return x * 2\n",
		}},
	}
	lib, err := Start(spec, "lib@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	res, err := lib.Invoke("double", pickledArgs(t, minipy.Int(21)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := pickle.Unmarshal(res.Value, minipy.NewInterp(nil))
	if err != nil {
		t.Fatal(err)
	}
	if v.Repr() != "42" {
		t.Errorf("double(21) = %s", v.Repr())
	}
	if lib.Served() != 1 {
		t.Errorf("served = %d", lib.Served())
	}
}

func TestContextSetupSharedNamespace(t *testing.T) {
	// The setup function registers state via `global`; the function
	// reads it — the Figure 4 pattern.
	src := `
def setup(k):
    global key
    key = k * 10

def get(x):
    global key
    return key + x
`
	spec := core.LibrarySpec{
		Name:         "ctx",
		Functions:    []core.FunctionSpec{{Name: "get", Pickled: pickled(t, src, "get")}},
		ContextSetup: pickled(t, src, "setup"),
		ContextArgs:  pickledArgs(t, minipy.Int(7)),
	}
	lib, err := Start(spec, "ctx@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	res, err := lib.Invoke("get", pickledArgs(t, minipy.Int(3)))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := pickle.Unmarshal(res.Value, minipy.NewInterp(nil))
	if v.Repr() != "73" {
		t.Errorf("get(3) = %s, want 73 (setup state + arg)", v.Repr())
	}
	if lib.SetupDuration <= 0 {
		t.Errorf("setup duration not recorded")
	}
}

func TestSetupCanUseModules(t *testing.T) {
	src := `
def setup():
    global model
    import resnet
    model = resnet.load_model("resnet50")

def infer(img):
    global model
    return model.infer(img)
`
	spec := core.LibrarySpec{
		Name:         "ml",
		Functions:    []core.FunctionSpec{{Name: "infer", Pickled: pickled(t, src, "infer")}},
		ContextSetup: pickled(t, src, "setup"),
	}
	lib, err := Start(spec, "ml@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := lib.Invoke("infer", pickledArgs(t, minipy.Int(5)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lib.Invoke("infer", pickledArgs(t, minipy.Int(5)))
	if err != nil {
		t.Fatal(err)
	}
	if string(r1.Value) != string(r2.Value) {
		t.Errorf("same input through retained model gave different answers")
	}
}

func TestSetupFailsWithoutModule(t *testing.T) {
	src := `
def setup():
    import resnet

def f(x):
    return x
`
	spec := core.LibrarySpec{
		Name:         "broken",
		Functions:    []core.FunctionSpec{{Name: "f", Pickled: pickled(t, src, "f")}},
		ContextSetup: pickled(t, src, "setup"),
	}
	// A host with no modules: the import during setup must fail the
	// library install.
	_, err := Start(spec, "broken@test", &Host{})
	if err == nil || !strings.Contains(err.Error(), "no module named 'resnet'") {
		t.Errorf("expected import failure, got %v", err)
	}
}

func TestDirectModeRetainsMutation(t *testing.T) {
	src := `
def setup():
    global n
    n = 0

def bump():
    global n
    n = n + 1
    return n
`
	spec := core.LibrarySpec{
		Name:         "ctr",
		Mode:         core.ExecDirect,
		Functions:    []core.FunctionSpec{{Name: "bump", Pickled: pickled(t, src, "bump")}},
		ContextSetup: pickled(t, src, "setup"),
	}
	lib, err := Start(spec, "ctr@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < 3; i++ {
		res, err := lib.Invoke("bump", pickledArgs(t))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := pickle.Unmarshal(res.Value, minipy.NewInterp(nil))
		last = v.Repr()
	}
	if last != "3" {
		t.Errorf("direct mode counter = %s, want 3", last)
	}
}

func TestForkModeIsolatesMutation(t *testing.T) {
	src := `
def setup():
    global n
    n = 0

def bump():
    global n
    n = n + 1
    return n
`
	spec := core.LibrarySpec{
		Name:         "ctr",
		Mode:         core.ExecFork,
		Functions:    []core.FunctionSpec{{Name: "bump", Pickled: pickled(t, src, "bump")}},
		ContextSetup: pickled(t, src, "setup"),
	}
	lib, err := Start(spec, "ctr@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := lib.Invoke("bump", pickledArgs(t))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := pickle.Unmarshal(res.Value, minipy.NewInterp(nil))
		if v.Repr() != "1" {
			t.Errorf("fork invocation %d saw counter %s, want 1", i, v.Repr())
		}
	}
}

func TestMultipleFunctionsShareNamespace(t *testing.T) {
	src := `
def seta(v):
    global shared
    shared = v
    return True

def geta():
    global shared
    return shared
`
	spec := core.LibrarySpec{
		Name: "multi",
		Mode: core.ExecDirect,
		Functions: []core.FunctionSpec{
			{Name: "seta", Pickled: pickled(t, src, "seta")},
			{Name: "geta", Pickled: pickled(t, src, "geta")},
		},
	}
	lib, err := Start(spec, "multi@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Invoke("seta", pickledArgs(t, minipy.Str("hello"))); err != nil {
		t.Fatal(err)
	}
	res, err := lib.Invoke("geta", pickledArgs(t))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := pickle.Unmarshal(res.Value, minipy.NewInterp(nil))
	if minipy.ToStr(v) != "hello" {
		t.Errorf("functions do not share the library namespace: %s", v.Repr())
	}
	names := lib.Functions()
	if len(names) != 2 {
		t.Errorf("functions = %v", names)
	}
}

func TestInvokeErrors(t *testing.T) {
	spec := core.LibrarySpec{
		Name:      "e",
		Functions: []core.FunctionSpec{{Name: "f", Source: "def f(x):\n    return 1 / x\n"}},
	}
	lib, err := Start(spec, "e@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Invoke("nope", pickledArgs(t)); err == nil {
		t.Errorf("unknown function should fail")
	}
	if _, err := lib.Invoke("f", pickledArgs(t, minipy.Int(0))); err == nil {
		t.Errorf("division by zero should propagate")
	}
	if _, err := lib.Invoke("f", []byte("garbage")); err == nil {
		t.Errorf("corrupt args should fail")
	}
	// The library survives all of that.
	if _, err := lib.Invoke("f", pickledArgs(t, minipy.Int(2))); err != nil {
		t.Errorf("library broken after failed invocations: %v", err)
	}
}

func TestStartErrors(t *testing.T) {
	cases := []core.LibrarySpec{
		{Name: "bad-source", Functions: []core.FunctionSpec{{Name: "f", Source: "def f(:\n"}}},
		{Name: "no-code", Functions: []core.FunctionSpec{{Name: "f"}}},
		{Name: "wrong-name", Functions: []core.FunctionSpec{{Name: "g", Source: "def f(x):\n    return x\n"}}},
		{Name: "bad-pickle", Functions: []core.FunctionSpec{{Name: "f", Pickled: []byte("junk")}}},
	}
	for _, spec := range cases {
		if _, err := Start(spec, "x", testHost()); err == nil {
			t.Errorf("library %q should fail to start", spec.Name)
		}
	}
}

func TestVineDataModule(t *testing.T) {
	src := `
def setup():
    global names, text
    import vine_data
    names = vine_data.names()
    text = vine_data.load_text("notes.txt")

def peek():
    global names, text
    return (names, text)
`
	host := testHost()
	host.Inputs = map[string]*content.Object{
		"notes.txt": content.NewBlob("notes.txt", []byte("hello data")),
		"blob.bin":  content.NewBlob("blob.bin", []byte{1, 2, 3}),
	}
	spec := core.LibrarySpec{
		Name:         "data",
		Functions:    []core.FunctionSpec{{Name: "peek", Pickled: pickled(t, src, "peek")}},
		ContextSetup: pickled(t, src, "setup"),
	}
	lib, err := Start(spec, "data@test", host)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lib.Invoke("peek", pickledArgs(t))
	if err != nil {
		t.Fatal(err)
	}
	v, err := pickle.Unmarshal(res.Value, minipy.NewInterp(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := `(["blob.bin", "notes.txt"], "hello data")`
	if v.Repr() != want {
		t.Errorf("peek() = %s, want %s", v.Repr(), want)
	}
}

func TestVineDataMissingName(t *testing.T) {
	src := `
def bad():
    import vine_data
    return vine_data.load_text("ghost")
`
	spec := core.LibrarySpec{
		Name:      "data2",
		Functions: []core.FunctionSpec{{Name: "bad", Pickled: pickled(t, src, "bad")}},
	}
	lib, err := Start(spec, "data2@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Invoke("bad", pickledArgs(t)); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("missing data name should fail: %v", err)
	}
}

const counterSrc = `
def setup():
    global n
    n = 0

def bump():
    global n
    n = n + 1
    return n

def count(k):
    i = 0
    while i < k:
        i = i + 1
    return i

def spin():
    while True:
        pass
`

func counterSpec(t *testing.T, mode core.ExecMode) core.LibrarySpec {
	t.Helper()
	spec := core.LibrarySpec{Name: "ctr", Mode: mode, ContextSetup: pickled(t, counterSrc, "setup")}
	for _, name := range []string{"bump", "count", "spin"} {
		spec.Functions = append(spec.Functions, core.FunctionSpec{Name: name, Pickled: pickled(t, counterSrc, name)})
	}
	return spec
}

// TestForkSlotsServeConcurrently: a fork library's slots each keep
// their own child interpreter and run side by side; every invocation,
// on whichever slot and however many that slot served before, sees the
// context as setup left it.
func TestForkSlotsServeConcurrently(t *testing.T) {
	lib, err := Start(counterSpec(t, core.ExecFork), "ctr@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	want, err := pickle.Marshal(minipy.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	args := pickledArgs(t)
	const slots, each = 4, 50
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := lib.NewSlot()
			for i := 0; i < each; i++ {
				res, err := slot.Invoke("bump", args)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(res.Value, want) {
					t.Errorf("a fork invocation saw another's mutation of the context")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := lib.Served(); got != slots*each {
		t.Errorf("served = %d, want %d", got, slots*each)
	}
}

// TestStepLimitBoundsSetupAndEachInvocation: Host.StepLimit stops a
// runaway context setup and a runaway invocation, and is a budget per
// invocation — a slot serves any number of calls that each stay under
// it, including after one that did not.
func TestStepLimitBoundsSetupAndEachInvocation(t *testing.T) {
	const limit = 10000
	host := testHost()
	host.StepLimit = limit

	runaway := counterSpec(t, core.ExecDirect)
	runaway.ContextSetup = pickled(t, counterSrc, "spin")
	if _, err := Start(runaway, "ctr@test", host); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("runaway context setup: %v, want a step limit failure", err)
	}

	// k iterations of count's loop take about three quarters of the limit:
	// one call fits in a budget, two would not.
	ip := minipy.NewInterp(nil)
	env, err := ip.RunModule(counterSrc, "app")
	if err != nil {
		t.Fatal(err)
	}
	count, _ := env.Get("count")
	base := ip.Steps()
	if _, err := ip.Call(count, []minipy.Value{minipy.Int(100)}, nil); err != nil {
		t.Fatal(err)
	}
	k := minipy.Int(limit * 3 / 4 * 100 / (ip.Steps() - base))

	for _, mode := range []core.ExecMode{core.ExecDirect, core.ExecFork} {
		lib, err := Start(counterSpec(t, mode), "ctr@test", host)
		if err != nil {
			t.Fatal(err)
		}
		slot := lib.NewSlot()
		if _, err := slot.Invoke("spin", pickledArgs(t)); err == nil || !strings.Contains(err.Error(), "step limit") {
			t.Errorf("%v: runaway invocation: %v, want a step limit failure", mode, err)
		}
		for i := 0; i < 10; i++ {
			if _, err := slot.Invoke("count", pickledArgs(t, k)); err != nil {
				t.Fatalf("%v: invocation %d after the runaway one: %v", mode, i, err)
			}
		}
	}
}
