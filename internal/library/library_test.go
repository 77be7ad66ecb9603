package library

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/modlib"
	"repro/internal/pickle"
)

// raceDetector is set under -race (race_test.go), where sync.Pool drops
// some of what it is given and the pickle coders are then allocated.
var raceDetector bool

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
	if len(lib.funcs) != 2 {
		t.Errorf("%d functions, want 2", len(lib.funcs))
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

// TestVineDataIsSharedAndNeedsALibrary: every library resolves one
// vine_data module, and its builtins called from an interpreter that is
// no library's say so instead of reading some other library's inputs.
func TestVineDataIsSharedAndNeedsALibrary(t *testing.T) {
	a, _ := testHost().ResolveModule(nil, "vine_data")
	b, _ := (&Host{}).ResolveModule(nil, "vine_data")
	if a != b {
		t.Error("two libraries resolve vine_data to different modules")
	}
	for _, name := range []string{"load_text", "load_pickle", "names"} {
		fn := a.Attrs[name].(*minipy.Builtin)
		_, err := fn.Fn(minipy.NewInterp(nil), []minipy.Value{minipy.Str("notes.txt")})
		if err == nil || !strings.Contains(err.Error(), "only available to library code") {
			t.Errorf("%s() outside a library: %v", name, err)
		}
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

// noopSlot is a slot of a direct library serving the benchmark's no-op,
// which returns its one argument.
func noopSlot(t *testing.T) *Slot {
	t.Helper()
	spec := core.LibrarySpec{Name: "dispatch", Functions: []core.FunctionSpec{{Name: "noop", Source: "def noop(x):\n    return x\n"}}}
	lib, err := Start(spec, "dispatch@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	return lib.NewSlot()
}

// TestSlotInvokeAllocatesOnlyItsResult: a warm slot decodes its arguments
// into a slice it keeps and pickles its result into a buffer it keeps, so
// an invocation allocates nothing — no argument tuple, no element slice,
// no result bytes — while its result fits that buffer, and only its
// result's bytes once it does not. A one-shot Library.Invoke has no warm
// slot and pays for its argument slice and its result.
func TestSlotInvokeAllocatesOnlyItsResult(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops encoders and decoders under -race")
	}
	// A string of 128 bytes to 16 KiB pickles to 5 bytes more.
	atCap, overCap := strings.Repeat("k", maxKeptResult-5), strings.Repeat("o", maxKeptResult-4)
	spec := core.LibrarySpec{Name: "dispatch", Functions: []core.FunctionSpec{
		{Name: "noop", Source: "def noop(x):\n    return x\n"},
		// A global, not a literal: the interpreter boxes a literal each time.
		{Name: "at_cap", Source: "AT = '" + atCap + "'\ndef at_cap(x):\n    return AT\n"},
		{Name: "over_cap", Source: "OVER = '" + overCap + "'\ndef over_cap(x):\n    return OVER\n"},
	}}
	lib, err := Start(spec, "dispatch@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	slot, args := lib.NewSlot(), pickledArgs(t, minipy.Int(7))
	for _, c := range []struct {
		function string
		size     int
		want     float64
	}{{"noop", 4, 0}, {"at_cap", maxKeptResult, 0}, {"over_cap", maxKeptResult + 1, 1}} {
		var res InvokeResult
		if n := testing.AllocsPerRun(100, func() {
			if res, err = slot.Invoke(c.function, args); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("%s: an invocation allocated %v times, want %v", c.function, n, c.want)
		}
		if len(res.Value) != c.size {
			t.Errorf("%s: a %d-byte result, want %d", c.function, len(res.Value), c.size)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := lib.Invoke("noop", args); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("a one-shot invocation allocated %v times, want 2 (its argument slice, its result)", n)
	}
}

// TestSlotResultValidUntilNextInvoke: a result is pickled into the slot's
// buffer and overwritten by the slot's next call, and a result too long
// for the buffer the slot keeps leaves no buffer behind that long.
func TestSlotResultValidUntilNextInvoke(t *testing.T) {
	slot := noopSlot(t)
	// A string of 128 bytes to 16 KiB pickles to 5 bytes more.
	for _, size := range []int{maxKeptResult, maxKeptResult + 1} {
		first := strings.Repeat("a", size-5)
		want, err := pickle.Marshal(minipy.Str(first))
		if err != nil {
			t.Fatal(err)
		}
		res, err := slot.Invoke("noop", pickledArgs(t, minipy.Str(first)))
		if err != nil || !bytes.Equal(res.Value, want) {
			t.Fatalf("a %d-byte result: %x (%v), want %x", size, res.Value, err, want)
		}
		if cap(slot.out) > maxKeptResult {
			t.Errorf("after a %d-byte result the slot keeps a %d-byte buffer, over its %d-byte bound", size, cap(slot.out), maxKeptResult)
		}
		if _, err := slot.Invoke("noop", pickledArgs(t, minipy.Str(strings.Repeat("b", size-5)))); err != nil {
			t.Fatal(err)
		}
		if size <= maxKeptResult && bytes.Equal(res.Value, want) {
			t.Errorf("a %d-byte result outlived the slot's next call: the slot did not reuse its buffer", size)
		}
	}
}

// TestSlotKilobyteResultAllocatesNothing: a thousand calls that each return a 1 KiB
// value pickle it into the one buffer the slot keeps: no call after the
// first allocates for its result.
func TestSlotKilobyteResultAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops encoders and decoders under -race")
	}
	kib := strings.Repeat("k", 1<<10)
	spec := core.LibrarySpec{Name: "kib", Functions: []core.FunctionSpec{
		{Name: "kib", Source: "KIB = '" + kib + "'\ndef kib(x):\n    return KIB\n"},
	}}
	lib, err := Start(spec, "kib@test", testHost())
	if err != nil {
		t.Fatal(err)
	}
	slot, args := lib.NewSlot(), pickledArgs(t, minipy.Int(1))
	want, err := pickle.Marshal(minipy.Str(kib))
	if err != nil {
		t.Fatal(err)
	}
	var res InvokeResult
	if n := testing.AllocsPerRun(1000, func() {
		if res, err = slot.Invoke("kib", args); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a call returning 1 KiB allocated %v times, want 0", n)
	}
	if !bytes.Equal(res.Value, want) {
		t.Errorf("the 1 KiB result came out as %d bytes", len(res.Value))
	}
}

// TestSlotKeepsNoArgument: once an invocation returns, successful or not,
// its slot holds none of its arguments, so a large argument is garbage as
// soon as its call is over.
func TestSlotKeepsNoArgument(t *testing.T) {
	slot := noopSlot(t)
	big := minipy.NewList(minipy.Str(strings.Repeat("x", 1<<10)))
	for _, args := range [][]minipy.Value{{big}, {big, big}} {
		if _, err := slot.Invoke("noop", pickledArgs(t, args...)); len(args) == 1 && err != nil {
			t.Fatal(err)
		}
		if kept := slot.args[:cap(slot.args)]; len(slot.args) != 0 || slices.ContainsFunc(kept, func(v minipy.Value) bool { return v != nil }) {
			t.Fatalf("after a call with %d arguments the slot holds %v", len(args), kept)
		}
	}
}
