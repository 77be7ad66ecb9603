package taskvine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/minipy"
)

// API-surface tests: argument validation, error paths, and a
// mixed-workload soak of the live engine.

func TestFuncFromErrors(t *testing.T) {
	m := newTestManager(t, 0, Options{})
	env, err := m.Exec("x = 5\ndef f(a):\n    return a\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FuncFrom(env, "missing"); err == nil {
		t.Errorf("missing name accepted")
	}
	if _, err := FuncFrom(env, "x"); err == nil || !strings.Contains(err.Error(), "not a function") {
		t.Errorf("non-function accepted: %v", err)
	}
	if _, err := FuncFrom(env, "f"); err != nil {
		t.Errorf("valid function rejected: %v", err)
	}
}

func TestCreateLibraryValidation(t *testing.T) {
	m := newTestManager(t, 0, Options{})
	env, err := m.Exec("def f(a):\n    return a\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateLibraryFromFunctions("lib", LibraryOptions{}, env); err == nil {
		t.Errorf("library with no functions accepted")
	}
	if _, err := m.CreateLibraryFromFunctions("lib", LibraryOptions{ContextSetup: "ghost"}, env, "f"); err == nil {
		t.Errorf("unknown context setup accepted")
	}
	lib, err := m.CreateLibraryFromFunctions("lib", LibraryOptions{}, env, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err == nil {
		t.Errorf("duplicate install accepted")
	}
}

func TestDecodeValueOfFailedResult(t *testing.T) {
	m := newTestManager(t, 0, Options{})
	if _, err := m.DecodeValue(core.Result{ID: 1, Ok: false, Err: "boom"}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failed result decoded: %v", err)
	}
}

func TestWrapFunctionPublishesToSharedFS(t *testing.T) {
	m := newTestManager(t, 0, Options{})
	env, err := m.Exec("def f(a):\n    import mathx\n    return mathx.floor(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := FuncFrom(env, "f")
	w, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	// Code and environment are retrievable from the shared FS for L1.
	if _, err := m.SharedFS().Fetch(w.funcOby.ID); err != nil {
		t.Errorf("func blob not on shared FS: %v", err)
	}
	if _, err := m.SharedFS().Fetch(w.env.ID); err != nil {
		t.Errorf("env tarball not on shared FS: %v", err)
	}
	if !installs(w.Environment(), "mathx") {
		t.Errorf("environment missing mathx")
	}
	// With no Options.Index the manager resolves against the standard one.
	if _, err := m.Index().ResolveClosure([]string{"mathx"}); err != nil {
		t.Errorf("the manager's index has no mathx")
	}
	// L3 is not a wrapped level.
	if _, err := m.SubmitWrappedCall(w, core.L3, core.Resources{}); err == nil {
		t.Errorf("L3 wrapped call accepted")
	}
}

func TestAddrIsDialable(t *testing.T) {
	m := newTestManager(t, 0, Options{})
	if m.Addr() == "" || !strings.Contains(m.Addr(), ":") {
		t.Errorf("addr = %q", m.Addr())
	}
}

func TestContextArgsFlow(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec(`
def setup(base, label):
    global prefix
    prefix = label + str(base)

def tag(x):
    global prefix
    return prefix + "-" + str(x)
`)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := m.CreateLibraryFromFunctions("taglib", LibraryOptions{
		ContextSetup: "setup",
		ContextArgs:  []minipy.Value{minipy.Int(9), minipy.Str("v")},
	}, env, "tag")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("taglib", "tag", minipy.Int(3)); err != nil {
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
	if minipy.ToStr(v) != "v9-3" {
		t.Errorf("tag(3) = %s", v.Repr())
	}
}

// TestMixedWorkloadSoak drives the engine with three libraries and
// wrapped tasks concurrently from many goroutines — the kind of
// arbitrary invocation stream §3.6 describes arriving from Parsl.
func TestMixedWorkloadSoak(t *testing.T) {
	m := newTestManager(t, 3, Options{})
	env, err := m.Exec(`
def fa(x):
    return x + 1

def fb(x):
    return x * 2

def fc(x):
    import mathx
    return mathx.floor(x / 2)
`)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Resources{Cores: 4, MemoryMB: 4 << 10, DiskMB: 4 << 10}
	for _, name := range []string{"fa", "fb", "fc"} {
		lib, err := m.CreateLibraryFromFunctions("lib-"+name, LibraryOptions{
			Slots: 4, Mode: core.ExecFork, Resources: res,
		}, env, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.InstallLibrary(lib); err != nil {
			t.Fatal(err)
		}
	}
	fnB, _ := FuncFrom(env, "fb")
	wrapped, err := m.WrapFunction(fnB)
	if err != nil {
		t.Fatal(err)
	}

	const perKind = 40
	var wg sync.WaitGroup
	submit := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perKind; i++ {
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	submit(func(i int) error {
		_, err := m.Call("lib-fa", "fa", minipy.Int(int64(i)))
		return err
	})
	submit(func(i int) error {
		_, err := m.Call("lib-fb", "fb", minipy.Int(int64(i)))
		return err
	})
	submit(func(i int) error {
		_, err := m.Call("lib-fc", "fc", minipy.Int(int64(i)))
		return err
	})
	submit(func(i int) error {
		_, err := m.SubmitWrappedCall(wrapped, core.L2, core.Resources{Cores: 1}, minipy.Int(int64(i)))
		return err
	})
	wg.Wait()

	results, err := m.Collect(4*perKind, collectTimeout)
	if err != nil {
		t.Fatalf("soak collect: %v (stats %+v)", err, m.Stats())
	}
	failures := 0
	for _, r := range results {
		if !r.Ok {
			failures++
			t.Logf("failure: %s", r.Err)
		}
	}
	if failures != 0 {
		t.Errorf("%d failures of %d mixed operations", failures, 4*perKind)
	}
	st := m.Stats()
	if st.InvocationsDone != 3*perKind || st.TasksDone != perKind {
		t.Errorf("stats = %+v", st)
	}
}

func TestSubmitRawTask(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	script := fmt.Sprintf(`
import vine_runtime
total = 0
for i in range(%d):
    total += i
vine_runtime.store_result(total)
`, 10)
	id := m.SubmitTask(script, core.Resources{Cores: 1})
	results, err := m.Collect(1, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != id {
		t.Errorf("wrong id")
	}
	v, err := m.DecodeValue(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if v.Repr() != "45" {
		t.Errorf("raw task = %s", v.Repr())
	}
}
