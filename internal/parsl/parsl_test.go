package parsl

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/taskvine"
)

func defineFn(t *testing.T, ip *minipy.Interp, src, name string) *minipy.Func {
	t.Helper()
	env, err := ip.RunModule(src, "app")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := env.Get(name)
	if !ok {
		t.Fatalf("no %q", name)
	}
	return v.(*minipy.Func)
}

// localExecutor runs invocations in-process on one interpreter, one at
// a time: the smallest Executor, for the dataflow kernel's own tests.
type localExecutor struct {
	ip *minipy.Interp
	mu sync.Mutex
}

func (e *localExecutor) Execute(fn *minipy.Func, args []minipy.Value) (minipy.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ip.Call(fn, args, nil)
}

func TestLocalExecutorChain(t *testing.T) {
	ip := minipy.NewInterp(nil)
	add := defineFn(t, ip, "def add(a, b):\n    return a + b\n", "add")
	dbl := defineFn(t, ip, "def dbl(a):\n    return a * 2\n", "dbl")

	dfk := NewDFK(&localExecutor{ip: ip})
	f1 := dfk.Submit(add, minipy.Int(1), minipy.Int(2))
	f2 := dfk.Submit(dbl, f1)
	f3 := dfk.Submit(add, f1, f2)
	v, err := f3.Result()
	if err != nil {
		t.Fatal(err)
	}
	if v.Repr() != "9" {
		t.Errorf("chain result = %s, want 9", v.Repr())
	}
	dfk.Wait()
	sub, comp, fail := dfk.Stats()
	if sub != 3 || comp != 3 || fail != 0 {
		t.Errorf("stats = %d/%d/%d", sub, comp, fail)
	}
}

func TestDependencyFailurePropagates(t *testing.T) {
	ip := minipy.NewInterp(nil)
	boom := defineFn(t, ip, "def boom(a):\n    return 1 / a\n", "boom")
	dbl := defineFn(t, ip, "def dbl(a):\n    return a * 2\n", "dbl")

	dfk := NewDFK(&localExecutor{ip: ip})
	f1 := dfk.Submit(boom, minipy.Int(0))
	f2 := dfk.Submit(dbl, f1)
	_, err := f2.Result()
	if err == nil || !strings.Contains(err.Error(), "dependency failed") {
		t.Errorf("expected dependency failure, got %v", err)
	}
	dfk.Wait()
	_, _, fail := dfk.Stats()
	if fail != 2 {
		t.Errorf("failed = %d, want 2", fail)
	}
}

func TestUnsupportedArgType(t *testing.T) {
	ip := minipy.NewInterp(nil)
	dbl := defineFn(t, ip, "def dbl(a):\n    return a * 2\n", "dbl")
	dfk := NewDFK(&localExecutor{ip: ip})
	f := dfk.Submit(dbl, 42) // raw Go int: unsupported
	if _, err := f.Result(); err == nil {
		t.Errorf("expected type error")
	}
}

func TestFutureDone(t *testing.T) {
	f := newFuture()
	if f.Done() {
		t.Errorf("unresolved future reports done")
	}
	f.resolve(minipy.Int(1), nil)
	if !f.Done() {
		t.Errorf("resolved future reports not done")
	}
}

func newVine(t *testing.T, workers int) *taskvine.Manager {
	t.Helper()
	m, err := taskvine.NewManager(taskvine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	if err := m.SpawnLocalWorkers(workers, taskvine.WorkerOptions{}); err != nil {
		t.Fatal(err)
	}
	return m
}

const examolLikeSrc = `
def simulate(smiles):
    import chemtools
    import quantumsim
    mol = chemtools.parse_smiles(smiles)
    return quantumsim.ionization_potential(mol, 50)

def featurize(smiles):
    import chemtools
    mol = chemtools.parse_smiles(smiles)
    return chemtools.featurize(mol)
`

func TestTaskVineExecutorFunctionCallMode(t *testing.T) {
	m := newVine(t, 2)
	simulate := defineFn(t, m.Interp(), examolLikeSrc, "simulate")

	exec := NewTaskVineExecutor(m, ExecutorOptions{
		Mode: ModeFunctionCall, Slots: 4, ExecMode: core.ExecFork,
	})
	defer exec.Close()
	dfk := NewDFK(exec)

	smiles := []string{"CCO", "C1CCCCC1", "CCN", "COC"}
	futs := make([]*Future, len(smiles))
	for i, s := range smiles {
		futs[i] = dfk.Submit(simulate, minipy.Str(s))
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil {
			t.Fatalf("simulate(%s): %v", smiles[i], err)
		}
		// Cross-check against local execution.
		want, err := m.Interp().Call(simulate, []minipy.Value{minipy.Str(smiles[i])}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !minipy.Equal(v, want) {
			t.Errorf("simulate(%s) remote %s != local %s", smiles[i], v.Repr(), want.Repr())
		}
	}
	dfk.Wait()
	// One library serves all invocations of the same function.
	instances, served := m.LibraryDeployments()
	if served != int64(len(smiles)) {
		t.Errorf("share value %d, want %d", served, len(smiles))
	}
	if instances < 1 || instances > 2 {
		t.Errorf("instances = %d", instances)
	}
}

func TestTaskVineExecutorTaskMode(t *testing.T) {
	m := newVine(t, 1)
	featurize := defineFn(t, m.Interp(), examolLikeSrc, "featurize")

	exec := NewTaskVineExecutor(m, ExecutorOptions{
		Mode: ModeTask, Level: core.L2, Resources: core.Resources{Cores: 2},
	})
	defer exec.Close()
	dfk := NewDFK(exec)

	f := dfk.Submit(featurize, minipy.Str("CCO"))
	v, err := f.Result()
	if err != nil {
		t.Fatal(err)
	}
	feats, ok := v.(*minipy.List)
	if !ok || len(feats.Elems) != 16 {
		t.Errorf("featurize result wrong: %s", v.Repr())
	}
	dfk.Wait()
	if st := m.Stats(); st.TasksDone != 1 || st.InvocationsDone != 0 {
		t.Errorf("task mode used wrong path: %+v", st)
	}
}

func TestTaskVineExecutorConcurrentSameFunction(t *testing.T) {
	m := newVine(t, 2)
	simulate := defineFn(t, m.Interp(), examolLikeSrc, "simulate")

	exec := NewTaskVineExecutor(m, ExecutorOptions{
		Mode: ModeFunctionCall, Slots: 8, ExecMode: core.ExecFork,
	})
	defer exec.Close()
	dfk := NewDFK(exec)

	const n = 20
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := fmt.Sprintf("C%sO", strings.Repeat("C", i%5))
			f := dfk.Submit(simulate, minipy.Str(s))
			_, errs[i] = f.Result()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	// Despite 20 concurrent first-calls, only one library exists.
	if st := m.Stats(); st.LibrariesDeployed > 2 {
		t.Errorf("deployed %d libraries, want <= 2", st.LibrariesDeployed)
	}
}

func TestActiveLearningLoopDAG(t *testing.T) {
	// A miniature ExaMol round: simulate a few molecules, train a
	// surrogate on the results, then score a new candidate — exercising
	// future-to-argument chaining through the executor.
	m := newVine(t, 2)
	src := examolLikeSrc + `
def train(feat_list, y):
    import mlpack
    return mlpack.train(feat_list, y, 200)

def score(model, feats):
    import mlpack
    preds = mlpack.predict(model, [feats])
    return preds[0]
`
	env, err := m.Interp().RunModule(src, "app")
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) *minipy.Func {
		v, _ := env.Get(name)
		return v.(*minipy.Func)
	}
	exec := NewTaskVineExecutor(m, ExecutorOptions{Mode: ModeFunctionCall, Slots: 4, ExecMode: core.ExecFork})
	defer exec.Close()
	dfk := NewDFK(exec)

	mols := []string{"CCO", "CCC", "CCN"}
	var feats, ips []*Future
	for _, s := range mols {
		feats = append(feats, dfk.Submit(get("featurize"), minipy.Str(s)))
		ips = append(ips, dfk.Submit(get("simulate"), minipy.Str(s)))
	}
	// Gather resolved values into lists locally (the application's
	// steering step, as Colmena does between batches).
	featList := &minipy.List{}
	yList := &minipy.List{}
	for i := range mols {
		fv, err := feats[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		yv, err := ips[i].Result()
		if err != nil {
			t.Fatal(err)
		}
		featList.Elems = append(featList.Elems, fv)
		yList.Elems = append(yList.Elems, yv)
	}
	modelFut := dfk.Submit(get("train"), featList, yList)
	scoreFut := dfk.Submit(get("score"), modelFut, feats[0])
	v, err := scoreFut.Result()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.(minipy.Float); !ok {
		t.Errorf("score is %s, want float", v.Type())
	}
	dfk.Wait()
}
