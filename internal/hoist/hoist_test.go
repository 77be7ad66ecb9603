package hoist

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/modlib"
)

type host struct{ reg *modlib.Registry }

func (h *host) ResolveModule(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	if !h.reg.Has(name) {
		return nil, fmt.Errorf("no module named '%s'", name)
	}
	return h.reg.Build(name)
}
func (h *host) Stdout() io.Writer { return io.Discard }

func newInterp() *minipy.Interp {
	return minipy.NewInterp(&host{reg: modlib.Standard()})
}

func define(t *testing.T, ip *minipy.Interp, src, name string) *minipy.Func {
	t.Helper()
	env, err := ip.RunModule(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := env.Get(name)
	if !ok {
		t.Fatalf("no %q", name)
	}
	return v.(*minipy.Func)
}

// runPair executes the generated setup+body pair and calls the
// rewritten function.
func runPair(t *testing.T, res *Result, args ...minipy.Value) minipy.Value {
	t.Helper()
	ip := newInterp()
	env, err := ip.RunModule(res.SetupSource+"\n"+res.BodySource, "gen")
	if err != nil {
		t.Fatalf("generated pair does not run: %v\nsetup:\n%s\nbody:\n%s", err, res.SetupSource, res.BodySource)
	}
	setup, _ := env.Get(res.SetupName)
	if _, err := ip.Call(setup, nil, nil); err != nil {
		t.Fatalf("setup failed: %v", err)
	}
	fn, _ := env.Get(res.FuncName)
	out, err := ip.Call(fn, args, nil)
	if err != nil {
		t.Fatalf("rewritten function failed: %v", err)
	}
	return out
}

const inferSrc = `
def infer(seed, n):
    import resnet
    import imageproc
    model = resnet.load_model("resnet50")
    batch = imageproc.generate_batch(seed, n)
    return model.infer_batch(batch)
`

func TestHoistsModelLoad(t *testing.T) {
	ip := newInterp()
	fn := define(t, ip, inferSrc, "infer")
	res, err := Split(fn)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hoistable() {
		t.Fatalf("nothing hoisted")
	}
	// The imports and the model load hoist; the seed-dependent batch
	// generation does not.
	if res.HoistedStmts != 3 {
		t.Errorf("hoisted %d statements, want 3 (2 imports + model load)\nsetup:\n%s", res.HoistedStmts, res.SetupSource)
	}
	if !strings.Contains(res.SetupSource, "load_model") {
		t.Errorf("model load not hoisted:\n%s", res.SetupSource)
	}
	if strings.Contains(res.BodySource, "load_model") {
		t.Errorf("model load still in body:\n%s", res.BodySource)
	}
	if !strings.Contains(res.BodySource, "generate_batch") {
		t.Errorf("batch generation wrongly hoisted")
	}

	// Equivalence: the hoisted pair computes what the original does.
	want, err := ip.Call(fn, []minipy.Value{minipy.Int(7), minipy.Int(4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := runPair(t, res, minipy.Int(7), minipy.Int(4))
	if !minipy.Equal(want, got) {
		t.Errorf("hoisted pair diverges: %s vs %s", got.Repr(), want.Repr())
	}
}

func TestNothingToHoist(t *testing.T) {
	ip := newInterp()
	fn := define(t, ip, "def f(x):\n    y = x * 2\n    return y\n", "f")
	res, err := Split(fn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hoistable() {
		t.Errorf("param-dependent body should not hoist:\n%s", res.SetupSource)
	}
}

func TestStopsAtControlFlow(t *testing.T) {
	src := `
def f(x):
    import mathx
    if x > 0:
        k = mathx.sqrt(4.0)
    return x
`
	ip := newInterp()
	res, err := Split(define(t, ip, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if res.HoistedStmts != 1 {
		t.Errorf("only the import should hoist, got %d", res.HoistedStmts)
	}
}

func TestDoesNotHoistModuleGlobalReads(t *testing.T) {
	// `scale` is a module global an invocation could mutate: reading it
	// must not hoist.
	src := `
scale = 3
def f(x):
    import mathx
    base = mathx.sqrt(16.0)
    k = scale * 2
    return x + k + base
`
	ip := newInterp()
	res, err := Split(define(t, ip, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if res.HoistedStmts != 2 {
		t.Errorf("import + base should hoist, got %d:\n%s", res.HoistedStmts, res.SetupSource)
	}
	if strings.Contains(res.SetupSource, "scale") {
		t.Errorf("module-global read wrongly hoisted:\n%s", res.SetupSource)
	}
}

func TestDocstringStaysWithBody(t *testing.T) {
	src := `
def f(x):
    "does things"
    import mathx
    return mathx.floor(x)
`
	ip := newInterp()
	res, err := Split(define(t, ip, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if res.HoistedStmts != 1 {
		t.Fatalf("import should hoist past the docstring, got %d", res.HoistedStmts)
	}
	if strings.Contains(res.SetupSource, "does things") {
		t.Errorf("docstring moved into setup")
	}
	got := runPair(t, res, minipy.Float(3.7))
	if got.Repr() != "3.0" {
		t.Errorf("f(3.7) = %s", got.Repr())
	}
}

func TestChainedDependencies(t *testing.T) {
	// b depends on a (hoisted), so b hoists too; c depends on the
	// parameter and stays.
	src := `
def f(x):
    a = 10
    b = a * a
    c = b + x
    return c
`
	ip := newInterp()
	res, err := Split(define(t, ip, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if res.HoistedStmts != 2 {
		t.Errorf("a and b should hoist, got %d", res.HoistedStmts)
	}
	got := runPair(t, res, minipy.Int(5))
	if got.Repr() != "105" {
		t.Errorf("f(5) = %s", got.Repr())
	}
}

func TestEntirelyHoistableBody(t *testing.T) {
	src := `
def f():
    import mathx
    v = mathx.floor(9.9)
    return v
`
	ip := newInterp()
	res, err := Split(define(t, ip, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	// The return statement is not hoistable, so the body keeps it and
	// reads the hoisted v.
	if res.HoistedStmts != 2 {
		t.Errorf("hoisted %d", res.HoistedStmts)
	}
	got := runPair(t, res)
	if got.Repr() != "9.0" {
		t.Errorf("f() = %s", got.Repr())
	}
}

func TestDefaultsPreserved(t *testing.T) {
	src := `
def f(x, k=3):
    import mathx
    return x * k
`
	ip := newInterp()
	res, err := Split(define(t, ip, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.BodySource, "k=3") {
		t.Errorf("default lost:\n%s", res.BodySource)
	}
	got := runPair(t, res, minipy.Int(5))
	if got.Repr() != "15" {
		t.Errorf("f(5) = %s", got.Repr())
	}
}

func TestLambdaRefused(t *testing.T) {
	ip := newInterp()
	env, err := ip.RunModule("f = lambda x: x\n", "m")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := env.Get("f")
	if _, err := Split(v.(*minipy.Func)); err == nil {
		t.Errorf("lambda split should fail")
	}
	if _, err := Split(nil); err == nil {
		t.Errorf("nil split should fail")
	}
}

func TestTupleAssignmentHoists(t *testing.T) {
	src := `
def f(x):
    a, b = 2, 3
    return x + a + b
`
	ip := newInterp()
	res, err := Split(define(t, ip, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if res.HoistedStmts != 1 || len(res.Hoisted) != 2 {
		t.Errorf("tuple assignment should hoist both names: %+v", res)
	}
	got := runPair(t, res, minipy.Int(1))
	if got.Repr() != "6" {
		t.Errorf("f(1) = %s", got.Repr())
	}
	// An augmented assignment to a name the tuple already hoisted goes
	// with it.
	res, err = Split(define(t, ip, "def g(x):\n    a, b = 2, 3\n    a += b\n    return x + a\n", "g"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runPair(t, res, minipy.Int(1)); res.HoistedStmts != 2 || got.Repr() != "6" {
		t.Errorf("a += b after the tuple: hoisted %d statements, g(1) = %s", res.HoistedStmts, got.Repr())
	}
}

func TestIndexTargetNotHoisted(t *testing.T) {
	src := `
def f(x):
    d = {}
    d["k"] = 1
    return x
`
	ip := newInterp()
	res, err := Split(define(t, ip, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	// d = {} hoists; d["k"] = 1 mutates a hoisted object — refused.
	if res.HoistedStmts != 1 {
		t.Errorf("hoisted %d statements, want 1", res.HoistedStmts)
	}
}
