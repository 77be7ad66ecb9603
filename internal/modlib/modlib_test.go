package modlib

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/pickle"
)

// registryHost exposes every module in a registry (as if all packages
// were installed).
type registryHost struct{ reg *Registry }

func (h *registryHost) ResolveModule(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	if !h.reg.Has(name) {
		return nil, fmt.Errorf("no module named '%s'", name)
	}
	return h.reg.Build(name)
}

func run(t *testing.T, src string) (*minipy.Interp, *minipy.Env) {
	t.Helper()
	ip := minipy.NewInterp(&registryHost{reg: Standard()})
	env, err := ip.RunModule(src, "m")
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	return ip, env
}

func evalf(t *testing.T, ip *minipy.Interp, env *minipy.Env, expr string) minipy.Value {
	t.Helper()
	v, err := evalExpr(ip, expr, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return v
}

func TestRegistryNames(t *testing.T) {
	reg := Standard()
	for _, want := range []string{"mathx", "resnet", "imageproc", "chemtools", "quantumsim", "mlpack", "surrogates"} {
		if !reg.Has(want) {
			t.Errorf("registry missing %q", want)
		}
	}
	if reg.Has("nonexistent") {
		t.Errorf("registry claims nonexistent module")
	}
	if _, err := reg.Build("nonexistent"); err == nil {
		t.Errorf("Build of unknown module should fail")
	}
}

func TestMathx(t *testing.T) {
	ip, env := run(t, "import mathx\nr = mathx.sqrt(16.0)\np = mathx.pow(2, 10)\n")
	if got := evalf(t, ip, env, "r").Repr(); got != "4.0" {
		t.Errorf("sqrt(16) = %s", got)
	}
	if got := evalf(t, ip, env, "p").Repr(); got != "1024.0" {
		t.Errorf("pow(2,10) = %s", got)
	}
}

func TestResnetInferenceDeterministic(t *testing.T) {
	src := `
import resnet
import imageproc
model = resnet.load_model("resnet50")
batch = imageproc.generate_batch(7, 16)
preds = model.infer_batch(batch)
single = model.infer(batch[0])
`
	ip, env := run(t, src)
	preds := evalf(t, ip, env, "preds").(*minipy.List)
	if len(preds.Elems) != 16 {
		t.Fatalf("got %d predictions", len(preds.Elems))
	}
	for _, p := range preds.Elems {
		n := int64(p.(minipy.Int))
		if n < 0 || n >= 1000 {
			t.Errorf("prediction %d outside [0,1000)", n)
		}
	}
	single := evalf(t, ip, env, "single")
	if !minipy.Equal(single, preds.Elems[0]) {
		t.Errorf("infer and infer_batch disagree: %s vs %s", single.Repr(), preds.Elems[0].Repr())
	}
	// Same model, same input, later call: still deterministic.
	again := evalf(t, ip, env, "model.infer(batch[0])")
	if !minipy.Equal(again, single) {
		t.Errorf("inference not deterministic")
	}
}

func TestResnetModelNotPicklable(t *testing.T) {
	ip, env := run(t, "import resnet\nmodel = resnet.load_model(\"resnet50\")\n")
	model := evalf(t, ip, env, "model")
	if _, err := pickle.Marshal(model); err == nil {
		t.Errorf("loaded model should not be picklable (host handle)")
	} else if !strings.Contains(err.Error(), "host resource handle") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestImageprocBatchErrors(t *testing.T) {
	ip, env := run(t, "import imageproc\n")
	if _, err := evalExpr(ip, "imageproc.generate_batch(1, -5)", env); err == nil {
		t.Errorf("negative batch size should fail")
	}
}

func TestChemtoolsParseAndFeaturize(t *testing.T) {
	src := `
import chemtools
mol = chemtools.parse_smiles("C1CCOC1N")
feats = chemtools.featurize(mol)
`
	ip, env := run(t, src)
	if got := evalf(t, ip, env, "mol.atoms").Repr(); got != "6" {
		t.Errorf("atoms = %s", got)
	}
	if got := evalf(t, ip, env, "mol.rings").Repr(); got != "1" {
		t.Errorf("rings = %s", got)
	}
	feats := evalf(t, ip, env, "feats").(*minipy.List)
	if len(feats.Elems) != 16 {
		t.Errorf("feature dim = %d", len(feats.Elems))
	}
	if _, err := evalExpr(ip, "chemtools.parse_smiles(\"\")", env); err == nil {
		t.Errorf("empty SMILES should fail")
	}
	if _, err := evalExpr(ip, "chemtools.featurize(3)", env); err == nil {
		t.Errorf("featurize of non-molecule should fail")
	}
}

func TestQuantumsimEnergy(t *testing.T) {
	src := `
import chemtools
import quantumsim
mol = chemtools.parse_smiles("CCO")
e1 = quantumsim.pm7_energy(mol, 100)
e2 = quantumsim.pm7_energy(mol, 100)
ip_val = quantumsim.ionization_potential(mol, 100)
`
	ip, env := run(t, src)
	e1 := float64(evalf(t, ip, env, "e1").(minipy.Float))
	e2 := float64(evalf(t, ip, env, "e2").(minipy.Float))
	if e1 != e2 {
		t.Errorf("pm7_energy not deterministic: %f vs %f", e1, e2)
	}
	if e1 >= 0 {
		t.Errorf("energy should be negative, got %f", e1)
	}
	ipv := float64(evalf(t, ip, env, "ip_val").(minipy.Float))
	if ipv < 0 || ipv > 20 || math.IsNaN(ipv) {
		t.Errorf("ionization potential %f implausible", ipv)
	}
}

func TestMlpackTrainPredict(t *testing.T) {
	// y = 2*x0 + 1 is learnable by the linear trainer.
	src := `
import mlpack
X = [[0.0], [1.0], [2.0], [3.0]]
y = [1.0, 3.0, 5.0, 7.0]
model = mlpack.train(X, y, 2000)
preds = mlpack.predict(model, [[4.0]])
`
	ip, env := run(t, src)
	preds := evalf(t, ip, env, "preds").(*minipy.List)
	got := float64(preds.Elems[0].(minipy.Float))
	if math.Abs(got-9.0) > 0.5 {
		t.Errorf("predict(4) = %f, want ~9", got)
	}
}

func TestMlpackModelIsPicklable(t *testing.T) {
	src := `
import mlpack
model = mlpack.train([[1.0], [2.0]], [1.0, 2.0], 100)
`
	ip, env := run(t, src)
	model := evalf(t, ip, env, "model")
	data, err := pickle.Marshal(model)
	if err != nil {
		t.Fatalf("trained surrogate must be picklable: %v", err)
	}
	ip2 := minipy.NewInterp(&registryHost{reg: Standard()})
	back, err := pickle.Unmarshal(data, ip2)
	if err != nil {
		t.Fatal(err)
	}
	obj := back.(*minipy.Object)
	if obj.Class != "LinearModel" {
		t.Errorf("class = %q", obj.Class)
	}
}

func TestMlpackValidation(t *testing.T) {
	ip, env := run(t, "import mlpack\n")
	cases := []string{
		"mlpack.train([], [], 10)",
		"mlpack.train([[1.0]], [1.0, 2.0], 10)",
		"mlpack.train([[1.0], [1.0, 2.0]], [1.0, 2.0], 10)",
		"mlpack.predict(3, [[1.0]])",
	}
	for _, c := range cases {
		if _, err := evalExpr(ip, c, env); err == nil {
			t.Errorf("%s should fail", c)
		}
	}
}

func TestSurrogatesAcquisition(t *testing.T) {
	ip, env := run(t, "import surrogates\na = surrogates.acquisition(5.0, 0)\nb = surrogates.acquisition(5.0, 100)\n")
	a := float64(evalf(t, ip, env, "a").(minipy.Float))
	b := float64(evalf(t, ip, env, "b").(minipy.Float))
	if a <= b {
		t.Errorf("exploration bonus should shrink with observations: %f vs %f", a, b)
	}
	if b <= 5.0 {
		t.Errorf("acquisition should exceed prediction: %f", b)
	}
}

// evalExpr evaluates expr in env, as a statement assigning it would.
func evalExpr(ip *minipy.Interp, expr string, env *minipy.Env) (minipy.Value, error) {
	mod, err := minipy.Parse("_v = " + expr + "\n")
	if err != nil {
		return nil, err
	}
	if err := ip.ExecBlockWithSource(mod.Body, env, "", ""); err != nil {
		return nil, err
	}
	v, _ := env.Get("_v")
	return v, nil
}
