package pickle

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/minipy"
)

type host struct{ modules map[string]*minipy.ModuleVal }

func (h *host) ResolveModule(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	if m, ok := h.modules[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("no module named '%s'", name)
}

func newHost() *host {
	h := &host{modules: map[string]*minipy.ModuleVal{}}
	h.modules["mathx"] = &minipy.ModuleVal{Name: "mathx", Attrs: map[string]minipy.Value{
		"double": &minipy.Builtin{Name: "double", Fn: func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
			n := args[0].(minipy.Int)
			return n * 2, nil
		}},
	}}
	return h
}

func roundTrip(t *testing.T, v minipy.Value) minipy.Value {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	out, err := Unmarshal(data, minipy.NewInterp(newHost()))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return out
}

func TestScalarRoundTrip(t *testing.T) {
	values := []minipy.Value{
		minipy.NoneValue,
		minipy.Bool(true),
		minipy.Bool(false),
		minipy.Int(0),
		minipy.Int(-12345678901234),
		minipy.Int(9223372036854775807),
		minipy.Float(3.14159),
		minipy.Float(-0.0),
		minipy.Str(""),
		minipy.Str("hello\nworld\t\"quoted\""),
		minipy.Str(strings.Repeat("x", 100000)),
	}
	for _, v := range values {
		got := roundTrip(t, v)
		if !minipy.Equal(v, got) {
			t.Errorf("round trip %s -> %s", v.Repr(), got.Repr())
		}
	}
}

func TestContainerRoundTrip(t *testing.T) {
	d := minipy.NewDict()
	_ = d.Set(minipy.Str("a"), minipy.Int(1))
	_ = d.Set(minipy.Int(2), minipy.NewList(minipy.Str("x"), minipy.NoneValue))
	_ = d.Set(minipy.NewTuple(minipy.Int(1), minipy.Str("k")), minipy.Float(2.5))
	v := minipy.NewList(d, minipy.NewTuple(), minipy.NewList())
	got := roundTrip(t, v)
	if !minipy.Equal(v, got) {
		t.Errorf("round trip %s -> %s", v.Repr(), got.Repr())
	}
}

func TestDictOrderPreserved(t *testing.T) {
	d := minipy.NewDict()
	for _, k := range []string{"z", "a", "m", "b"} {
		_ = d.Set(minipy.Str(k), minipy.Int(1))
	}
	got := roundTrip(t, d).(*minipy.Dict)
	want := []string{"z", "a", "m", "b"}
	for i := range got.Len() {
		if k, _ := got.Item(i); string(k.(minipy.Str)) != want[i] {
			t.Fatalf("key order changed: %s", got.Repr())
		}
	}
}

func TestSharedStructurePreserved(t *testing.T) {
	shared := minipy.NewList(minipy.Int(1))
	v := minipy.NewList(shared, shared)
	got := roundTrip(t, v).(*minipy.List)
	a := got.Elems[0].(*minipy.List)
	b := got.Elems[1].(*minipy.List)
	if a != b {
		t.Errorf("aliasing lost: decoded copies are distinct")
	}
	a.Elems = append(a.Elems, minipy.Int(2))
	if len(b.Elems) != 2 {
		t.Errorf("aliasing lost: mutation not visible through second reference")
	}
}

func TestCyclicList(t *testing.T) {
	l := minipy.NewList(minipy.Int(1))
	l.Elems = append(l.Elems, l)
	data, err := Marshal(l)
	if err != nil {
		t.Fatalf("Marshal cyclic: %v", err)
	}
	got, err := Unmarshal(data, minipy.NewInterp(nil))
	if err != nil {
		t.Fatalf("Unmarshal cyclic: %v", err)
	}
	gl := got.(*minipy.List)
	if gl.Elems[1] != got {
		t.Errorf("cycle not preserved")
	}
}

func defineFunc(t *testing.T, src, name string) *minipy.Func {
	t.Helper()
	ip := minipy.NewInterp(newHost())
	env, err := ip.RunModule(src, "__main__")
	if err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	v, ok := env.Get(name)
	if !ok {
		t.Fatalf("function %q not defined", name)
	}
	return v.(*minipy.Func)
}

func callRemote(t *testing.T, data []byte, args ...minipy.Value) minipy.Value {
	t.Helper()
	ip := minipy.NewInterp(newHost())
	fv, err := Unmarshal(data, ip)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	out, err := ip.Call(fv, args, nil)
	if err != nil {
		t.Fatalf("remote call: %v", err)
	}
	return out
}

func TestSimpleFunctionRoundTrip(t *testing.T) {
	fn := defineFunc(t, "def add(a, b):\n    return a + b\n", "add")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(3), minipy.Int(4))
	if out.Repr() != "7" {
		t.Errorf("add(3,4) = %s", out.Repr())
	}
}

func TestFunctionWithDefaults(t *testing.T) {
	src := `
base = 100
def f(a, b=base * 2, c="tag"):
    return (a + b, c)
`
	fn := defineFunc(t, src, "f")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(1))
	if out.Repr() != `(201, "tag")` {
		t.Errorf("f(1) = %s", out.Repr())
	}
}

func TestFunctionCapturesGlobal(t *testing.T) {
	src := `
factor = 7
offset = 3
def scale(x):
    return x * factor + offset
`
	fn := defineFunc(t, src, "scale")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(10))
	if out.Repr() != "73" {
		t.Errorf("scale(10) = %s", out.Repr())
	}
}

func TestFunctionCapturesHelperFunction(t *testing.T) {
	src := `
def helper(x):
    return x * x
def f(x):
    return helper(x) + 1
`
	fn := defineFunc(t, src, "f")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(5))
	if out.Repr() != "26" {
		t.Errorf("f(5) = %s", out.Repr())
	}
}

func TestClosureRoundTrip(t *testing.T) {
	src := `
def make_adder(n):
    def add(x):
        return x + n
    return add
adder = make_adder(42)
`
	fn := defineFunc(t, src, "adder")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(8))
	if out.Repr() != "50" {
		t.Errorf("adder(8) = %s", out.Repr())
	}
}

func TestLambdaRoundTrip(t *testing.T) {
	src := "k = 9\nf = lambda x, y=2: x * y + k\n"
	fn := defineFunc(t, src, "f")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(5))
	if out.Repr() != "19" {
		t.Errorf("lambda(5) = %s", out.Repr())
	}
}

func TestRecursiveFunctionRoundTrip(t *testing.T) {
	src := `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
`
	fn := defineFunc(t, src, "fib")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(12))
	if out.Repr() != "144" {
		t.Errorf("fib(12) = %s", out.Repr())
	}
}

func TestMutuallyRecursiveFunctions(t *testing.T) {
	src := `
def is_even(n):
    if n == 0:
        return True
    return is_odd(n - 1)
def is_odd(n):
    if n == 0:
        return False
    return is_even(n - 1)
`
	fn := defineFunc(t, src, "is_even")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(10))
	if out.Repr() != "True" {
		t.Errorf("is_even(10) = %s", out.Repr())
	}
}

func TestFunctionWithImportInsideBody(t *testing.T) {
	src := `
def f(x):
    import mathx
    return mathx.double(x)
`
	fn := defineFunc(t, src, "f")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	// Works on a host with mathx installed.
	out := callRemote(t, data, minipy.Int(21))
	if out.Repr() != "42" {
		t.Errorf("f(21) = %s", out.Repr())
	}
	// Fails on a host without it — the dependency story.
	ip := minipy.NewInterp(nil)
	fv, err := Unmarshal(data, ip)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ip.Call(fv, []minipy.Value{minipy.Int(1)}, nil)
	if err == nil || !strings.Contains(err.Error(), "no module named 'mathx'") {
		t.Errorf("expected missing-module error, got %v", err)
	}
}

func TestFunctionCapturingModuleReference(t *testing.T) {
	src := `
import mathx
def f(x):
    return mathx.double(x)
`
	fn := defineFunc(t, src, "f")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	out := callRemote(t, data, minipy.Int(4))
	if out.Repr() != "8" {
		t.Errorf("f(4) = %s", out.Repr())
	}
	// Unpickling on a bare host fails at module resolution — before the
	// call even happens, like Python import errors during unpickle.
	_, err = Unmarshal(data, minipy.NewInterp(nil))
	if err == nil || !strings.Contains(err.Error(), "no module named 'mathx'") {
		t.Errorf("expected unpickle module error, got %v", err)
	}
}

func TestHostHandleNotSerializable(t *testing.T) {
	obj := minipy.NewObject("GPUModel")
	obj.Host = struct{ dummy int }{1}
	_, err := Marshal(obj)
	if err == nil || !strings.Contains(err.Error(), "host resource handle") {
		t.Errorf("expected host-handle error, got %v", err)
	}
}

func TestBoundMethodNotSerializable(t *testing.T) {
	ip := minipy.NewInterp(nil)
	env, err := ip.RunModule("v = [1].append\n", "m")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := env.Get("v")
	if _, err := Marshal(v); err == nil {
		t.Errorf("bound method marshal should fail")
	}
}

func TestBuiltinByName(t *testing.T) {
	ip := minipy.NewInterp(nil)
	env := ip.NewGlobals()
	v, _ := env.Get("len")
	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data, minipy.NewInterp(nil))
	if err != nil {
		t.Fatal(err)
	}
	out, err := minipy.NewInterp(nil).Call(got, []minipy.Value{minipy.Str("abcd")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Repr() != "4" {
		t.Errorf("len round trip = %s", out.Repr())
	}
}

func TestObjectRoundTrip(t *testing.T) {
	obj := minipy.NewObject("Config")
	obj.Attrs["name"] = minipy.Str("run-1")
	obj.Attrs["shape"] = minipy.NewTuple(minipy.Int(224), minipy.Int(224), minipy.Int(3))
	got := roundTrip(t, obj).(*minipy.Object)
	if got.Class != "Config" {
		t.Errorf("class = %q", got.Class)
	}
	if !minipy.Equal(got.Attrs["shape"], obj.Attrs["shape"]) {
		t.Errorf("attrs lost: %v", got.Repr())
	}
}

func TestDeterministicEncoding(t *testing.T) {
	src := `
a = 1
b = 2
def f(x):
    return x + a + b
`
	fn := defineFunc(t, src, "f")
	d1, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Errorf("Marshal is not deterministic")
	}
}

func TestCorruptData(t *testing.T) {
	fn := defineFunc(t, "def f(x):\n    return x\n", "f")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	header := []byte{magic, version}
	nest := append(header, tagList, 22, tagList, 20)
	nest = append(nest, make([]byte, 20)...) // twenty Nones
	cases := []struct {
		rule string
		data []byte
		want string // in the error; empty for any error
	}{
		{"no input", nil, ""},
		{"empty input", []byte{}, ""},
		{"no magic", []byte{0x00}, ""},
		{"no version", []byte{magic}, ""},
		{"unknown version", []byte{magic, 99}, ""},
		{"a value cut short", data[:len(data)/2], ""},
		{"a byte after the value", append(append([]byte{}, data...), 0xFF), ""},
		{"a length in its shortest form only", append(header, tagStr, 0x81, 0x00, 'a'), "shortest form"},
		{"a list count no larger than the bytes left", append(header, tagList, 5, tagNone, tagNone), "truncated: count 5"},
		{"a nest of counts reserves no more than the input's length", nest, "reserves more than the 26-byte input"},
		// (dict{<the tuple>: None},): hashing the key once read a slot
		// not yet decoded and panicked.
		{"a key refers to its own unfinished tuple", append(header, tagTuple, 1, tagDict, 1, tagRef, 0, tagNone), "still being decoded"},
		// T = ((K, dict{K: None}),) with K = (T,): K is finished, but
		// the T it reaches is not, so K's hash would change as T fills.
		{"a key reaches an unfinished tuple through a finished one",
			append(header, tagTuple, 1, tagTuple, 2, tagTuple, 1, tagRef, 0, tagDict, 1, tagRef, 2, tagNone), "still being decoded"},
	}
	for _, c := range cases {
		_, err := Unmarshal(c.data, minipy.NewInterp(nil))
		if err == nil || !strings.HasPrefix(err.Error(), "pickle: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Unmarshal error %v, want a pickle error naming %q", c.rule, err, c.want)
		}
	}
}

// Property: arbitrary nested scalar structures survive a round trip.
func TestQuickScalarListRoundTrip(t *testing.T) {
	f := func(ints []int64, strs []string, fs []float64) bool {
		l := &minipy.List{}
		for _, n := range ints {
			l.Elems = append(l.Elems, minipy.Int(n))
		}
		inner := &minipy.List{}
		for _, s := range strs {
			inner.Elems = append(inner.Elems, minipy.Str(s))
		}
		l.Elems = append(l.Elems, inner)
		for _, x := range fs {
			l.Elems = append(l.Elems, minipy.Float(x))
		}
		data, err := Marshal(l)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data, minipy.NewInterp(nil))
		if err != nil {
			return false
		}
		return minipy.Equal(l, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: marshal(unmarshal(marshal(v))) == marshal(v) — the encoding
// is a fixpoint after one round trip.
func TestQuickEncodingFixpoint(t *testing.T) {
	f := func(a int64, s string, b bool) bool {
		d := minipy.NewDict()
		_ = d.Set(minipy.Str("a"), minipy.Int(a))
		_ = d.Set(minipy.Str("s"), minipy.Str(s))
		_ = d.Set(minipy.Str("b"), minipy.Bool(b))
		d1, err := Marshal(d)
		if err != nil {
			return false
		}
		v, err := Unmarshal(d1, minipy.NewInterp(nil))
		if err != nil {
			return false
		}
		d2, err := Marshal(v)
		if err != nil {
			return false
		}
		return string(d1) == string(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPickledSizeReasonable(t *testing.T) {
	fn := defineFunc(t, "def f(x):\n    return x + 1\n", "f")
	data, err := Marshal(fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 4096 {
		t.Errorf("tiny function pickled to %d bytes", len(data))
	}
}
