package minipy

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// testHost provides a tiny module set for import tests.
type testHost struct {
	modules map[string]*ModuleVal
}

func (h *testHost) ResolveModule(_ *Interp, name string) (*ModuleVal, error) {
	if m, ok := h.modules[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("no module named '%s'", name)
}

func newTestHost() *testHost {
	h := &testHost{modules: map[string]*ModuleVal{}}
	h.modules["mathx"] = &ModuleVal{Name: "mathx", Attrs: map[string]Value{
		"pi": Float(3.14159),
		"square": &Builtin{Name: "square", Fn: func(_ *Interp, args []Value) (Value, error) {
			n, _ := numAsFloat(args[0])
			return Float(n * n), nil
		}},
	}}
	return h
}

// evalIn runs src as a module and then evaluates expr in its globals.
func evalIn(t *testing.T, src, expr string) Value {
	t.Helper()
	ip := NewInterp(newTestHost())
	env, err := ip.RunModule(src, "__main__")
	if err != nil {
		t.Fatalf("RunModule(%q): %v", src, err)
	}
	v, err := evalSrc(ip, expr, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return v
}

func evalExpr(t *testing.T, expr string) Value {
	t.Helper()
	return evalIn(t, "", expr)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"7 // 2", "3"},
		{"-7 // 2", "-4"},
		{"7 % 3", "1"},
		{"-7 % 3", "2"},
		{"10 / 4", "2.5"},
		{"1.5 + 2.5", "4.0"},
		{"-(3)", "-3"},
		{"2 * -3", "-6"},
		{"--2.5", "2.5"},
		{"1 + True", "2"},
		{"3.0 // 2.0", "1.0"},
		{"-7.5 % 2", "0.5"},
		{"1e3 * 2", "2000.0"},
		{"2.5e-1 - 1", "-0.75"},
	}
	for _, c := range cases {
		got := evalExpr(t, c.expr).Repr()
		if got != c.want {
			t.Errorf("%s = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestComparisonAndBool(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"3 >= 3.5", false},
		{"1 == 1.0", true},
		{"True == 1.0", true},
		{"1 != 2", true},
		{"'a' < 'b'", true},
		{"[1, 2] < [1, 3]", true},
		{"[1] < [1, 0]", true},
		{"(1, 'a') == (1, 'a')", true},
		{"{'k': [1]} == {'k': [1]}", true},
		{"None == None", true},
		{"False", false},
		{"0.0", false},
		{"''", false},
		{"[0]", true},
		{"{}", false},
	}
	for _, c := range cases {
		v := evalExpr(t, c.expr)
		if v.Truth() != c.want {
			t.Errorf("%s = %v, want %v", c.expr, v.Truth(), c.want)
		}
	}
}

func TestStringOps(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{`"ab" + "cd"`, `"abcd"`},
		{`'it"s'`, `"it\"s"`},
		{`"a\nb\\c\'"`, `"a\nb\\c'"`},
		{`"Hello"[1]`, `"e"`},
		{`"Hello"[-1]`, `"o"`},
		{`"banana".count("an")`, "2"},
		{`len("hello")`, "5"},
		{`str(4.0) + str(None)`, `"4.0None"`},
		// Positions are runes, not bytes, wherever the two differ.
		{`len("héllo wörld")`, "11"},
		{`"héllo wörld"[1]`, `"é"`},
		{`"héllo wörld"[-4]`, `"ö"`},
		{`"hello wörld"[4]`, `"o"`},
		{`"hello wörld"[8]`, `"r"`},
	}
	for _, c := range cases {
		got := evalExpr(t, c.expr).Repr()
		if got != c.want {
			t.Errorf("%s = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestListOps(t *testing.T) {
	src := `
xs = [3, 1, 2]
xs.append(4)
xs[0] = 5
total = 0
for x in xs:
    total += x
t = (5, 6, 7)[-1]
`
	if got := evalIn(t, src, "xs").Repr(); got != "[5, 1, 2, 4]" {
		t.Errorf("xs = %s", got)
	}
	if got := evalIn(t, src, "total").Repr(); got != "12" {
		t.Errorf("total = %s", got)
	}
	if got := evalIn(t, src, "t").Repr(); got != "7" {
		t.Errorf("t = %s", got)
	}
}

func TestDictOps(t *testing.T) {
	src := `
d = {"a": 1, "b": 2}
d["c"] = 3
d["a"] = 10
n = d.get("missing", -1)
none = d.get("missing")
`
	if got := evalIn(t, src, "d['a']").Repr(); got != "10" {
		t.Errorf("d['a'] = %s", got)
	}
	if got := evalIn(t, src, "len(d)").Repr(); got != "3" {
		t.Errorf("len(d) = %s", got)
	}
	if got := evalIn(t, src, "n").Repr(); got != "-1" {
		t.Errorf("n = %s", got)
	}
	if got := evalIn(t, src, "none").Repr(); got != "None" {
		t.Errorf("none = %s", got)
	}
}

func TestDictInsertionOrder(t *testing.T) {
	src := `
d = {}
d["z"] = 1
d["a"] = 2
d["m"] = 3
d["z"] = 4
`
	if got := evalIn(t, src, "d").Repr(); got != `{"z": 4, "a": 2, "m": 3}` {
		t.Errorf("d = %s", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
def classify(n):
    if n < 0:
        return "neg"
    if n == 0:
        return "zero"
    return "pos"

total = 0
for i in range(10):
    if i % 2 == 1:
        if i < 8:
            total += i

count = 0
while count < 5:
    count += 1
`
	if got := evalIn(t, src, "classify(-5)").Repr(); got != `"neg"` {
		t.Errorf("classify(-5) = %s", got)
	}
	if got := evalIn(t, src, "classify(0)").Repr(); got != `"zero"` {
		t.Errorf("classify(0) = %s", got)
	}
	// odd numbers 1,3,5,7 = 16
	if got := evalIn(t, src, "total").Repr(); got != "16" {
		t.Errorf("total = %s", got)
	}
	if got := evalIn(t, src, "count").Repr(); got != "5" {
		t.Errorf("count = %s", got)
	}
}

func TestFunctionsAndDefaults(t *testing.T) {
	src := `
def add(a, b=10, c=100):
    return a + b + c
r1 = add(1)
r2 = add(1, 2)
r3 = add(1, 2, 3)
`
	checks := map[string]string{"r1": "111", "r2": "103", "r3": "6"}
	for name, want := range checks {
		if got := evalIn(t, src, name).Repr(); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
	ip := NewInterp(nil)
	env, err := ip.RunModule(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	add, _ := env.Get("add")
	for _, c := range []struct {
		args   []Value
		kwargs map[string]Value
		want   string
	}{
		{nil, nil, "missing required argument"},
		{[]Value{Int(1), Int(2), Int(3), Int(4)}, nil, "takes 3 positional arguments"},
		{[]Value{Int(1)}, map[string]Value{"b": Int(2)}, "keyword arguments are not supported"},
	} {
		if _, err := ip.Call(add, c.args, c.kwargs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("add(%v, %v): err = %v, want %q", c.args, c.kwargs, err, c.want)
		}
	}
}

func TestDefaultEvaluatedAtDefinition(t *testing.T) {
	src := `
x = 5
def f(a=x):
    return a
x = 99
`
	if got := evalIn(t, src, "f()").Repr(); got != "5" {
		t.Errorf("default should capture definition-time value, got %s", got)
	}
}

func TestClosures(t *testing.T) {
	src := `
def make_counter():
    count = [0]
    def inc():
        count[0] = count[0] + 1
        return count[0]
    return inc

c = make_counter()
c()
c()
third = c()

def make_adder(n):
    return lambda x: x + n
add5 = make_adder(5)
`
	if got := evalIn(t, src, "third").Repr(); got != "3" {
		t.Errorf("closure counter = %s, want 3", got)
	}
	if got := evalIn(t, src, "add5(10)").Repr(); got != "15" {
		t.Errorf("add5(10) = %s", got)
	}
}

func TestGlobalStmt(t *testing.T) {
	src := `
counter = 0
def bump():
    global counter
    counter += 1
bump()
bump()
bump()
`
	if got := evalIn(t, src, "counter").Repr(); got != "3" {
		t.Errorf("counter = %s, want 3", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
`
	if got := evalIn(t, src, "fib(15)").Repr(); got != "610" {
		t.Errorf("fib(15) = %s", got)
	}
}

func TestRecursionLimit(t *testing.T) {
	ip := NewInterp(nil)
	ip.MaxDepth = 50
	env, err := ip.RunModule("def f(n):\n    return f(n + 1)\n", "m")
	if err != nil {
		t.Fatal(err)
	}
	_, err = evalSrc(ip, "f(0)", env)
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("expected recursion error, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	ip := NewInterp(nil)
	ip.StepLimit = 10000
	_, err := ip.RunModule("while True:\n    pass\n", "m")
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("expected step limit error, got %v", err)
	}
}

func TestTupleUnpacking(t *testing.T) {
	src := `
a, b = 1, 2
a, b = b, a
pairs = [(1, "x"), (2, "y")]
names = []
for p in pairs:
    n, s = p
    names.append(s)
`
	if got := evalIn(t, src, "a").Repr(); got != "2" {
		t.Errorf("a = %s", got)
	}
	if got := evalIn(t, src, "names").Repr(); got != `["x", "y"]` {
		t.Errorf("names = %s", got)
	}
	for src, want := range map[string]string{
		"a, b = 1\n":         "cannot unpack non-sequence int",
		"a, b = [1, 2, 3]\n": "cannot unpack 3 values into 2 targets",
	} {
		if _, err := NewInterp(nil).RunModule(src, "m"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want %q", src, err, want)
		}
	}
}

func TestLambdaAndHigherOrder(t *testing.T) {
	src := `
def apply(f, xs):
    out = []
    for x in xs:
        out.append(f(x))
    return out

def compose(f, g):
    return lambda x: f(g(x))

xs = [5, 3, 1, 4, 2]
doubled = apply(lambda x: x * 2, xs)
parity = apply(lambda x: ["even", "odd"][x % 2], xs)
inc_then_square = compose(lambda x: x * x, lambda x: x + 1)
`
	if got := evalIn(t, src, "doubled").Repr(); got != "[10, 6, 2, 8, 4]" {
		t.Errorf("doubled = %s", got)
	}
	if got := evalIn(t, src, "parity").Repr(); got != `["odd", "odd", "odd", "even", "even"]` {
		t.Errorf("parity = %s", got)
	}
	if got := evalIn(t, src, "inc_then_square(3)").Repr(); got != "16" {
		t.Errorf("inc_then_square(3) = %s", got)
	}
}

func TestImports(t *testing.T) {
	src := `
import mathx
from mathx import square as sq
v = mathx.square(4)
w = sq(5)
p = mathx.pi
`
	if got := evalIn(t, src, "v").Repr(); got != "16.0" {
		t.Errorf("v = %s", got)
	}
	if got := evalIn(t, src, "w").Repr(); got != "25.0" {
		t.Errorf("w = %s", got)
	}
	for src, want := range map[string]string{
		"from mathx import cube\n":   "cannot import name 'cube' from 'mathx'",
		"import mathx\nmathx.cube\n": "module 'mathx' has no attribute 'cube'",
	} {
		if _, err := NewInterp(newTestHost()).RunModule(src, "m"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want %q", src, err, want)
		}
	}
}

func TestImportMissingModule(t *testing.T) {
	ip := NewInterp(newTestHost())
	_, err := ip.RunModule("import nosuchmod\n", "m")
	if err == nil || !strings.Contains(err.Error(), "no module named 'nosuchmod'") {
		t.Errorf("expected import error, got %v", err)
	}
}

func TestRaise(t *testing.T) {
	_, err := NewInterp(nil).RunModule("def f(n):\n    raise \"bad \" + str(n)\nf(3)\n", "m")
	if re, ok := err.(*RuntimeError); !ok || re.Msg != "bad 3" || re.Line != 2 {
		t.Errorf("raise: err = %#v, want a runtime error \"bad 3\" at line 2", err)
	}
}

// TestReturnOutsideFunction: a return at module level is an error, not
// a silent end of the module.
func TestReturnOutsideFunction(t *testing.T) {
	if _, err := NewInterp(nil).RunModule("x = 1\nreturn x\ny = 2\n", "m"); err == nil || err.Error() != "return outside function" {
		t.Errorf("err = %v", err)
	}
}

func TestAugmentedAssignTargets(t *testing.T) {
	src := `
d = {"n": 0}
d["n"] += 5
xs = [1, 2, 3]
xs[1] += 10
s = "a"
s += "b"
`
	if got := evalIn(t, src, "d['n']").Repr(); got != "5" {
		t.Errorf("d['n'] = %s", got)
	}
	if got := evalIn(t, src, "xs").Repr(); got != "[1, 12, 3]" {
		t.Errorf("xs = %s", got)
	}
	if got := evalIn(t, src, "s").Repr(); got != `"ab"` {
		t.Errorf("s = %s", got)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct{ expr, want string }{
		{"str(42)", `"42"`},
		{"str('x')", `"x"`},
		{"str([1, 'a'])", `"[1, \"a\"]"`},
		{"range(3)", "[0, 1, 2]"},
		{"range(-1)", "[]"},
		{"len([1, 2])", "2"},
		{"len((1, 2, 3))", "3"},
		{"len({'a': 1})", "1"},
		{"len('héllo')", "5"},
	}
	for _, c := range cases {
		got := evalExpr(t, c.expr).Repr()
		if got != c.want {
			t.Errorf("%s = %s, want %s", c.expr, got, c.want)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{"1 / 0", "division by zero"},
		{"[1][5]", "index out of range"},
		{"[1]['a']", "list indices must be integers"},
		{"{'a': 1}['b']", "KeyError"},
		{"undefined_name", "not defined"},
		{"'a' + 1", "concatenate"},
		{"(3)(4)", "not callable"},
		{"[1, 2] < 3", "not supported"},
		{"len(3)", "no len()"},
		{"len()", "takes 1 to 1 arguments"},
		{"range('3')", "must be int"},
		{"'abc'.count(1)", "must be str"},
		{"{}.get()", "takes 1 to 2 arguments"},
		{"'abc'.upper()", "has no attribute 'upper'"},
		{"(1, 2)[5]", "index out of range"},
		{"'abc'[1.5]", "string indices must be integers"},
		{"'abc'[7]", "string index out of range"},
		{"3[0]", "not subscriptable"},
		{"-'a'", "bad operand type for unary -"},
		{"1 // 0", "modulo by zero"},
		{"1.0 % 0", "modulo by zero"},
		{"'a' * 2", "unsupported operand"},
		{"{[1]: 2}", "unhashable"},
		{"(lambda a: a)()", "<lambda>() missing required argument"},
		// The builtins MiniPy does not have are unbound names.
		{"print('x')", "name 'print' is not defined"},
		{"sorted([2, 1])", "name 'sorted' is not defined"},
	}
	for _, c := range cases {
		ip := NewInterp(nil)
		env := ip.NewGlobals()
		_, err := evalSrc(ip, c.src, env)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Eval(%q) error = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
	for src, want := range map[string]string{
		"x = [1]\nx[3] = 2\n":        "list index out of range",
		"x = 'ab'\nx[0] = 'c'\n":     "does not support item assignment",
		"d = {}\nd[[1]] = 2\n":       "unhashable",
		"for c in 'ab':\n    pass\n": "'str' object is not iterable",
		"x = undefined_name\n":       "not defined",
	} {
		if _, err := NewInterp(nil).RunModule(src, "m"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want %q", src, err, want)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"def f(:\n    pass\n",
		"if True\n    pass\n",
		"x = = 3\n",
		"def f(a=1, b):\n    pass\n",
		"1 +\n",
		"'unterminated\n",
		"'unterminated",
		"\"escape at the end\\",
		"for in [1]:\n    pass\n",
		"x = 1 $ 2\n",
		"x = 1 ! 2\n",
		"def f():\n    $\n",
		"x = 99999999999999999999\n",
		"x = 1e999\n",
		"1 < 2 < 3\n",
		"(1 + 2) = 3\n",
		"f(x) += 1\n",
		"f(1,\n",
		"x = [1, 2\n",
		"x = {1: 2\n",
		"x = {1 2}\n",
		"x[1\n",
		"import\n",
		"from m import\n",
		"from m as x\n",
		"import m as\n",
		"global\n",
		"raise\n",
		"return 1 1\n",
		"lambda x 1\n",
		"def f(a=1 b):\n    pass\n",
		"def f():\npass\n",
		"x.1\n",
		"  x = 1\n",
		// The statements and forms MiniPy does not have.
		"try:\n    pass\nexcept:\n    pass\n",
		"del x\n",
		"x -= 1\n",
		"a = b = 1\n",
		"for a, b in x:\n    pass\n",
		"f(k=1)\n",
		"x = 2 ** 3\n",
		"x = not y\n",
		"x = a and b\n",
		"x = a in b\n",
		"if x:\n    pass\nelse:\n    pass\n",
		"x = 1; y = 2\n",
		"if x: pass\n",
		"def f(x: int):\n    pass\n",
		"def f(x) -> int:\n    pass\n",
		"x = '''a'''\n",
		"x = 'a\\tb'\n",
		"x = 'a\\\nb'\n",
		"import a.b\n",
		"import a, b\n",
		"x.y = 1\n",
		"x = 1_000\n",
		"x = .5\n",
		"x = 1 + \\\n 2\n",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q): %T, want a *SyntaxError", src, err)
		}
	}
	for _, src := range []string{"1 1", "(1", "", "x = 1"} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) unexpectedly succeeded", src)
		}
	}
}

func TestIndentationErrors(t *testing.T) {
	src := "def f():\n        x = 1\n      y = 2\n"
	if _, err := Parse(src); err == nil {
		t.Errorf("mismatched dedent should fail")
	}
}

func TestMultilineExpressionsInsideParens(t *testing.T) {
	src := `
total = (1 +
         2 +
         3)
xs = [
    1,
    2,
    3,
]
`
	if got := evalIn(t, src, "total").Repr(); got != "6" {
		t.Errorf("total = %s", got)
	}
	if got := evalIn(t, src, "len(xs)").Repr(); got != "3" {
		t.Errorf("len(xs) = %s", got)
	}
}

func TestNestedFunctionSeesEnclosing(t *testing.T) {
	src := `
def outer(a):
    b = a * 2
    def inner(c):
        return a + b + c
    return inner(1)
r = outer(10)
`
	if got := evalIn(t, src, "r").Repr(); got != "31" {
		t.Errorf("r = %s", got)
	}
}

func TestDocstring(t *testing.T) {
	src := `
def documented():
    "does a thing"
    return 1
`
	fn := evalIn(t, src, "documented").(*Func)
	if fn.Doc != "does a thing" {
		t.Errorf("doc = %q", fn.Doc)
	}
	if got := evalIn(t, src, "documented()").Repr(); got != "1" {
		t.Errorf("documented() = %s", got)
	}
}

// TestValueMethods pins Type, Repr and Truth of every value kind.
func TestValueMethods(t *testing.T) {
	d := NewDict()
	_ = d.Set(Str("k"), NewList(Int(1), Float(2)))
	fn := evalIn(t, "def f(x):\n    return x\n", "f")
	lambda := evalExpr(t, "lambda: 1")
	length, _ := NewInterp(nil).NewGlobals().Get("len")
	method := evalExpr(t, "[].append")
	obj := NewObject("Model")
	obj.Attrs["w"] = Int(1)
	cases := []struct {
		v         Value
		typ, repr string
		truth     bool
	}{
		{NoneValue, "NoneType", "None", false},
		{Bool(true), "bool", "True", true},
		{Bool(false), "bool", "False", false},
		{Int(0), "int", "0", false},
		{Int(-3), "int", "-3", true},
		{Float(0), "float", "0.0", false},
		{Float(1e21), "float", "1e+21", true},
		{Str(""), "str", `""`, false},
		{Str("a\"\n"), "str", `"a\"\n"`, true},
		{NewList(), "list", "[]", false},
		{NewTuple(Int(1)), "tuple", "(1,)", true},
		{NewTuple(), "tuple", "()", false},
		{d, "dict", `{"k": [1, 2.0]}`, true},
		{NewDict(), "dict", "{}", false},
		{fn, "function", "<function f>", true},
		{lambda, "function", "<function <lambda>>", true},
		{length, "builtin", "<builtin len>", true},
		{method, "method", "<method append of list>", true},
		{&ModuleVal{Name: "mathx"}, "module", "<module mathx>", true},
		{obj, "Model", "<Model object with 1 attrs>", true},
	}
	for _, c := range cases {
		if c.v.Type() != c.typ || c.v.Repr() != c.repr || c.v.Truth() != c.truth {
			t.Errorf("%#v: %s %s %v, want %s %s %v", c.v, c.v.Type(), c.v.Repr(), c.v.Truth(), c.typ, c.repr, c.truth)
		}
	}
}

// ---- Source extraction / inspect tests ----

func TestGetSourceFromFile(t *testing.T) {
	src := `
def greet(name):
    msg = "hi " + name
    return msg
`
	ip := NewInterp(nil)
	env, err := ip.RunModule(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := env.Get("greet")
	fn := fv.(*Func)
	text, fromAST, err := GetSource(fn)
	if err != nil {
		t.Fatal(err)
	}
	if fromAST {
		t.Errorf("expected file-based source extraction")
	}
	if !strings.Contains(text, `def greet(name):`) || !strings.Contains(text, `return msg`) {
		t.Errorf("extracted source = %q", text)
	}
	// The extracted source must re-parse and produce an equivalent function.
	ip2 := NewInterp(nil)
	env2, err := ip2.RunModule(text, "m2")
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, text)
	}
	fv2, _ := env2.Get("greet")
	out, err := ip2.Call(fv2, []Value{Str("bob")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ToStr(out) != "hi bob" {
		t.Errorf("round-tripped function returned %q", ToStr(out))
	}
}

// TestGetSourceKeepsContinuedLastStatement: a def whose last statement
// runs past its first line inside brackets is extracted whole
// (FuzzUnmarshal found the truncated version, which does not re-parse).
func TestGetSourceKeepsContinuedLastStatement(t *testing.T) {
	for _, body := range []string{"return f(1,\n        2)", "return (x\n+ 1)", "y = [x,\n  x]\n    return {1:\n  y}"} {
		src := "def f(x):\n    " + body + "\nz = 1\n"
		env, err := NewInterp(nil).RunModule(src, "m")
		if err != nil {
			t.Fatal(err)
		}
		fv, _ := env.Get("f")
		text, fromAST, err := GetSource(fv.(*Func))
		if err != nil || fromAST || text != "def f(x):\n    "+body+"\n" {
			t.Fatalf("source of %q extracted as %q (fromAST %v, %v)", body, text, fromAST, err)
		}
	}
}

func TestGetSourceLambdaFromAST(t *testing.T) {
	ip := NewInterp(nil)
	env, err := ip.RunModule("f = lambda x, y=2: x * y\n", "m")
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := env.Get("f")
	text, fromAST, err := GetSource(fv.(*Func))
	if err != nil {
		t.Fatal(err)
	}
	if !fromAST {
		t.Errorf("lambda source must come from AST rendering")
	}
	if text != "(lambda x, y=2: (x * y))" {
		t.Errorf("lambda source = %q", text)
	}
}

func TestFreeVars(t *testing.T) {
	src := `
import mathx
offset = 10
def f(x):
    local = 5
    for i in range(x):
        local += i
    while local > 100:
        local = local - helper2
    if x:
        k, j = x, x
        xs = [k]
        xs[j] = lambda y, z=default: y + z + captured
    return mathx.square(x) + offset + local + helper(x)
`
	ip := NewInterp(newTestHost())
	env, err := ip.RunModule(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := env.Get("f")
	free := FreeVars(fv.(*Func))
	want := []string{"captured", "default", "helper", "helper2", "mathx", "offset", "range"}
	if fmt.Sprint(free) != fmt.Sprint(want) {
		t.Errorf("FreeVars = %v, want %v", free, want)
	}
}

func TestImportedModules(t *testing.T) {
	src := `
def f(x):
    import mathx
    from osx import join
    def g():
        import nested as n
        return n
    return x
`
	mod, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	def := mod.Body[0].(*DefStmt)
	fn := &Func{Name: def.Name, Params: def.Params, Body: def.Body, Def: def}
	got := ImportedModules(fn)
	want := []string{"mathx", "nested", "osx"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ImportedModules = %v, want %v", got, want)
	}
}

func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{
		"def f(a, b=3):\n    if a > b:\n        return a\n    return b\n",
		"def g(xs):\n    total = 0\n    for x in xs:\n        total += x * 2\n    return total\n",
		"def h(n):\n    while n > 0:\n        n = n - 1\n    return n\n",
		"def k(d, keys):\n    out = []\n    for key in keys:\n        out.append((key, d.get(key, -1)))\n    return out\n",
		"def m(x):\n    raise \"got \" + str(x)\n",
		"import mathx as m\nfrom mathx import sqrt as r\nglobal g, h\npass\n",
	}
	for _, src := range srcs {
		mod, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := PrintModule(mod.Body)
		mod2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-Parse of printed source failed: %v\nprinted:\n%s", err, printed)
		}
		printed2 := PrintModule(mod2.Body)
		if printed != printed2 {
			t.Errorf("print not stable:\nfirst:\n%s\nsecond:\n%s", printed, printed2)
		}
	}
}

// ---- property-based tests ----

// Property: for any int64 pair with b != 0, floorDiv/pyMod satisfy the
// Euclidean-ish identity a == b*floorDiv(a,b) + pyMod(a,b), and pyMod has
// the sign of b.
func TestQuickDivMod(t *testing.T) {
	f := func(a, b int64) bool {
		if b == 0 {
			return true
		}
		// Avoid the single overflow case.
		if a == -9223372036854775808 && b == -1 {
			return true
		}
		q := floorDiv(a, b)
		r := pyMod(a, b)
		if b*q+r != a {
			return false
		}
		if r != 0 && (r < 0) != (b < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: HashKey equality matches Equal for hashable primitives.
func TestQuickHashKeyConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		ka, _ := HashKey(Int(a))
		kb, _ := HashKey(Int(b))
		return (ka == kb) == Equal(Int(a), Int(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		ka, _ := HashKey(Str(a))
		kb, _ := HashKey(Str(b))
		return (ka == kb) == Equal(Str(a), Str(b))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: any parsed module reprints to source that parses to the same
// printed form (printer/parser fixpoint) for generated arithmetic
// expressions.
func TestQuickPrintParseFixpoint(t *testing.T) {
	f := func(a, b, c int32) bool {
		src := fmt.Sprintf("x = (%d + %d) * %d - (%d // 7)\n", a, b, c, c)
		mod, err := Parse(src)
		if err != nil {
			return false
		}
		printed := PrintModule(mod.Body)
		mod2, err := Parse(printed)
		if err != nil {
			return false
		}
		return PrintModule(mod2.Body) == printed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEnvCloneIsolation(t *testing.T) {
	root := NewEnv(nil)
	root.Set("shared", NewList(Int(1)))
	child := NewEnv(root)
	child.Set("local", Int(5))

	clone := child.Clone()
	clone.Set("local", Int(99))
	if v, _ := child.Get("local"); v.Repr() != "5" {
		t.Errorf("clone rebinding leaked into original: %s", v.Repr())
	}
	// Values are shared (CoW approximation): mutating the shared list is
	// visible through both.
	lv, _ := clone.Get("shared")
	lv.(*List).Elems = append(lv.(*List).Elems, Int(2))
	ov, _ := child.Get("shared")
	if len(ov.(*List).Elems) != 2 {
		t.Errorf("shared value should be visible through both envs")
	}
}

func TestForkInterpreterIndependentSteps(t *testing.T) {
	ip := NewInterp(nil)
	if _, err := ip.RunModule("x = 1 + 1\n", "m"); err != nil {
		t.Fatal(err)
	}
	child := ip.Fork()
	if child.Steps() != 0 {
		t.Errorf("forked interp should start with fresh step count")
	}
}

// evalSrc parses and evaluates a single expression in env.
func evalSrc(ip *Interp, src string, env *Env) (Value, error) {
	e, err := ParseExpr(src)
	if err != nil {
		return nil, err
	}
	return ip.eval(e, &frame{env: env})
}

// TestNewGlobalsSharesBuiltins: every globals environment binds the same
// builtin values, so NewGlobals allocates what an environment holding
// three names allocates and nothing for the builtins (3 fewer times than
// a fresh Builtin each). Rebinding `len` in one module rebinds it in that
// module only.
func TestNewGlobalsSharesBuiltins(t *testing.T) {
	ip := NewInterp(nil)
	a, b := ip.NewGlobals(), ip.NewGlobals()
	for _, name := range []string{"len", "range", "str"} {
		va, _ := a.Get(name)
		vb, _ := b.Get(name)
		if va != vb {
			t.Errorf("two globals hold different %s builtins", name)
		}
		if v, ok := UniversalBuiltin(name); !ok || v != va {
			t.Errorf("UniversalBuiltin(%q) is not the value NewGlobals binds", name)
		}
	}
	plain := testing.AllocsPerRun(100, func() {
		env := NewEnv(nil)
		env.Set("len", NoneValue)
		env.Set("range", NoneValue)
		env.Set("str", NoneValue)
	})
	if n := testing.AllocsPerRun(100, func() { ip.NewGlobals() }); n != plain {
		t.Errorf("NewGlobals allocates %.1f times, want %.1f: the environment's own", n, plain)
	}

	first, err := ip.RunModule("len = 5\n", "first")
	if err != nil {
		t.Fatal(err)
	}
	second, err := ip.RunModule("n = len([1, 2])\n", "second")
	if err != nil {
		t.Fatalf("len after another module rebound it: %v", err)
	}
	if v, _ := first.Get("len"); v.Repr() != "5" {
		t.Errorf("first module's len = %s, want 5", v.Repr())
	}
	if v, _ := second.Get("n"); v.Repr() != "2" {
		t.Errorf("second module's len([1, 2]) = %s, want 2", v.Repr())
	}
}

// countingHost resolves any module name to a fresh module and counts the
// resolutions, safely from forked interpreters at once.
type countingHost struct {
	mu       sync.Mutex
	resolved map[string]int
}

func (h *countingHost) ResolveModule(_ *Interp, name string) (*ModuleVal, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.resolved[name]++
	return &ModuleVal{Name: name, Attrs: map[string]Value{"name": Str(name)}}, nil
}

// An interpreter resolves each module once, past the table's inline
// entries too, and its forks share that table: what the root imported
// they find, and what one fork imports the others and the root find.
func TestImportsAreCachedAndSharedByForks(t *testing.T) {
	h := &countingHost{resolved: map[string]int{}}
	ip := NewInterp(h)
	var src strings.Builder
	for i := 0; i < 2*inlineModules; i++ {
		fmt.Fprintf(&src, "import m%d\nimport m%d\n", i, i)
	}
	if _, err := ip.RunModule(src.String(), "root"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(child *Interp) {
			defer wg.Done()
			if _, err := child.RunModule(src.String()+"import late\n", "child"); err != nil {
				t.Error(err)
			}
		}(ip.Fork())
	}
	wg.Wait()
	for i := 0; i < 2*inlineModules; i++ {
		if n := h.resolved[fmt.Sprintf("m%d", i)]; n != 1 {
			t.Errorf("m%d resolved %d times, want once", i, n)
		}
	}
	// Forks racing on a first import may each resolve it; the root then
	// finds one of theirs.
	late := h.resolved["late"]
	if late < 1 || late > 8 {
		t.Errorf("late resolved %d times by eight forks, want 1 to 8", late)
	}
	if _, err := ip.RunModule("import late\n", "root"); err != nil {
		t.Fatal(err)
	}
	if n := h.resolved["late"]; n != late {
		t.Errorf("the root resolved late again (%d times, then %d): its forks' import is not its own", late, n)
	}
}
