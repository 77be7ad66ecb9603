package minipy

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// testHost provides a buffer stdout and a tiny module set for import
// tests.
type testHost struct {
	out     bytes.Buffer
	modules map[string]*ModuleVal
}

func (h *testHost) ResolveModule(_ *Interp, name string) (*ModuleVal, error) {
	if m, ok := h.modules[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("no module named '%s'", name)
}

func (h *testHost) Stdout() io.Writer { return &h.out }

func newTestHost() *testHost {
	h := &testHost{modules: map[string]*ModuleVal{}}
	h.modules["mathx"] = &ModuleVal{Name: "mathx", Attrs: map[string]Value{
		"pi": Float(3.14159),
		"square": &Builtin{Name: "square", Fn: func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
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
	v, err := ip.Eval(expr, env)
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
		{"2 ** 10", "1024"},
		{"10 / 4", "2.5"},
		{"1.5 + 2.5", "4.0"},
		{"2 ** -1", "0.5"},
		{"-(3)", "-3"},
		{"1 + True", "2"},
		{"3.0 // 2.0", "1.0"},
		{"[1, 2] * 2", "[1, 2, 1, 2]"},
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
		{"1 == 1.0", true},
		{"True == 1.0", true},
		{"1 != 2", true},
		{"'a' < 'b'", true},
		{"[1, 2] < [1, 3]", true},
		{"[1] < [1, 0]", true},
		{"not False", true},
		{"True and False", false},
		{"True or False", true},
		{"1 in [1, 2, 3]", true},
		{"4 not in [1, 2, 3]", true},
		{"'el' in 'hello'", true},
		{"'k' in {'k': 1}", true},
	}
	for _, c := range cases {
		v := evalExpr(t, c.expr)
		if v.Truth() != c.want {
			t.Errorf("%s = %v, want %v", c.expr, v.Truth(), c.want)
		}
	}
}

func TestShortCircuitReturnsOperand(t *testing.T) {
	if got := evalExpr(t, "0 or 5").Repr(); got != "5" {
		t.Errorf("0 or 5 = %s", got)
	}
	if got := evalExpr(t, "0 and 5").Repr(); got != "0" {
		t.Errorf("0 and 5 = %s", got)
	}
}

func TestStringOps(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{`"ab" + "cd"`, `"abcd"`},
		{`"ab" * 3`, `"ababab"`},
		{`"Hello"[1]`, `"e"`},
		{`"Hello"[-1]`, `"o"`},
		{`"Hello"[1:3]`, `"el"`},
		{`"Hello".upper()`, `"HELLO"`},
		{`"a,b,c".split(",")[1]`, `"b"`},
		{`"-".join(["a", "b"])`, `"a-b"`},
		{`"hello world".replace("world", "there")`, `"hello there"`},
		{`"%s=%d" % ("x", 42)`, `"x=42"`},
		{`"%.2f" % 3.14159`, `"3.14"`},
		{`"{}-{}".format(1, 2)`, `"1-2"`},
		{`"  pad  ".strip()`, `"pad"`},
		{`"abc".startswith("ab")`, "True"},
		{`len("hello")`, "5"},
		// Positions are runes, not bytes, wherever the two differ.
		{`len("héllo wörld")`, "11"},
		{`"héllo wörld"[1]`, `"é"`},
		{`"héllo wörld"[-4]`, `"ö"`},
		{`"héllo wörld"[1:3]`, `"él"`},
		{`"héllo wörld"[-4:]`, `"örld"`},
		{`"hello wörld"[4]`, `"o"`},
		{`"hello wörld"[8]`, `"r"`},
		{`"hello wörld"[:5]`, `"hello"`},
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
xs.sort()
ys = xs[1:3]
zs = xs + [9]
total = sum(xs)
`
	if got := evalIn(t, src, "xs").Repr(); got != "[1, 2, 3, 4]" {
		t.Errorf("xs = %s", got)
	}
	if got := evalIn(t, src, "ys").Repr(); got != "[2, 3]" {
		t.Errorf("ys = %s", got)
	}
	if got := evalIn(t, src, "total").Repr(); got != "10" {
		t.Errorf("total = %s", got)
	}
	if got := evalIn(t, src, "zs[-1]").Repr(); got != "9" {
		t.Errorf("zs[-1] = %s", got)
	}
}

func TestDictOps(t *testing.T) {
	src := `
d = {"a": 1, "b": 2}
d["c"] = 3
d["a"] = 10
n = d.get("missing", -1)
ks = sorted(d.keys())
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
	if got := evalIn(t, src, "ks").Repr(); got != `["a", "b", "c"]` {
		t.Errorf("ks = %s", got)
	}
}

func TestDictInsertionOrder(t *testing.T) {
	src := `
d = {}
d["z"] = 1
d["a"] = 2
d["m"] = 3
ks = d.keys()
`
	if got := evalIn(t, src, "ks").Repr(); got != `["z", "a", "m"]` {
		t.Errorf("keys order = %s", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
def classify(n):
    if n < 0:
        return "neg"
    elif n == 0:
        return "zero"
    else:
        return "pos"

total = 0
for i in range(10):
    if i % 2 == 0:
        continue
    if i > 7:
        break
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
r3 = add(1, c=5)
r4 = add(a=7, b=8, c=9)
`
	checks := map[string]string{"r1": "111", "r2": "103", "r3": "16", "r4": "24"}
	for name, want := range checks {
		if got := evalIn(t, src, name).Repr(); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
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
	_, err = ip.Eval("f(0)", env)
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
for n, s in pairs:
    names.append(s)
`
	if got := evalIn(t, src, "a").Repr(); got != "2" {
		t.Errorf("a = %s", got)
	}
	if got := evalIn(t, src, "names").Repr(); got != `["x", "y"]` {
		t.Errorf("names = %s", got)
	}
}

func TestLambdaAndHigherOrder(t *testing.T) {
	src := `
xs = [5, 3, 1, 4, 2]
doubled = map(lambda x: x * 2, xs)
evens = filter(lambda x: x % 2 == 0, xs)
bysq = sorted(xs, key=lambda x: (x - 3) ** 2)
`
	if got := evalIn(t, src, "doubled").Repr(); got != "[10, 6, 2, 8, 4]" {
		t.Errorf("doubled = %s", got)
	}
	if got := evalIn(t, src, "evens").Repr(); got != "[4, 2]" {
		t.Errorf("evens = %s", got)
	}
	if got := evalIn(t, src, "bysq[0]").Repr(); got != "3" {
		t.Errorf("bysq[0] = %s", got)
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
}

func TestImportMissingModule(t *testing.T) {
	ip := NewInterp(newTestHost())
	_, err := ip.RunModule("import nosuchmod\n", "m")
	if err == nil || !strings.Contains(err.Error(), "no module named 'nosuchmod'") {
		t.Errorf("expected import error, got %v", err)
	}
}

func TestPrintOutput(t *testing.T) {
	h := newTestHost()
	ip := NewInterp(h)
	_, err := ip.RunModule("print(\"hello\", 42)\nprint(\"next\", end=\"\")\n", "m")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.out.String(); got != "hello 42\nnext" {
		t.Errorf("output = %q", got)
	}
}

func TestTryExceptFinally(t *testing.T) {
	src := `
log = []
def risky(n):
    if n < 0:
        raise "negative input"
    return n * 2

def safe(n):
    try:
        return risky(n)
    except Exception as e:
        log.append(e)
        return -1
    finally:
        log.append("done")

a = safe(5)
b = safe(-3)
`
	if got := evalIn(t, src, "a").Repr(); got != "10" {
		t.Errorf("a = %s", got)
	}
	if got := evalIn(t, src, "b").Repr(); got != "-1" {
		t.Errorf("b = %s", got)
	}
	if got := evalIn(t, src, "log").Repr(); got != `["done", "negative input", "done"]` {
		t.Errorf("log = %s", got)
	}
}

func TestAssert(t *testing.T) {
	ip := NewInterp(nil)
	_, err := ip.RunModule("assert 1 == 2, \"broken math\"\n", "m")
	if err == nil || !strings.Contains(err.Error(), "broken math") {
		t.Errorf("expected assertion error, got %v", err)
	}
	if _, err := ip.RunModule("assert 1 == 1\n", "m"); err != nil {
		t.Errorf("passing assert should not error: %v", err)
	}
}

func TestAugmentedAssignTargets(t *testing.T) {
	src := `
d = {"n": 0}
d["n"] += 5
xs = [1, 2, 3]
xs[1] *= 10
`
	if got := evalIn(t, src, "d['n']").Repr(); got != "5" {
		t.Errorf("d['n'] = %s", got)
	}
	if got := evalIn(t, src, "xs").Repr(); got != "[1, 20, 3]" {
		t.Errorf("xs = %s", got)
	}
}

func TestDel(t *testing.T) {
	src := `
d = {"a": 1, "b": 2}
del d["a"]
xs = [1, 2, 3]
del xs[0]
gone = 1
del gone
kept = 2
def drop():
    global kept
    local = 3
    del local
    del kept
drop()
`
	if got := evalIn(t, src, "len(d)").Repr(); got != "1" {
		t.Errorf("len(d) = %s", got)
	}
	if got := evalIn(t, src, "xs").Repr(); got != "[2, 3]" {
		t.Errorf("xs = %s", got)
	}
	// del of a plain name unbinds it in its own frame, or — declared
	// global — in the module's (Env.Delete); deleting it again is an
	// error, not a no-op.
	ip := NewInterp(newTestHost())
	env, err := ip.RunModule(src, "__main__")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gone", "kept"} {
		if _, bound := env.Get(name); bound {
			t.Errorf("%s is still bound after del", name)
		}
	}
	if _, err := ip.RunModule("x = 1\ndel x\ndel x\n", "m"); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("second del of a name: err = %v, want a name-not-defined error", err)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct{ expr, want string }{
		{"abs(-5)", "5"},
		{"abs(-5.5)", "5.5"},
		{"min(3, 1, 2)", "1"},
		{"max([4, 9, 2])", "9"},
		{"round(3.567, 2)", "3.57"},
		{"round(3.5)", "4"},
		{"int('42')", "42"},
		{"float('2.5')", "2.5"},
		{"str(42)", `"42"`},
		{"list(range(3))", "[0, 1, 2]"},
		{"list(range(2, 8, 3))", "[2, 5]"},
		{"list(range(5, 0, -2))", "[5, 3, 1]"},
		{"enumerate(['a', 'b'])", `[(0, "a"), (1, "b")]`},
		{"zip([1, 2], ['a', 'b'])", `[(1, "a"), (2, "b")]`},
		{"type(3.5)", `"float"`},
		{"repr('x')", `"\"x\""`},
		{"sorted([3, 1, 2], reverse=True)", "[3, 2, 1]"},
		{"reversed([1, 2, 3])", "[3, 2, 1]"},
		{"tuple([1, 2])", "(1, 2)"},
		{"dict([(1, 'a'), (2, 'b')])[2]", `"b"`},
		{"callable(len)", "True"},
		{"callable(3)", "False"},
		{"isinstance(3, 'int')", "True"},
		{"bool([])", "False"},
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
		{"{'a': 1}['b']", "KeyError"},
		{"undefined_name", "not defined"},
		{"'a' + 1", "concatenate"},
		{"(3)(4)", "not callable"},
		{"[1, 2] < 3", "not supported"},
		{"len(3)", "no len()"},
	}
	for _, c := range cases {
		ip := NewInterp(nil)
		env := ip.NewGlobals()
		_, err := ip.Eval(c.src, env)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Eval(%q) error = %v, want substring %q", c.src, err, c.wantSub)
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
		"for in [1]:\n    pass\n",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
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

func TestTernaryExpr(t *testing.T) {
	if got := evalExpr(t, "'big' if 10 > 5 else 'small'").Repr(); got != `"big"` {
		t.Errorf("ternary = %s", got)
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
	if got := evalIn(t, src, "documented.__doc__").Repr(); got != `"does a thing"` {
		t.Errorf("doc = %s", got)
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
// runs past its first line — inside brackets, or a triple-quoted string —
// is extracted whole (FuzzUnmarshal found the truncated version, which
// does not re-parse).
func TestGetSourceKeepsContinuedLastStatement(t *testing.T) {
	for _, body := range []string{"return f(1,\n        2)", "return (x\n+ 1)", "return \"\"\"a\nb\"\"\"", "y = [x,\n  x]; return y"} {
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
	if !strings.Contains(text, "lambda") {
		t.Errorf("lambda source = %q", text)
	}
}

func TestFreeVars(t *testing.T) {
	src := `
import mathx
offset = 10
def f(x):
    local = 5
    return mathx.square(x) + offset + local + helper(x)
`
	ip := NewInterp(newTestHost())
	env, err := ip.RunModule(src, "m")
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := env.Get("f")
	free := FreeVars(fv.(*Func))
	want := map[string]bool{"mathx": true, "offset": true, "helper": true}
	for _, n := range free {
		if !want[n] {
			t.Errorf("unexpected free var %q (free=%v)", n, free)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("missing free var %q (free=%v)", n, free)
	}
}

func TestImportedModules(t *testing.T) {
	src := `
def f(x):
    import mathx
    from osx.path import join
    def g():
        import nested.deep.mod
        return 1
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
		"def f(a, b=3):\n    if a > b:\n        return a\n    else:\n        return b\n",
		"def g(xs):\n    total = 0\n    for x in xs:\n        total += x * 2\n    return total\n",
		"def h(n):\n    while n > 0:\n        n -= 1\n    return n\n",
		"def k(d):\n    out = []\n    for key in d.keys():\n        out.append((key, d[key]))\n    return out\n",
		"def m(x):\n    try:\n        return 1 / x\n    except Exception as e:\n        return e\n    finally:\n        pass\n",
		"def s(a):\n    return \"x\" if a else \"y\"\n",
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

// Property: list sort is idempotent and produces an ordered permutation.
func TestQuickSortProperty(t *testing.T) {
	f := func(xs []int16) bool {
		l := &List{}
		for _, x := range xs {
			l.Elems = append(l.Elems, Int(x))
		}
		ip := NewInterp(nil)
		if _, err := listMethods["sort"](ip, l, nil, nil); err != nil {
			return false
		}
		if len(l.Elems) != len(xs) {
			return false
		}
		for i := 1; i < len(l.Elems); i++ {
			c, err := Compare(l.Elems[i-1], l.Elems[i])
			if err != nil || c > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
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
