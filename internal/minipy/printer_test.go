package minipy

import (
	"strings"
	"testing"
)

// parsePrint parses src and returns the printed form.
func parsePrint(t *testing.T, src string) string {
	t.Helper()
	mod, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return PrintModule(mod.Body)
}

func TestPrintStatementForms(t *testing.T) {
	cases := []struct {
		src  string
		want []string // substrings of the printed form
	}{
		{"import a as c\nimport d\n", []string{"import a as c\n", "import d\n"}},
		{"from m import x as y\nfrom m import z\n", []string{"from m import x as y\n", "from m import z\n"}},
		{"global a, b\n", []string{"global a, b"}},
		{"raise 'err'\n", []string{`raise "err"`}},
		{"x += 1\n", []string{"x += 1"}},
		{"a, b = b, a\n", []string{"(a, b) = (b, a)"}},
		{"pass\n", []string{"pass"}},
		{"def f():\n    return\n", []string{"def f():\n    return\n"}},
		{"if x:\n    y = 1\n", []string{"if x:\n    y = 1\n"}},
		{"while x:\n    y = 1\n", []string{"while x:\n    y = 1\n"}},
		{"for i in xs:\n    f(i)\n", []string{"for i in xs:\n    f(i)\n"}},
		{"x = lambda a, b=2: a + b\n", []string{"(lambda a, b=2: (a + b))"}},
		{"x = lambda: 1\n", []string{"(lambda: 1)"}},
		{"x = y[0].z\n", []string{"y[0].z"}},
		{"x = (1,)\n", []string{"(1,)"}},
		{"x = ()\n", []string{"x = ()"}},
		{"x = {1: 'a', 2: 'b'}\n", []string{`{1: "a", 2: "b"}`}},
		{"x = [True, False, None, 1.5, 'a\\nb']\n", []string{`[True, False, None, 1.5, "a\nb"]`}},
		{"x = -y * 2\n", []string{"((-y) * 2)"}},
		{"a = 1 <= 2\nb = 3 != 4\nc = 5 >= 6\nd = 1 < 2\ne = 1 > 2\nf = 1 == 2\n",
			[]string{"(1 <= 2)", "(3 != 4)", "(5 >= 6)", "(1 < 2)", "(1 > 2)", "(1 == 2)"}},
		{"f(a, b, 1 // 2 % 3)\n", []string{"f(a, b, ((1 // 2) % 3))"}},
	}
	for _, c := range cases {
		printed := parsePrint(t, c.src)
		for _, w := range c.want {
			if !strings.Contains(printed, w) {
				t.Errorf("print of %q = %q, missing %q", c.src, printed, w)
			}
		}
		// Printed source must re-parse.
		if _, err := Parse(printed); err != nil {
			t.Errorf("printed form of %q does not parse: %v\n%s", c.src, err, printed)
		}
	}
}

func TestPrintPreservesSemantics(t *testing.T) {
	// Parse → print → parse → run must equal parse → run directly.
	srcs := []string{
		`
def collatz(n):
    steps = 0
    while n != 1:
        if n % 2 == 0:
            n = n // 2
        if n % 2 == 1:
            if n != 1:
                n = 3 * n + 1
        steps += 1
    return steps
r = collatz(27)
`,
		`
acc = {}
for i in range(20):
    key = "k" + str(i % 3)
    acc[key] = acc.get(key, 0) + i
r = [acc["k0"], acc["k1"], acc["k2"], len(acc)]
`,
		`
def apply_all(fs, x):
    out = []
    for f in fs:
        out.append(f(x))
    return out
r = apply_all([lambda v: v + 1, lambda v: v * 2, lambda v: -v], 10)
`,
	}
	for _, src := range srcs {
		ip1 := NewInterp(nil)
		env1, err := ip1.RunModule(src, "a")
		if err != nil {
			t.Fatalf("original failed: %v", err)
		}
		printed := parsePrint(t, src)
		ip2 := NewInterp(nil)
		env2, err := ip2.RunModule(printed, "b")
		if err != nil {
			t.Fatalf("printed form failed: %v\n%s", err, printed)
		}
		v1, _ := env1.Get("r")
		v2, _ := env2.Get("r")
		if !Equal(v1, v2) {
			t.Errorf("semantics changed by printing: %s vs %s\nprinted:\n%s", v1.Repr(), v2.Repr(), printed)
		}
	}
}

func TestValueToLiteral(t *testing.T) {
	values := []Value{
		NoneValue,
		Bool(true),
		Int(-42),
		Float(2.5),
		Str("hi"),
		NewList(Int(1), Str("x")),
		NewTuple(Int(1), Int(2)),
		NewList(),
	}
	for _, v := range values {
		lit := valueToLiteral(v)
		if lit == nil {
			t.Errorf("no literal for %s", v.Repr())
			continue
		}
		printed := PrintExpr(lit)
		ip := NewInterp(nil)
		got, err := evalSrc(ip, printed, ip.NewGlobals())
		if err != nil {
			t.Errorf("literal %q does not eval: %v", printed, err)
			continue
		}
		if !Equal(got, v) {
			t.Errorf("literal round trip %s -> %q -> %s", v.Repr(), printed, got.Repr())
		}
	}
	// Unconvertible values yield nil.
	if valueToLiteral(&Builtin{Name: "len"}) != nil {
		t.Errorf("builtin should not literalize")
	}
	if valueToLiteral(NewList(Int(1), NewDict())) != nil {
		t.Errorf("a list holding a dict should not literalize")
	}
	d := NewDict()
	if valueToLiteral(d) != nil {
		t.Errorf("dict literalization not supported (by design)")
	}
	// A default with no source expression prints as its value, or as
	// None when the value has no literal.
	for v, want := range map[Value]string{Int(7): "7", NewDict(): "None"} {
		if got := PrintExpr(&evaluatedDefault{value: v}); got != want {
			t.Errorf("default %s prints as %q, want %q", v.Repr(), got, want)
		}
	}
}
