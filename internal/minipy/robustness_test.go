package minipy

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// Property: the lexer and parser never panic, whatever bytes arrive —
// they either parse or return a *SyntaxError.
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on input %q: %v", src, r)
				ok = false
			}
		}()
		_, err := Parse(src)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: mutations of valid programs never panic the parser.
func TestQuickMutatedProgramsNeverPanic(t *testing.T) {
	base := `
def f(x, k=3):
    total = 0
    for i in range(x):
        if i % 2 == 0:
            total += i * k
        if i % 2 != 0:
            total += -i
    return total
r = f(10)
`
	f := func(pos uint16, b byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		src := []byte(base)
		src[int(pos)%len(src)] = b
		_, _ = Parse(string(src))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the interpreter never panics executing parseable mutations
// (it may error) under a step budget.
func TestQuickInterpreterNeverPanics(t *testing.T) {
	base := "x = [1, 2, 3]\ny = x[0] + len(x)\nz = {\"k\": y}\n"
	f := func(pos uint16, b byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		src := []byte(base)
		src[int(pos)%len(src)] = b
		ip := NewInterp(nil)
		ip.StepLimit = 100000
		_, _ = ip.RunModule(string(src), "fuzz")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Pathological inputs that have bitten parsers before.
func TestPathologicalInputs(t *testing.T) {
	inputs := []string{
		"",
		"\n\n\n",
		"   ",
		"\t\t\t",
		"#comment only\n",
		strings.Repeat("(", 500),
		strings.Repeat("[", 500) + strings.Repeat("]", 500),
		strings.Repeat("a.", 200) + "a",
		"def " + strings.Repeat("f(", 100),
		"x = " + strings.Repeat("1 + ", 300) + "1",
		"if 1:\n" + strings.Repeat("    if 1:\n", 80) + strings.Repeat("    ", 81) + "pass\n",
		"\"" + strings.Repeat("a", 100000) + "\"",
		"x = '''" + strings.Repeat("line\n", 100) + "'''\n",
		"\x00\x01\x02",
		"λ = 1",
		"def f(:\n",
		"1..2",
		"0x",
		"1e",
		"1e+",
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %.40q: %v", src, r)
				}
			}()
			if mod, err := Parse(src); err == nil && mod != nil {
				ip := NewInterp(nil)
				ip.StepLimit = 100000
				env := ip.NewGlobals()
				_ = ip.ExecBlockWithSource(mod.Body, env, src, "path")
			}
		}()
	}
}

// Deep recursion in pickling/eval of self-referencing structures must
// not blow the stack uncontrolled (guarded by MaxDepth).
func TestDeepCallChain(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("def f0(x):\n    return x\n")
	for i := 1; i <= 150; i++ {
		sb.WriteString("def f")
		sb.WriteString(itoa(i))
		sb.WriteString("(x):\n    return f")
		sb.WriteString(itoa(i - 1))
		sb.WriteString("(x)\n")
	}
	ip := NewInterp(nil)
	env, err := ip.RunModule(sb.String(), "deep")
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := env.Get("f150")
	v, err := ip.Call(fv, []Value{Int(42)}, nil)
	if err != nil {
		t.Fatalf("deep chain within MaxDepth failed: %v", err)
	}
	if v.Repr() != "42" {
		t.Errorf("deep chain = %s", v.Repr())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// hostileParens and hostileChain are the two inputs that overflowed the
// stack before the parser bounded its trees: 3×10⁶ nested parentheses
// died inside Parse, and a 3×10⁶-term sum parsed, left-associatively
// and without recursion, into a tree 3×10⁶ deep that died in eval. Each
// is 6 MB, well under a frame's limit.
func hostileParens() string {
	return strings.Repeat("(", 3_000_000) + strings.Repeat(")", 3_000_000)
}

func hostileChain() string { return "x = " + strings.Repeat("1+", 3_000_000) + "1\n" }

// TestHostileNestingIsAnError: both inputs are syntax errors through
// Parse, ParseExpr and RunModule, and rejecting them costs the parser no
// more than the tokens it read before giving up.
func TestHostileNestingIsAnError(t *testing.T) {
	for name, src := range map[string]string{"parens": hostileParens(), "chain": hostileChain()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(src)
		runtime.ReadMemStats(&after)
		if _, ok := err.(*SyntaxError); !ok || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: Parse err = %v, want a nesting syntax error", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %d", name, len(src), alloc)
		}
		if _, err := ParseExpr(strings.TrimPrefix(src, "x = ")); err == nil {
			t.Errorf("%s: ParseExpr accepted it", name)
		}
		if _, err := NewInterp(nil).RunModule(src, "m"); err == nil {
			t.Errorf("%s: RunModule accepted it", name)
		}
	}
}

// TestNestingBoundIsExact: for each way a tree grows a level — blocks,
// left-associative chains, unary minus, postfix chains, brackets,
// lambdas, conditionals, and their mixes — a tree maxDepth deep parses,
// runs where it can, and prints to source that parses back to the same
// print, while one level more is a syntax error.
func TestNestingBoundIsExact(t *testing.T) {
	// Each shape builds a module whose deepest node is at depth d; the
	// statement holding the expression is depth 1.
	shapes := map[string]func(d int) string{
		"blocks": func(d int) string {
			var sb strings.Builder
			for i := 0; i < d-1; i++ {
				sb.WriteString(strings.Repeat("    ", i) + "if x:\n")
			}
			return sb.String() + strings.Repeat("    ", d-1) + "pass\n"
		},
		"sum":     func(d int) string { return "x = 1" + strings.Repeat(" + 1", d-2) + "\n" },
		"product": func(d int) string { return "x = 2" + strings.Repeat(" * 1", d-2) + "\n" },
		"minus":   func(d int) string { return "x = " + strings.Repeat("-", d-2) + "1\n" },
		"attrs":   func(d int) string { return "x = a" + strings.Repeat(".b", d-2) + "\n" },
		"calls":   func(d int) string { return "x = f" + strings.Repeat("()", d-2) + "\n" },
		"lists":   func(d int) string { return "x = " + strings.Repeat("[", d-1) + strings.Repeat("]", d-1) + "\n" },
		"parens": func(d int) string {
			return "x = " + strings.Repeat("(1 + ", d-2) + "1" + strings.Repeat(")", d-2) + "\n"
		},
		"lambdas": func(d int) string { return "x = " + strings.Repeat("lambda: ", d-2) + "1\n" },
		"defs": func(d int) string {
			var sb strings.Builder
			for i := 0; i < d-1; i++ {
				sb.WriteString(strings.Repeat("    ", i) + "def f(a=1):\n")
			}
			return sb.String() + strings.Repeat("    ", d-1) + "pass\n"
		},
		"mixed": func(d int) string {
			return "x = " + strings.Repeat("-[(lambda: ", (d-2)/3) + "1" + strings.Repeat(")]", (d-2)/3) + strings.Repeat(" + 1", (d-2)%3) + "\n"
		},
	}
	for name, shape := range shapes {
		src := shape(maxDepth)
		mod, err := Parse(src)
		if err != nil {
			t.Errorf("%s: a tree %d deep: %v", name, maxDepth, err)
			continue
		}
		printed := PrintModule(mod.Body)
		again, err := Parse(printed)
		if err != nil {
			t.Errorf("%s: the printed tree does not parse: %v", name, err)
		} else if PrintModule(again.Body) != printed {
			t.Errorf("%s: print is not stable", name)
		}
		ip := NewInterp(nil)
		ip.StepLimit = 1 << 20
		env := ip.NewGlobals()
		env.Set("x", Bool(true))
		_ = ip.ExecBlockWithSource(mod.Body, env, src, "m")
		if _, err := Parse(shape(maxDepth + 1)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: a tree %d deep: err = %v, want a nesting syntax error", name, maxDepth+1, err)
		}
	}
	// An expression alone starts at depth 1.
	if _, err := ParseExpr(strings.Repeat("-", maxDepth-1) + "1"); err != nil {
		t.Errorf("ParseExpr of %d levels: %v", maxDepth, err)
	}
	if _, err := ParseExpr(strings.Repeat("-", maxDepth) + "1"); err == nil {
		t.Errorf("ParseExpr of %d levels succeeded", maxDepth+1)
	}
}

// deepList is depth lists, each the only element of the one before.
func deepList(depth int) *List {
	l := NewList()
	for i := 1; i < depth; i++ {
		l = NewList(l)
	}
	return l
}

// TestDeepValuesAreBounded: Repr, Equal, Compare and HashKey follow a
// value MaxValueDepth levels deep and no further, whether it is nested
// that deep or contains itself — both used to recurse until the stack
// overflowed — and a script that meets one through str(), ==, != or <
// gets an error naming the bound.
func TestDeepValuesAreBounded(t *testing.T) {
	const bound = "nested deeper than 1000 levels"
	edge := deepList(MaxValueDepth)
	if s, err := repr(edge); err != nil || s != strings.Repeat("[", MaxValueDepth)+strings.Repeat("]", MaxValueDepth) {
		t.Errorf("repr of %d levels: %v", MaxValueDepth, err)
	}
	if c, err := Compare(edge, deepList(MaxValueDepth)); err != nil || c != 0 || !Equal(edge, deepList(MaxValueDepth)) {
		t.Errorf("%d levels do not compare equal: %d, %v", MaxValueDepth, c, err)
	}
	self := NewList(Int(1))
	self.Elems = append(self.Elems, self)
	for name, v := range map[string]*List{"deep": deepList(MaxValueDepth + 1), "self": self} {
		if _, err := repr(v); err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("%s: repr err = %v", name, err)
		}
		if r := v.Repr(); !strings.HasSuffix(r, "...") || len(r) > 8*MaxValueDepth {
			t.Errorf("%s: Repr is %d bytes, not cut short", name, len(r))
		}
		if _, err := equal(v, v, 0); err == nil || !strings.Contains(err.Error(), bound) || Equal(v, v) {
			t.Errorf("%s: equal err = %v", name, err)
		}
		if _, err := Compare(v, v); err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("%s: Compare err = %v", name, err)
		}
	}
	tuple := Value(NewTuple())
	for i := 0; i < MaxValueDepth; i++ {
		tuple = NewTuple(tuple)
	}
	if _, err := HashKey(tuple); err == nil || !strings.Contains(err.Error(), bound) {
		t.Errorf("HashKey of %d levels: err = %v", MaxValueDepth+1, err)
	}

	ip := NewInterp(nil)
	env, err := ip.RunModule("l = [1]\nl.append(l)\nd = []\nfor i in range(1000):\n    d = [d]\n", "m")
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"str(l)", "l == l", "l != l", "l < l", "str(d)", "d == d", "d < d"} {
		if _, err := evalSrc(ip, expr, env); err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("%s: err = %v", expr, err)
		}
	}
}

// TestSharedTuplesCostTheirDistinctTuples: a tuple holding one tuple
// twice, sixty levels deep, has 2⁶⁰ elements unshared. As a dict key it
// hashes once per distinct tuple, and it finds its entry through a copy
// built apart, which Equal walks pair by distinct pair.
func TestSharedTuplesCostTheirDistinctTuples(t *testing.T) {
	build := func() *Tuple {
		k := NewTuple(NoneValue)
		for i := 0; i < 60; i++ {
			k = NewTuple(k, k)
		}
		return k
	}
	a, b := build(), build()
	d := NewDict()
	if err := d.Set(a, Int(1)); err != nil {
		t.Fatal(err)
	}
	if v, ok := d.Get(b); !ok || v != Int(1) || !Equal(a, b) {
		t.Fatalf("a copy built apart is not the same key: %v, %v", v, ok)
	}
	if _, ok := d.Get(NewTuple(b, Int(0))); ok {
		t.Fatal("a different key found the entry")
	}
}

// TestEqualKeysAreOneKey: keys that compare equal are one entry, as in
// Python — 1, 1.0 and True among them — and a dict keeps the order of
// first insertion. Every NaN is one key too, bare or in a tuple, though
// NaN != NaN: a dict holding one still equals itself.
func TestEqualKeysAreOneKey(t *testing.T) {
	d := NewDict()
	nan, otherNaN := Float(math.NaN()), Float(math.Float64frombits(math.Float64bits(math.NaN())|0xff))
	for i, k := range []Value{Int(1), Str("a"), Float(1), Bool(true), NewTuple(Int(0)), NewTuple(Float(0)),
		nan, NewTuple(nan), otherNaN, NewTuple(otherNaN)} {
		if err := d.Set(k, Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := d.Repr(), `{1: 3, "a": 1, (0,): 5, NaN: 8, (NaN,): 9}`; got != want {
		t.Errorf("dict = %s, want %s", got, want)
	}
	if !Equal(d, d) || Equal(nan, nan) {
		t.Error("a dict with NaN keys is not equal to itself, or NaN == NaN")
	}
	if _, err := HashKey(NewList()); err == nil {
		t.Error("a list hashed")
	}
}
