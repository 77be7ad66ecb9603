package minipy

import (
	"fmt"
	"strings"
	"testing"
)

// TestCodeCacheParsesEachTextOnce: a text is parsed on its first lookup
// and shared after; the same text as a lambda is another entry, and a
// nil cache parses every time.
func TestCodeCacheParsesEachTextOnce(t *testing.T) {
	c := new(CodeCache)
	const src = "lambda x: x + 1"
	first, err := c.Module(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if again, _ := c.Module(src); again != first {
			t.Fatalf("lookup %d returned another tree", i+2)
		}
	}
	expr, err := c.lambda(src)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.lambda(src); again != expr {
		t.Fatal("a lambda's second lookup returned another tree")
	}
	if st := c.Stats(); st != (CodeStats{Hits: 4, Parses: 2, Entries: 2}) {
		t.Errorf("stats %+v, want 4 hits, 2 parses, 2 entries", st)
	}
	var cold *CodeCache
	if a, _ := cold.Module(src); a == first {
		t.Error("a nil cache returned a cached tree")
	} else if b, _ := cold.Module(src); a == b {
		t.Error("a nil cache returned one tree twice")
	}
}

// TestCodeCacheKeepsNoParseError: a text that does not parse fails the
// same way on every attempt, is parsed on every attempt, and never takes
// an entry. A text longer than maxCachedSource is parsed every time too.
func TestCodeCacheKeepsNoParseError(t *testing.T) {
	c := new(CodeCache)
	for _, bad := range []string{"def f(:\n    pass\n", "x = (1,\n"} {
		_, want := Parse(bad)
		if want == nil {
			t.Fatalf("%q parses", bad)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Module(bad); err == nil || err.Error() != want.Error() {
				t.Fatalf("attempt %d: %v, want %v", i+1, err, want)
			}
		}
		if _, err := c.lambda(bad); err == nil {
			t.Fatalf("%q parses as an expression", bad)
		}
	}
	long := "x = 1\n" + strings.Repeat("y = 2\n", maxCachedSource/6)
	for i := 0; i < 2; i++ {
		if _, err := c.Module(long); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st != (CodeStats{Parses: 10}) {
		t.Errorf("stats %+v, want 10 parses and no entry", st)
	}
}

// TestCodeCacheStaysWithinItsBound: 10 000 distinct texts leave at most
// codeCacheEntries trees, the index and the clock agreeing on each, and
// a text looked up between every two inserts — the wrapper script among
// a stream of one-off scripts — is never evicted.
func TestCodeCacheStaysWithinItsBound(t *testing.T) {
	c := new(CodeCache)
	const hot = "import vine_runtime\nvine_runtime.store_result(1)\n"
	tree, err := c.Module(hot)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := c.Module(fmt.Sprintf("x = %d\n", i)); err != nil {
			t.Fatal(err)
		}
		if again, _ := c.Module(hot); again != tree {
			t.Fatalf("the hot text was evicted after %d inserts", i+1)
		}
	}
	st := c.Stats()
	if st.Entries != codeCacheEntries || len(c.at) != codeCacheEntries {
		t.Fatalf("%d entries, %d indexed, want %d", st.Entries, len(c.at), codeCacheEntries)
	}
	for key, i := range c.at {
		if c.ring[i].key != key {
			t.Fatalf("index sends %q to slot %d, which holds %q", key.src, i, c.ring[i].key.src)
		}
	}
	if st.Parses != 10_001 || st.Hits != 10_000 {
		t.Errorf("stats %+v, want 10001 parses and 10000 hits", st)
	}
}

// TestRebuildWritesNoCachedTree: rebuilding a function installs its
// pickled defaults in a copy of the parameter list, so the tree the
// cache shares with every later rebuild keeps the parsed defaults, for
// a def and for a lambda.
func TestRebuildWritesNoCachedTree(t *testing.T) {
	ip := NewInterp(nil)
	ip.Code = new(CodeCache)
	params := []ParamInfo{{Name: "x"}, {Name: "k", HasDefault: true, Default: Int(3)}}
	for _, spec := range []RebuildSpec{
		{Name: "f", Source: "def f(x, k=1 + 2):\n    return x * k\n", Params: params},
		{Name: "g", IsLambda: true, Source: "lambda x, k=1 + 2: x * k", Params: params},
	} {
		for i := 0; i < 2; i++ {
			fn := &Func{}
			if err := RebuildFuncInto(ip, &spec, fn); err != nil {
				t.Fatal(err)
			}
			if got, err := ip.Call(fn, []Value{Int(5)}, nil); err != nil || got != Int(15) {
				t.Fatalf("%s(5) = %v, %v; want 15", spec.Name, got, err)
			}
		}
		var tree []Param
		if spec.IsLambda {
			e, _ := ip.Code.lambda(spec.Source)
			tree = e.(*LambdaExpr).Params
		} else {
			mod, _ := ip.Code.Module(spec.Source)
			tree = mod.Body[0].(*DefStmt).Params
		}
		if _, ok := tree[1].Default.(*BinExpr); !ok {
			t.Errorf("%s: the cached tree's default is a %T, want the parsed *BinExpr", spec.Name, tree[1].Default)
		}
	}
	if st := ip.Code.Stats(); st.Parses != 2 {
		t.Errorf("%d parses, want one per text", st.Parses)
	}
}
