package minipy_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/modlib"
	"repro/internal/pickle"
)

// The parser reads bytes from peers the worker has not authenticated:
// the source inside a pickled function (pickle → RebuildFuncInto), a
// task's script and a library's function sources. These fuzzers hold it
// to the wire decoders' properties.

// workloadSources is the MiniPy every workload in the repository runs:
// the vinerun workflows, and the scripts and function sources the
// examples, the commands, the applications, the modules, the worker and
// the benchmark embed in Go.
func workloadSources(tb testing.TB) []string {
	var srcs []string
	pys, _ := filepath.Glob("../../examples/workflows/*.py")
	for _, path := range pys {
		b, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	var gos []string
	for _, pattern := range []string{"../../examples/*/main.go", "../../cmd/*/main.go", "../apps/*.go", "../modlib/*.go", "../worker/sandbox.go", "../../bench/*.go", "../../bench/internal/*/*.go"} {
		matches, _ := filepath.Glob(pattern)
		gos = append(gos, matches...)
	}
	for _, path := range gos {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && lit.Value[0] == '`' {
				if s, _ := strconv.Unquote(lit.Value); strings.Contains(s, "def ") || strings.Contains(s, "import ") {
					srcs = append(srcs, formatArgs.Replace(s))
				}
			}
			return true
		})
	}
	if len(srcs) == 0 {
		tb.Fatal("no workload sources found")
	}
	return srcs
}

// formatArgs fills the fmt verbs of sources the Go code completes with
// Sprintf: an object name and a count.
var formatArgs = strings.NewReplacer("%q", `"obj"`, "%d", "7")

// unmarshalCorpus is the pickle fuzzer's committed corpus: the inputs
// that once broke the unpickler, one of them in this parser.
func unmarshalCorpus(tb testing.TB) [][]byte {
	paths, _ := filepath.Glob("../pickle/testdata/fuzz/FuzzUnmarshal/*")
	var out [][]byte
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, len(b)+1)
		for sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), "[]byte("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(line, ")"))
				if err != nil {
					tb.Fatalf("%s: %v", path, err)
				}
				out = append(out, []byte(s))
			}
		}
	}
	return out
}

// treeDepth is how many levels the tree under n spans, n included.
func treeDepth(n minipy.Node) int {
	d := 0
	minipy.Walk(n, func(c minipy.Node) bool {
		if c == n {
			return true
		}
		d = max(d, treeDepth(c))
		return false
	})
	return d + 1
}

// TestWorkloadsNestFarBelowTheBound: the parser's nesting bound leaves
// every workload a wide margin. The deepest workload tree is 9 levels,
// the module's statements counting as the first; the bound is 200.
func TestWorkloadsNestFarBelowTheBound(t *testing.T) {
	deepest := 0
	for _, src := range workloadSources(t) {
		mod, err := minipy.Parse(src)
		if err != nil {
			t.Fatalf("a workload source does not parse: %v\n%s", err, src)
		}
		for _, s := range mod.Body {
			deepest = max(deepest, treeDepth(s))
		}
	}
	if deepest > 20 {
		t.Errorf("a workload tree is %d levels deep; the margin under the bound has shrunk", deepest)
	}
	t.Logf("deepest workload tree: %d levels", deepest)
}

type modHost struct{ reg *modlib.Registry }

func (h modHost) ResolveModule(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	return h.reg.Build(name)
}

// seedFuncs is every function the workload sources define, and every
// one the pickle corpus decodes to.
func seedFuncs(tb testing.TB) []*minipy.Func {
	ip := minipy.NewInterp(modHost{modlib.Standard()})
	var fns []*minipy.Func
	add := func(v minipy.Value) {
		if fn, ok := v.(*minipy.Func); ok {
			fns = append(fns, fn)
		}
	}
	for _, src := range workloadSources(tb) {
		if env, err := ip.RunModule(src, "__main__"); err == nil {
			for _, name := range env.Names() {
				v, _ := env.Get(name)
				add(v)
			}
		}
	}
	for _, data := range unmarshalCorpus(tb) {
		if v, err := pickle.Unmarshal(data, ip); err == nil {
			add(v)
		}
	}
	return fns
}

// FuzzParse holds Parse to three properties: no panic; allocation at
// most a constant times the input; and a parsed module prints to source
// that parses and prints to the same text again.
func FuzzParse(f *testing.F) {
	for _, src := range workloadSources(f) {
		f.Add(src)
	}
	for _, data := range unmarshalCorpus(f) {
		f.Add(string(data))
	}
	for _, fn := range seedFuncs(f) {
		src, _, _ := minipy.GetSource(fn)
		f.Add(src)
	}
	f.Add(strings.Repeat("(", 1000) + strings.Repeat(")", 1000))
	f.Add("x = " + strings.Repeat("1+", 1000) + "1\n")
	f.Fuzz(func(t *testing.T, src string) {
		// TotalAlloc counts the whole process, the fuzzing engine's own
		// goroutines included; they only ever add, so the least of three
		// readings is the parser's.
		var mod *minipy.Module
		var err error
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mod, err = minipy.Parse(src)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		// A byte of source builds at most a few AST nodes — a name, a
		// literal, an operator node — and the slice slots that hold them.
		if limit := uint64(128*len(src) + 4096); least > limit {
			t.Fatalf("parsing %d bytes allocated %d, limit %d", len(src), least, limit)
		}
		if err != nil {
			return
		}
		printed := minipy.PrintModule(mod.Body)
		again, err := minipy.Parse(printed)
		if err != nil {
			t.Fatalf("printed source does not parse: %v\nsource:\n%s\nprinted:\n%s", err, src, printed)
		}
		if twice := minipy.PrintModule(again.Body); twice != printed {
			t.Fatalf("print is not stable:\nonce:\n%s\ntwice:\n%s", printed, twice)
		}
	})
}

// paramSpec renders a function's parameters for FuzzRebuild: names
// joined by commas, a trailing "=" marking a default.
func paramSpec(fn *minipy.Func) string {
	var parts []string
	for _, p := range minipy.FuncParams(fn) {
		if p.HasDefault {
			parts = append(parts, p.Name+"=")
		} else {
			parts = append(parts, p.Name)
		}
	}
	return strings.Join(parts, ",")
}

// specParams reads a paramSpec back; a default is an int.
func specParams(spec string) []minipy.ParamInfo {
	if spec == "" {
		return nil
	}
	var out []minipy.ParamInfo
	for _, field := range strings.Split(spec, ",") {
		name, hasDefault := strings.CutSuffix(field, "=")
		p := minipy.ParamInfo{Name: name, HasDefault: hasDefault}
		if hasDefault {
			p.Default = minipy.Int(len(name))
		}
		out = append(out, p)
	}
	return out
}

// FuzzRebuild drives RebuildFuncInto — the unpickler's hook — with def
// and lambda specs. No spec may panic it, and a function it rebuilds
// must survive the next hop: GetSource of it is source that rebuilds,
// to a function whose source is the same text again. Rebuilt twice
// through one code cache, as a worker rebuilds a function it has run
// before, the spec gives functions that share one tree and print as the
// cold rebuild does: installing the pickled defaults writes nothing into
// the shared tree.
func FuzzRebuild(f *testing.F) {
	for _, fn := range seedFuncs(f) {
		src, _, _ := minipy.GetSource(fn)
		f.Add(src, fn.Expr != nil, paramSpec(fn))
	}
	f.Add("lambda: "+strings.Repeat("(", 500)+strings.Repeat(")", 500), true, "")
	f.Add("def f():\n    return "+strings.Repeat("1+", 500)+"1\n", false, "")
	ip := minipy.NewInterp(nil)
	cached := minipy.NewInterp(nil)
	cached.Code = new(minipy.CodeCache)
	f.Fuzz(func(t *testing.T, src string, lambda bool, params string) {
		spec := &minipy.RebuildSpec{Name: "f", Module: "m", IsLambda: lambda, Source: src, Params: specParams(params)}
		fn := &minipy.Func{}
		err := minipy.RebuildFuncInto(ip, spec, fn)
		var warm [2]*minipy.Func
		for i := range warm {
			warm[i] = &minipy.Func{}
			if cerr := minipy.RebuildFuncInto(cached, spec, warm[i]); (cerr == nil) != (err == nil) || cerr != nil && cerr.Error() != err.Error() {
				t.Fatalf("rebuild %d through the cache: %v, cold: %v", i+1, cerr, err)
			}
		}
		if err != nil {
			return
		}
		cold := printFunc(fn)
		for i, w := range warm {
			if got := printFunc(w); got != cold {
				t.Fatalf("rebuild %d through the cache prints\n%s\ncold:\n%s", i+1, got, cold)
			}
		}
		if !sameTree(warm[0], warm[1]) {
			t.Fatalf("two rebuilds through one cache hold two trees")
		}
		once, _, err := minipy.GetSource(fn)
		if err != nil {
			t.Fatalf("a rebuilt function has no source: %v", err)
		}
		next := *spec
		next.Source = once
		again := &minipy.Func{}
		if err := minipy.RebuildFuncInto(ip, &next, again); err != nil {
			t.Fatalf("GetSource of a rebuilt function does not rebuild: %v\nsource:\n%s\nGetSource:\n%s", err, src, once)
		}
		if twice, _, err := minipy.GetSource(again); err != nil || twice != once {
			t.Fatalf("source is not stable (%v):\nonce:\n%s\ntwice:\n%s", err, once, twice)
		}
	})
}

// printFunc prints a rebuilt function's tree: the definition and its
// parameters with the defaults installed, or the lambda's.
func printFunc(fn *minipy.Func) string {
	params := fmt.Sprint(minipy.FuncParams(fn))
	if fn.Def != nil {
		return minipy.PrintStmt(fn.Def) + params
	}
	return minipy.PrintExpr(fn.Expr) + params
}

// sameTree reports whether two functions run one parsed tree.
func sameTree(a, b *minipy.Func) bool {
	if a.Def != nil {
		return a.Def == b.Def
	}
	return a.Expr == b.Expr
}
