// Package modlib implements the importable MiniPy modules that stand in
// for the Python packages the paper's applications use: the ML
// inference stack (resnet, imageproc, tensorstore), the chemistry stack
// (chemtools, quantumsim, mlpack), and small utilities. A worker can
// only import a module if (a) modlib implements it and (b) the module's
// package is installed in the environment unpacked on that worker —
// which is how missing software dependencies surface as import errors,
// exactly as in Python.
package modlib

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/minipy"
)

// Builder constructs a fresh instance of a module for one interpreter.
type Builder func() *minipy.ModuleVal

// Registry maps module names to their implementations.
type Registry struct {
	builders map[string]Builder
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{builders: map[string]Builder{}} }

// Register adds a module implementation.
func (r *Registry) Register(name string, b Builder) { r.builders[name] = b }

// Has reports whether the registry implements the named module.
func (r *Registry) Has(name string) bool {
	_, ok := r.builders[name]
	return ok
}

// Build constructs a fresh module instance.
func (r *Registry) Build(name string) (*minipy.ModuleVal, error) {
	b, ok := r.builders[name]
	if !ok {
		return nil, fmt.Errorf("modlib: module %q has no implementation", name)
	}
	return b(), nil
}

// Names lists implemented module names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.builders))
	for n := range r.builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Standard builds the registry with every module this repository
// implements.
func Standard() *Registry {
	r := NewRegistry()
	r.Register("mathx", buildMathx)
	r.Register("randomx", buildRandomx)
	r.Register("jsonx", buildJsonx)
	r.Register("timex", buildTimex)
	r.Register("imageproc", buildImageproc)
	r.Register("resnet", buildResnet)
	r.Register("chemtools", buildChemtools)
	r.Register("quantumsim", buildQuantumsim)
	r.Register("mlpack", buildMlpack)
	r.Register("surrogates", buildSurrogates)
	return r
}

// fn wraps a Go function as a module attribute.
func fn(name string, f func(ip *minipy.Interp, args []minipy.Value) (minipy.Value, error)) *minipy.Builtin {
	return &minipy.Builtin{Name: name, Fn: f}
}

func wantFloat(args []minipy.Value, i int, fname string) (float64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("%s() missing argument %d", fname, i+1)
	}
	switch x := args[i].(type) {
	case minipy.Int:
		return float64(x), nil
	case minipy.Float:
		return float64(x), nil
	case minipy.Bool:
		if x {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("%s() argument %d must be a number, not %s", fname, i+1, args[i].Type())
}

func wantInt(args []minipy.Value, i int, fname string) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("%s() missing argument %d", fname, i+1)
	}
	switch x := args[i].(type) {
	case minipy.Int:
		return int64(x), nil
	case minipy.Bool:
		if x {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("%s() argument %d must be an int, not %s", fname, i+1, args[i].Type())
}

func wantStr(args []minipy.Value, i int, fname string) (string, error) {
	if i >= len(args) {
		return "", fmt.Errorf("%s() missing argument %d", fname, i+1)
	}
	s, ok := args[i].(minipy.Str)
	if !ok {
		return "", fmt.Errorf("%s() argument %d must be a str, not %s", fname, i+1, args[i].Type())
	}
	return string(s), nil
}

func wantList(args []minipy.Value, i int, fname string) (*minipy.List, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("%s() missing argument %d", fname, i+1)
	}
	l, ok := args[i].(*minipy.List)
	if !ok {
		return nil, fmt.Errorf("%s() argument %d must be a list, not %s", fname, i+1, args[i].Type())
	}
	return l, nil
}

// ---- mathx ----

func buildMathx() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "mathx", Attrs: map[string]minipy.Value{}}
	m.Attrs["pi"] = minipy.Float(math.Pi)
	m.Attrs["e"] = minipy.Float(math.E)
	unary := func(name string, f func(float64) float64) {
		m.Attrs[name] = fn(name, func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
			x, err := wantFloat(args, 0, name)
			if err != nil {
				return nil, err
			}
			return minipy.Float(f(x)), nil
		})
	}
	unary("sqrt", math.Sqrt)
	unary("exp", math.Exp)
	unary("log", math.Log)
	unary("sin", math.Sin)
	unary("cos", math.Cos)
	unary("tanh", math.Tanh)
	unary("floor", math.Floor)
	unary("ceil", math.Ceil)
	m.Attrs["pow"] = fn("pow", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		x, err := wantFloat(args, 0, "pow")
		if err != nil {
			return nil, err
		}
		y, err := wantFloat(args, 1, "pow")
		if err != nil {
			return nil, err
		}
		return minipy.Float(math.Pow(x, y)), nil
	})
	m.Attrs["hypot"] = fn("hypot", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		x, err := wantFloat(args, 0, "hypot")
		if err != nil {
			return nil, err
		}
		y, err := wantFloat(args, 1, "hypot")
		if err != nil {
			return nil, err
		}
		return minipy.Float(math.Hypot(x, y)), nil
	})
	return m
}

// ---- randomx ----

// splitmix64 is the deterministic PRNG core shared by randomx and the
// workload generators.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func buildRandomx() *minipy.ModuleVal {
	// The generator state is guarded: a library in fork mode may run
	// concurrent invocations against one cached module instance.
	var mu sync.Mutex
	state := uint64(0x12345678)
	next := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		return splitmix64(&state)
	}
	m := &minipy.ModuleVal{Name: "randomx", Attrs: map[string]minipy.Value{}}
	m.Attrs["seed"] = fn("seed", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		n, err := wantInt(args, 0, "seed")
		if err != nil {
			return nil, err
		}
		mu.Lock()
		state = uint64(n)
		mu.Unlock()
		return minipy.NoneValue, nil
	})
	m.Attrs["random"] = fn("random", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		return minipy.Float(float64(next()>>11) / float64(1<<53)), nil
	})
	m.Attrs["randint"] = fn("randint", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		lo, err := wantInt(args, 0, "randint")
		if err != nil {
			return nil, err
		}
		hi, err := wantInt(args, 1, "randint")
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, fmt.Errorf("randint() empty range [%d, %d]", lo, hi)
		}
		span := uint64(hi - lo + 1)
		return minipy.Int(lo + int64(next()%span)), nil
	})
	m.Attrs["choice"] = fn("choice", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		l, err := wantList(args, 0, "choice")
		if err != nil {
			return nil, err
		}
		if len(l.Elems) == 0 {
			return nil, fmt.Errorf("choice() from empty list")
		}
		return l.Elems[next()%uint64(len(l.Elems))], nil
	})
	return m
}

// ---- jsonx ----

func buildJsonx() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "jsonx", Attrs: map[string]minipy.Value{}}
	m.Attrs["dumps"] = fn("dumps", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("dumps() takes 1 argument")
		}
		g, err := toGo(args[0])
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(g)
		if err != nil {
			return nil, fmt.Errorf("dumps(): %v", err)
		}
		return minipy.Str(data), nil
	})
	m.Attrs["loads"] = fn("loads", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		s, err := wantStr(args, 0, "loads")
		if err != nil {
			return nil, err
		}
		var g any
		if err := json.Unmarshal([]byte(s), &g); err != nil {
			return nil, fmt.Errorf("loads(): %v", err)
		}
		return fromGo(g)
	})
	return m
}

func toGo(v minipy.Value) (any, error) {
	switch x := v.(type) {
	case minipy.None:
		return nil, nil
	case minipy.Bool:
		return bool(x), nil
	case minipy.Int:
		return int64(x), nil
	case minipy.Float:
		return float64(x), nil
	case minipy.Str:
		return string(x), nil
	case *minipy.List:
		out := make([]any, len(x.Elems))
		for i, e := range x.Elems {
			g, err := toGo(e)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		return out, nil
	case *minipy.Tuple:
		out := make([]any, len(x.Elems))
		for i, e := range x.Elems {
			g, err := toGo(e)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		return out, nil
	case *minipy.Dict:
		out := map[string]any{}
		for i := range x.Len() {
			k, val := x.Item(i)
			ks, ok := k.(minipy.Str)
			if !ok {
				return nil, fmt.Errorf("json keys must be strings, not %s", k.Type())
			}
			g, err := toGo(val)
			if err != nil {
				return nil, err
			}
			out[string(ks)] = g
		}
		return out, nil
	}
	return nil, fmt.Errorf("value of type %s is not JSON serializable", v.Type())
}

func fromGo(g any) (minipy.Value, error) {
	switch x := g.(type) {
	case nil:
		return minipy.NoneValue, nil
	case bool:
		return minipy.Bool(x), nil
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return minipy.Int(int64(x)), nil
		}
		return minipy.Float(x), nil
	case string:
		return minipy.Str(x), nil
	case []any:
		l := &minipy.List{}
		for _, e := range x {
			v, err := fromGo(e)
			if err != nil {
				return nil, err
			}
			l.Elems = append(l.Elems, v)
		}
		return l, nil
	case map[string]any:
		d := minipy.NewDict()
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v, err := fromGo(x[k])
			if err != nil {
				return nil, err
			}
			if err := d.Set(minipy.Str(k), v); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	return nil, fmt.Errorf("cannot convert %T from JSON", g)
}

// ---- timex ----

func buildTimex() *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "timex", Attrs: map[string]minipy.Value{}}
	var tick atomic.Int64
	m.Attrs["monotonic"] = fn("monotonic", func(_ *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
		return minipy.Int(tick.Add(1)), nil
	})
	return m
}
