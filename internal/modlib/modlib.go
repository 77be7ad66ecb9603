// Package modlib implements the importable MiniPy modules that stand in
// for the Python packages the paper's applications use: the ML
// inference stack (resnet, imageproc, tensorstore), the chemistry stack
// (chemtools, quantumsim, mlpack), and mathx. A worker can
// only import a module if (a) modlib implements it and (b) the module's
// package is installed in the environment unpacked on that worker —
// which is how missing software dependencies surface as import errors,
// exactly as in Python.
package modlib

import (
	"fmt"
	"math"

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

// Standard builds the registry with every module this repository
// implements.
func Standard() *Registry {
	r := NewRegistry()
	r.Register("mathx", buildMathx)
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

// splitmix64 is the deterministic PRNG core the modules' generators
// share.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
