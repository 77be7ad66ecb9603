package minipy

import (
	"fmt"
	"strings"
)

// This file provides the hooks the pickle package uses to take function
// values apart at serialization time and rebuild them on a worker.

// ParamInfo describes one function parameter for serialization: its
// name and its definition-time default value, if any.
type ParamInfo struct {
	Name       string
	HasDefault bool
	Default    Value
}

// FuncParams extracts the parameter list of a function, with defaults
// resolved to their definition-time values.
func FuncParams(f *Func) []ParamInfo {
	out := make([]ParamInfo, len(f.Params))
	for i, p := range f.Params {
		info := ParamInfo{Name: p.Name}
		if p.Default != nil {
			info.HasDefault = true
			if ed, ok := p.Default.(*evaluatedDefault); ok {
				info.Default = ed.value
			} else {
				info.Default = NoneValue
			}
		}
		out[i] = info
	}
	return out
}

// IsUniversalBuiltin reports whether name is bound to the stock builtin
// of the same name (so it need not be captured into a pickle — every
// interpreter has it).
func IsUniversalBuiltin(name string, v Value) bool {
	b, ok := v.(*Builtin)
	if !ok {
		return false
	}
	_, exists := universalBuiltins[name]
	return exists && b.Name == name
}

// UniversalBuiltin is the stock builtin name — the shared value
// NewGlobals binds — if there is one.
func UniversalBuiltin(name string) (Value, bool) {
	b, ok := universalBuiltins[name]
	if !ok {
		return nil, false
	}
	return b, true
}

// ResolveFree resolves a function's free variables at pickling time,
// splitting them into closure captures (bound in an enclosing function
// scope) and module globals. Universal builtins are skipped; names that
// resolve nowhere are returned in unresolved (they may legitimately be
// bound later at call time, so this is not an error here).
func ResolveFree(f *Func) (closure, globals map[string]Value, unresolved []string) {
	closure = map[string]Value{}
	globals = map[string]Value{}
	for _, name := range FreeVars(f) {
		if f.Closure != nil {
			if v, ok := lookupBelowRoot(f.Closure, name); ok {
				closure[name] = v
				continue
			}
		}
		if f.Globals != nil {
			if v, ok := f.Globals.Root().GetLocal(name); ok {
				if IsUniversalBuiltin(name, v) {
					continue
				}
				globals[name] = v
				continue
			}
		}
		unresolved = append(unresolved, name)
	}
	return closure, globals, unresolved
}

// lookupBelowRoot searches the environment chain excluding the root
// (module globals) frame.
func lookupBelowRoot(env *Env, name string) (Value, bool) {
	for e := env; e != nil && e.parent != nil; e = e.parent {
		if v, ok := e.GetLocal(name); ok {
			return v, true
		}
	}
	return nil, false
}

// RebuildSpec carries everything needed to reconstruct a function from
// its serialized form on a remote interpreter.
type RebuildSpec struct {
	Name     string
	Module   string
	IsLambda bool
	Source   string
	Params   []ParamInfo
	Closure  map[string]Value
	Globals  map[string]Value
}

// RebuildFuncInto reconstructs a function value from a spec into an
// existing (empty) Func shell. The function's code is re-parsed from
// source (once per text through ip.Code, which shares the tree); its
// globals environment is a fresh builtins environment extended with the
// pickled globals; closure captures become an intermediate frame.
// Parameter defaults are the pickled definition-time values, set in a
// copy of the tree's parameter list, not re-evaluated; a function with
// no defaults shares the tree's list, which nothing writes. Deserializers
// allocate the shell first so that cyclic references — self-recursive
// and mutually recursive functions — can point at the final function
// object before its own captures finish decoding.
func RebuildFuncInto(ip *Interp, spec *RebuildSpec, fn *Func) error {
	globalsEnv := ip.NewGlobals()
	for k, v := range spec.Globals {
		globalsEnv.Set(k, v)
	}
	var closureEnv *Env
	if len(spec.Closure) > 0 {
		closureEnv = NewEnv(globalsEnv)
		for k, v := range spec.Closure {
			closureEnv.Set(k, v)
		}
	}

	fn.Name = spec.Name
	fn.Globals = globalsEnv
	fn.Closure = closureEnv
	fn.Module = spec.Module
	fn.Source = spec.Source
	if spec.IsLambda {
		expr, err := ip.Code.lambda(strings.TrimSpace(spec.Source))
		if err != nil {
			return fmt.Errorf("minipy: rebuild lambda %q: %w", spec.Name, err)
		}
		le, ok := expr.(*LambdaExpr)
		if !ok {
			return fmt.Errorf("minipy: rebuild lambda %q: source is not a lambda", spec.Name)
		}
		fn.Params = le.Params
		fn.Expr = le.Body
	} else {
		mod, err := ip.Code.Module(spec.Source)
		if err != nil {
			return fmt.Errorf("minipy: rebuild function %q: %w", spec.Name, err)
		}
		var def *DefStmt
		for _, s := range mod.Body {
			if d, ok := s.(*DefStmt); ok {
				def = d
				break
			}
		}
		if def == nil {
			return fmt.Errorf("minipy: rebuild function %q: no def in source", spec.Name)
		}
		fn.Params = def.Params
		fn.Body = def.Body
		fn.Doc = def.Doc
		fn.Def = def
	}
	if len(fn.Params) != len(spec.Params) {
		return fmt.Errorf("minipy: rebuild function %q: source has %d params, spec has %d",
			spec.Name, len(fn.Params), len(spec.Params))
	}
	defaults := false
	for i, pi := range spec.Params {
		if fn.Params[i].Name != pi.Name {
			return fmt.Errorf("minipy: rebuild function %q: param %d is %q in source, %q in spec",
				spec.Name, i, fn.Params[i].Name, pi.Name)
		}
		defaults = defaults || pi.HasDefault || fn.Params[i].Default != nil
	}
	if !defaults {
		// No parameter has a default: the function shares the tree's list.
		return nil
	}
	// Install the pickled definition-time default values.
	params := make([]Param, len(fn.Params))
	copy(params, fn.Params)
	for i, pi := range spec.Params {
		if pi.HasDefault {
			params[i].Default = &evaluatedDefault{value: pi.Default, orig: params[i].Default}
		} else {
			params[i].Default = nil
		}
	}
	fn.Params = params
	return nil
}

// AdoptGlobals merges a function's captured module globals into target
// and re-roots the function on it. Library installation uses this to
// give every function of a library (and its context-setup function) one
// shared global namespace, so a setup function that registers state via
// `global` makes it visible to the invocations (Figure 4 of the paper).
// Existing bindings in target win, so functions rebuilt earlier are not
// clobbered by later captures of the same name.
func AdoptGlobals(f *Func, target *Env) {
	if f.Globals == nil {
		f.Globals = target
		return
	}
	oldRoot := f.Globals.Root()
	if oldRoot == target {
		return
	}
	for name, v := range oldRoot.vars {
		if _, exists := target.vars[name]; !exists {
			target.vars[name] = v
		}
	}
	// Re-root the closure chain (if any) onto the shared namespace.
	for e := f.Closure; e != nil; e = e.parent {
		if e.parent == oldRoot {
			e.parent = target
			break
		}
	}
	f.Globals = target
}

// ForkFunc returns a copy of f whose environment chain is cloned,
// approximating fork()'s copy-on-write: the child invocation can rebind
// globals freely without disturbing the library's retained context,
// while large values remain shared.
func ForkFunc(f *Func) *Func {
	c := *f
	if f.Closure != nil {
		c.Closure = f.Closure.Clone()
		c.Globals = c.Closure.Root()
	} else if f.Globals != nil {
		c.Globals = f.Globals.Clone()
	}
	return &c
}
