// Package library implements the "library" of §3.4: the special
// daemon task a worker runs to set up and retain a function context in
// memory. A Library executes its context-setup function once, reports
// ready, and then serves invocations — either directly in its own
// memory space or by forking a copy-on-write child — so that every
// invocation after the first pays only for argument loading.
package library

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
)

// Host is the library's view of its environment: which modules its
// unpacked software environment makes importable, and which input data
// objects are bound to the context (the data-to-worker binding of
// §2.2.1).
type Host struct {
	// Resolve builds a module instance, or errors if not installed.
	Resolve func(ip *minipy.Interp, name string) (*minipy.ModuleVal, error)
	// Inputs maps staged input names to their cached objects; library
	// code reads them through the always-importable vine_data module.
	Inputs map[string]*content.Object
	// StepLimit bounds the interpreter steps of the library's start-up
	// (building its functions and running the context setup) and of each
	// invocation on its own: the budget restarts with every call, so a
	// runaway invocation fails without costing the ones after it
	// anything. Zero means no limit.
	StepLimit int64
	// Code is the worker's code cache, which the library's function
	// sources and pickles are parsed through; nil parses each one.
	Code *minipy.CodeCache
}

// ResolveModule implements minipy.Host.
func (h *Host) ResolveModule(ip *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	if name == "vine_data" {
		return vineData, nil
	}
	if h.Resolve == nil {
		return nil, fmt.Errorf("no module named '%s'", name)
	}
	return h.Resolve(ip, name)
}

// vineData exposes the context's bound input data to library code: the
// one shared copy every invocation reads (§2.2.1's data-to-invocation
// binding). It is built once; its builtins find the calling library's
// Host through the interpreter.
var vineData = func() *minipy.ModuleVal {
	loadText, loadPickle := ObjectLoaders(boundInput)
	return &minipy.ModuleVal{Name: "vine_data", Attrs: map[string]minipy.Value{
		"load_text": loadText, "load_pickle": loadPickle, "names": &minipy.Builtin{Name: "names", Fn: boundNames},
	}}
}()

var errNotLibrary = errors.New("vine_data is only available to library code")

func boundInput(ip *minipy.Interp, name string) (*content.Object, error) {
	h, ok := ip.Host().(*Host)
	if !ok {
		return nil, errNotLibrary
	}
	if obj, ok := h.Inputs[name]; ok {
		return obj, nil
	}
	return nil, fmt.Errorf("no input data named %q bound to this context", name)
}

func boundNames(ip *minipy.Interp, _ []minipy.Value) (minipy.Value, error) {
	h, ok := ip.Host().(*Host)
	if !ok {
		return nil, errNotLibrary
	}
	l := &minipy.List{Elems: make([]minipy.Value, 0, len(h.Inputs))}
	for n := range h.Inputs {
		l.Elems = append(l.Elems, minipy.Str(n))
	}
	return SortedNames(l), nil
}

// Library is a running library instance on a worker.
type Library struct {
	Spec core.LibrarySpec
	// Instance uniquely identifies this deployment of the library (one
	// library name may have instances on many workers).
	Instance string

	ip      *minipy.Interp
	globals *minipy.Env
	funcs   map[string]*minipy.Func

	// SetupDuration is the wall time the context setup took (the
	// library overhead row of Table 5).
	SetupDuration time.Duration
}

// Start launches a library instance: it reconstructs the library's
// functions (from source or pickles) into one shared namespace, runs
// the context-setup function, and returns ready to serve invocations —
// steps (1) and (2) of the §3.4 protocol.
func Start(spec core.LibrarySpec, instance string, host *Host) (*Library, error) {
	ip := minipy.NewInterp(host)
	ip.StepLimit = host.StepLimit
	ip.Code = host.Code
	lib := &Library{
		Spec:     spec,
		Instance: instance,
		ip:       ip,
		globals:  ip.NewGlobals(),
		funcs:    map[string]*minipy.Func{},
	}

	// Reconstruct every function into the shared library namespace.
	for _, fs := range spec.Functions {
		fn, err := lib.buildFunction(fs)
		if err != nil {
			return nil, fmt.Errorf("library %s: %w", spec.Name, err)
		}
		lib.funcs[fs.Name] = fn
		lib.globals.Set(fs.Name, fn)
	}

	// Run the context setup function, if any, in the shared namespace:
	// whatever it registers with `global` stays loaded for invocations.
	start := time.Now()
	if len(spec.ContextSetup) > 0 {
		setupVal, err := pickle.Unmarshal(spec.ContextSetup, ip)
		if err != nil {
			return nil, fmt.Errorf("library %s: deserializing context setup: %w", spec.Name, err)
		}
		setup, ok := setupVal.(*minipy.Func)
		if !ok {
			return nil, fmt.Errorf("library %s: context setup is %s, not a function", spec.Name, setupVal.Type())
		}
		minipy.AdoptGlobals(setup, lib.globals)
		var args []minipy.Value
		if len(spec.ContextArgs) > 0 {
			argsVal, err := pickle.Unmarshal(spec.ContextArgs, ip)
			if err != nil {
				return nil, fmt.Errorf("library %s: deserializing context args: %w", spec.Name, err)
			}
			tup, ok := argsVal.(*minipy.Tuple)
			if !ok {
				return nil, fmt.Errorf("library %s: context args must be a tuple", spec.Name)
			}
			args = tup.Elems
		}
		if _, err := ip.Call(setup, args, nil); err != nil {
			return nil, fmt.Errorf("library %s: context setup failed: %w", spec.Name, err)
		}
	}
	lib.SetupDuration = time.Since(start)
	return lib, nil
}

// buildFunction reconstructs one function spec into the library
// namespace, preferring source (defined by name, as §3.2 describes)
// and falling back to the pickled code object.
func (l *Library) buildFunction(fs core.FunctionSpec) (*minipy.Func, error) {
	if fs.Source != "" {
		mod, err := l.ip.Code.Module(fs.Source)
		if err != nil {
			return nil, fmt.Errorf("function %s: parsing source: %w", fs.Name, err)
		}
		if err := l.ip.ExecBlockWithSource(mod.Body, l.globals, fs.Source, l.Spec.Name); err != nil {
			return nil, fmt.Errorf("function %s: executing source: %w", fs.Name, err)
		}
		v, ok := l.globals.Get(fs.Name)
		if !ok {
			return nil, fmt.Errorf("function %s: source did not define it", fs.Name)
		}
		fn, ok := v.(*minipy.Func)
		if !ok {
			return nil, fmt.Errorf("function %s: source defined a %s, not a function", fs.Name, v.Type())
		}
		return fn, nil
	}
	if len(fs.Pickled) == 0 {
		return nil, fmt.Errorf("function %s: spec has neither source nor pickled code", fs.Name)
	}
	v, err := pickle.Unmarshal(fs.Pickled, l.ip)
	if err != nil {
		return nil, fmt.Errorf("function %s: deserializing: %w", fs.Name, err)
	}
	fn, ok := v.(*minipy.Func)
	if !ok {
		return nil, fmt.Errorf("function %s: pickle holds a %s, not a function", fs.Name, v.Type())
	}
	minipy.AdoptGlobals(fn, l.globals)
	return fn, nil
}

// InvokeResult is the outcome of one invocation, with the state
// reconstruction (SetupTime) and execution components separated as in
// Table 5.
type InvokeResult struct {
	Value     []byte // pickled return value
	SetupTime float64
	ExecTime  float64
}

// Slot is one executor's seat in a library: what serving invocations
// needs beyond the shared context and is worth keeping from one to the
// next. In fork mode that is the forked child interpreter, whose
// recycled call frames stay warm; in direct mode the library's own
// interpreter. A Slot serves one invocation at a time. Fork-mode slots
// of one library may run concurrently; a direct library's invocations
// share its memory, so its slots must not.
type Slot struct {
	lib *Library
	ip  *minipy.Interp
	// args holds the running invocation's decoded arguments and is
	// cleared when it returns: the slot keeps the slice, not what was in
	// it.
	args []minipy.Value
	// out is the buffer results are pickled into, kept from one call to
	// the next while it holds at most maxKeptResult bytes.
	out []byte
}

// maxKeptArgs bounds the argument slice a slot keeps between calls, so
// one call with a huge argument list does not pin its slice for good.
const maxKeptArgs = 64

// maxKeptResult bounds the result buffer a slot keeps between calls, so
// one call with a huge result does not pin its buffer for good.
const maxKeptResult = 4 << 10

// NewSlot returns a slot serving l's functions.
func (l *Library) NewSlot() *Slot {
	ip := l.ip
	if l.Spec.Mode == core.ExecFork {
		ip = ip.Fork()
	}
	return &Slot{lib: l, ip: ip}
}

// Invoke executes one invocation on a slot of its own. A caller with
// many to serve keeps a Slot instead.
func (l *Library) Invoke(function string, args []byte) (InvokeResult, error) {
	return l.NewSlot().Invoke(function, args)
}

// Invoke executes one invocation — steps (3) and (4) of the §3.4
// protocol. The args payload is the pickled argument tuple, not read
// again once Invoke returns. In direct mode the invocation runs in the
// library's memory space; in fork mode it runs on a copy-on-write
// clone of the function's globals, made per invocation, so concurrent
// invocations and global mutations cannot corrupt the retained context.
//
// The result's Value is pickled into a buffer the slot keeps and
// overwrites on its next call: it is valid until the slot's next Invoke.
func (s *Slot) Invoke(function string, args []byte) (InvokeResult, error) {
	l := s.lib
	fn, ok := l.funcs[function]
	if !ok {
		return InvokeResult{}, fmt.Errorf("library %s has no function %q", l.Spec.Name, function)
	}

	setupStart := time.Now()
	s.ip.ResetBudget()
	if l.Spec.Mode == core.ExecFork {
		fn = minipy.ForkFunc(fn)
	}
	if len(args) > 0 {
		elems, other, err := pickle.UnmarshalTuple(s.args[:0], args, s.ip)
		if err != nil {
			return InvokeResult{}, fmt.Errorf("library %s: deserializing args for %s: %w", l.Spec.Name, function, err)
		}
		if other != nil {
			return InvokeResult{}, fmt.Errorf("library %s: args for %s must be a tuple, got %s", l.Spec.Name, function, other.Type())
		}
		s.args = elems
	}
	// Setup ends where execution starts: one clock read serves both.
	execStart := time.Now()
	setupTime := execStart.Sub(setupStart).Seconds()

	// A function call binds its arguments to fresh locals and keeps no
	// reference to the slice.
	out, err := s.ip.Call(fn, s.args, nil)
	clear(s.args)
	if s.args = s.args[:0]; cap(s.args) > maxKeptArgs {
		s.args = nil
	}
	if err != nil {
		return InvokeResult{}, fmt.Errorf("invocation of %s.%s failed: %w", l.Spec.Name, function, err)
	}
	execTime := time.Since(execStart).Seconds()

	value, err := pickle.Append(s.out[:0], out)
	if err != nil {
		return InvokeResult{}, fmt.Errorf("library %s: serializing result of %s: %w", l.Spec.Name, function, err)
	}
	if cap(value) <= maxKeptResult {
		s.out = value
	}
	return InvokeResult{Value: value, SetupTime: setupTime, ExecTime: execTime}, nil
}
