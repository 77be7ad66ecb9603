package worker

import (
	"fmt"
	"sync"

	"repro/internal/content"
	"repro/internal/library"
	"repro/internal/minipy"
	"repro/internal/pickle"
)

// sandbox is the per-task working directory: staged input objects by
// name, plus the result file the script writes.
type sandbox struct {
	mu     sync.Mutex
	inputs map[string]*content.Object
	result []byte
}

func newSandbox() *sandbox {
	return &sandbox{inputs: map[string]*content.Object{}}
}

func (sb *sandbox) add(obj *content.Object) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.inputs[obj.Name] = obj
}

// runtimeModule exposes the sandbox to task scripts as the
// vine_runtime module: load staged inputs, unpickle them, apply
// functions, and store the pickled result.
func (sb *sandbox) runtimeModule(ip *minipy.Interp) *minipy.ModuleVal {
	m := &minipy.ModuleVal{Name: "vine_runtime", Attrs: map[string]minipy.Value{}}
	m.Attrs["load_text"], m.Attrs["load_pickle"] = library.ObjectLoaders(sb.lookup)
	m.Attrs["call"] = &minipy.Builtin{Name: "call", Fn: func(ip *minipy.Interp, args []minipy.Value, _ map[string]minipy.Value) (minipy.Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("call() takes a function and an argument list")
		}
		elems, ok := seqElems(args[1])
		if !ok {
			return nil, fmt.Errorf("call() second argument must be a list or tuple")
		}
		return ip.Call(args[0], elems, nil)
	}}
	m.Attrs["store_result"] = &minipy.Builtin{Name: "store_result", Fn: func(_ *minipy.Interp, args []minipy.Value, _ map[string]minipy.Value) (minipy.Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("store_result() takes 1 argument")
		}
		data, err := pickle.Marshal(args[0])
		if err != nil {
			return nil, fmt.Errorf("store_result(): %v", err)
		}
		sb.mu.Lock()
		sb.result = data
		sb.mu.Unlock()
		return minipy.NoneValue, nil
	}}
	m.Attrs["input_names"] = &minipy.Builtin{Name: "input_names", Fn: func(_ *minipy.Interp, args []minipy.Value, _ map[string]minipy.Value) (minipy.Value, error) {
		sb.mu.Lock()
		defer sb.mu.Unlock()
		l := &minipy.List{}
		for name := range sb.inputs {
			l.Elems = append(l.Elems, minipy.Str(name))
		}
		sortStrValues(l)
		return l, nil
	}}
	return m
}

func (sb *sandbox) lookup(name string) (*content.Object, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	obj, ok := sb.inputs[name]
	if !ok {
		return nil, fmt.Errorf("no staged input named %q", name)
	}
	return obj, nil
}

func seqElems(v minipy.Value) ([]minipy.Value, bool) {
	switch x := v.(type) {
	case *minipy.List:
		return x.Elems, true
	case *minipy.Tuple:
		return x.Elems, true
	}
	return nil, false
}

func sortStrValues(l *minipy.List) {
	strs := make([]string, len(l.Elems))
	for i, e := range l.Elems {
		strs[i] = string(e.(minipy.Str))
	}
	// insertion sort; lists are tiny
	for i := 1; i < len(strs); i++ {
		for j := i; j > 0 && strs[j] < strs[j-1]; j-- {
			strs[j], strs[j-1] = strs[j-1], strs[j]
		}
	}
	for i, s := range strs {
		l.Elems[i] = minipy.Str(s)
	}
}

// WrapperScript is the generic script that turns a function invocation
// into a stateless task (§1's "naive transformation"): it deserializes
// the function and arguments from its inputs and executes them, paying
// the full context-reload cost every time. The L1 and L2 evaluation
// levels run invocations through this wrapper.
const WrapperScript = `
import vine_runtime
f = vine_runtime.load_pickle("func")
args = vine_runtime.load_pickle("args")
vine_runtime.store_result(vine_runtime.call(f, args))
`
