package worker

import (
	"fmt"

	"repro/internal/content"
	"repro/internal/library"
	"repro/internal/minipy"
	"repro/internal/pickle"
)

// taskInline is how many inputs and environments a task holds in its
// own record: a wrapped call stages at most three (function,
// environment, arguments), and allocates no list for them.
const taskInline = 4

// task is one stateless task while it runs, and the minipy.Host of the
// interpreter that runs its script, which it holds: the inputs it
// staged, the environments whose modules it may import, and the result
// the script stores. vine_runtime's builtins find it through that
// interpreter, so nothing of the module is built per task.
type task struct {
	e  *executor
	ip minipy.Interp
	// inputs are the pinned cache objects, then the shared FS reads;
	// inputs[:pinned] are unpinned when the task ends.
	inputs    []*content.Object
	pinned    int
	installed [][]string
	result    []byte

	inputBuf     [taskInline]*content.Object
	installedBuf [taskInline][]string
}

// ResolveModule implements minipy.Host: vine_runtime, and whatever the
// task's environments install.
func (t *task) ResolveModule(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	if name == "vine_runtime" {
		return runtimeModule, nil
	}
	return t.e.resolveModule(t.installed, name)
}

// runningTask is the task whose script called a vine_runtime builtin.
func runningTask(ip *minipy.Interp) (*task, error) {
	if t, ok := ip.Host().(*task); ok {
		return t, nil
	}
	return nil, fmt.Errorf("vine_runtime is only available to a task's script")
}

// stagedInput finds the running task's input by name; of two with one
// name, the later one, as a later file replaces an earlier one.
func stagedInput(ip *minipy.Interp, name string) (*content.Object, error) {
	t, err := runningTask(ip)
	if err != nil {
		return nil, err
	}
	for i := len(t.inputs) - 1; i >= 0; i-- {
		if t.inputs[i].Name == name {
			return t.inputs[i], nil
		}
	}
	return nil, fmt.Errorf("no staged input named %q", name)
}

// runtimeModule is vine_runtime, the one module every task script
// reaches its sandbox through: load staged inputs, unpickle them, apply
// functions, and store the pickled result. It is built once and shared
// by every task of every worker in the process: its builtins hold no
// state, and MiniPy has no attribute assignment, so no script can write
// to it.
var runtimeModule = func() *minipy.ModuleVal {
	loadText, loadPickle := library.ObjectLoaders(stagedInput)
	return &minipy.ModuleVal{Name: "vine_runtime", Attrs: map[string]minipy.Value{
		"load_text":    loadText,
		"load_pickle":  loadPickle,
		"call":         &minipy.Builtin{Name: "call", Fn: callFunc},
		"store_result": &minipy.Builtin{Name: "store_result", Fn: storeResult},
		"input_names":  &minipy.Builtin{Name: "input_names", Fn: inputNames},
	}}
}()

func callFunc(ip *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
	if len(args) == 2 {
		switch seq := args[1].(type) {
		case *minipy.List:
			return ip.Call(args[0], seq.Elems, nil)
		case *minipy.Tuple:
			return ip.Call(args[0], seq.Elems, nil)
		}
	}
	return nil, fmt.Errorf("call() takes a function and a list or tuple of arguments")
}

func storeResult(ip *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
	t, err := runningTask(ip)
	if err != nil {
		return nil, err
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("store_result() takes 1 argument")
	}
	data, err := pickle.Marshal(args[0])
	if err != nil {
		return nil, fmt.Errorf("store_result(): %v", err)
	}
	t.result = data
	return minipy.NoneValue, nil
}

func inputNames(ip *minipy.Interp, _ []minipy.Value) (minipy.Value, error) {
	t, err := runningTask(ip)
	if err != nil {
		return nil, err
	}
	l := &minipy.List{Elems: make([]minipy.Value, len(t.inputs))}
	for i, obj := range t.inputs {
		l.Elems[i] = minipy.Str(obj.Name)
	}
	return library.SortedNames(l), nil
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
