// Command vinerun executes a MiniPy workflow file against a local
// TaskVine engine, demonstrating the full pipeline — context
// discovery, distribution, retention — on real sockets in one process.
//
// The workflow file defines functions and a manifest listing what to
// run. vinerun looks for a module-level dict named VINE:
//
//	def context_setup():
//	    global model
//	    import resnet
//	    model = resnet.load_model("resnet50")
//
//	def classify(seed, n):
//	    import imageproc
//	    global model
//	    return model.infer_batch(imageproc.generate_batch(seed, n))
//
//	VINE = {
//	    "library": "mllib",
//	    "context": "context_setup",
//	    "function": "classify",
//	    "calls": [[1, 4], [2, 4], [3, 4]],
//	}
//
// Usage:
//
//	vinerun -workers 4 workflow.py
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/taskvine"
)

func main() {
	workers := flag.Int("workers", 2, "local workers to spawn")
	slots := flag.Int("slots", 4, "invocation slots per library instance")
	fork := flag.Bool("fork", true, "run invocations in fork mode")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall result timeout")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vinerun [flags] workflow.py")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *workers, *slots, *fork, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "vinerun: %v\n", err)
		os.Exit(1)
	}
}

func run(path string, workers, slots int, fork bool, timeout time.Duration) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := taskvine.NewManager(taskvine.Options{})
	if err != nil {
		return err
	}
	defer m.Shutdown()
	if err := m.SpawnLocalWorkers(workers, taskvine.WorkerOptions{}); err != nil {
		return err
	}

	env, err := m.Exec(string(src))
	if err != nil {
		return fmt.Errorf("executing workflow file: %w", err)
	}
	manifest, err := readManifest(env)
	if err != nil {
		return err
	}

	mode := core.ExecDirect
	if fork {
		mode = core.ExecFork
	}
	lib, err := m.CreateLibraryFromFunctions(manifest.library, taskvine.LibraryOptions{
		ContextSetup: manifest.context,
		Slots:        slots,
		Mode:         mode,
	}, env, manifest.function)
	if err != nil {
		return err
	}
	if envSpec := lib.Environment(); envSpec != nil {
		fmt.Printf("discovered environment: %d packages, %.1f MB packed\n",
			len(envSpec.Packages), float64(envSpec.PackedSize())/(1<<20))
	}
	if err := m.InstallLibrary(lib); err != nil {
		return err
	}

	ids := make(map[int64]int)
	for i, call := range manifest.calls {
		id, err := m.Call(manifest.library, manifest.function, call...)
		if err != nil {
			return err
		}
		ids[id] = i
	}
	results, err := m.Collect(len(manifest.calls), timeout)
	if err != nil {
		return err
	}
	for _, res := range results {
		idx := ids[res.ID]
		if !res.Ok {
			fmt.Printf("call %d FAILED: %s\n", idx, res.Err)
			continue
		}
		v, err := m.DecodeValue(res)
		if err != nil {
			return err
		}
		fmt.Printf("call %d -> %s\n", idx, v.Repr())
	}
	instances, served := m.LibraryDeployments()
	fmt.Printf("library instances: %d, invocations served: %d\n", instances, served)
	return nil
}

type manifest struct {
	library  string
	context  string
	function string
	calls    [][]minipy.Value
}

func readManifest(env *minipy.Env) (*manifest, error) {
	v, ok := env.Get("VINE")
	if !ok {
		return nil, fmt.Errorf("workflow file must define a VINE dict")
	}
	d, ok := v.(*minipy.Dict)
	if !ok {
		return nil, fmt.Errorf("VINE must be a dict, got %s", v.Type())
	}
	getStr := func(key string, required bool) (string, error) {
		val, ok := d.Get(minipy.Str(key))
		if !ok {
			if required {
				return "", fmt.Errorf("VINE missing %q", key)
			}
			return "", nil
		}
		s, ok := val.(minipy.Str)
		if !ok {
			return "", fmt.Errorf("VINE[%q] must be a string", key)
		}
		return string(s), nil
	}
	mf := &manifest{}
	var err error
	if mf.library, err = getStr("library", true); err != nil {
		return nil, err
	}
	if mf.function, err = getStr("function", true); err != nil {
		return nil, err
	}
	if mf.context, err = getStr("context", false); err != nil {
		return nil, err
	}
	callsVal, ok := d.Get(minipy.Str("calls"))
	if !ok {
		return nil, fmt.Errorf("VINE missing \"calls\"")
	}
	callsList, ok := callsVal.(*minipy.List)
	if !ok {
		return nil, fmt.Errorf("VINE[\"calls\"] must be a list")
	}
	for i, c := range callsList.Elems {
		switch args := c.(type) {
		case *minipy.List:
			mf.calls = append(mf.calls, args.Elems)
		case *minipy.Tuple:
			mf.calls = append(mf.calls, args.Elems)
		default:
			return nil, fmt.Errorf("VINE[\"calls\"][%d] must be a list of arguments", i)
		}
	}
	return mf, nil
}
