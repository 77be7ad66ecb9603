package taskvine

import (
	"fmt"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/poncho"
	"repro/internal/worker"
)

// WrappedFunction is a function prepared for execution as stateless
// tasks (the paper's "naive transformation" baseline): its code object
// is pickled once, its environment resolved and packed once, and each
// call becomes a wrapper task that reloads everything.
type WrappedFunction struct {
	fn      *minipy.Func
	funcOby *content.Object
	env     *content.Object
	envSpec *poncho.EnvSpec
}

// WrapFunction prepares fn for task-mode execution, resolving and
// packing its software environment.
func (m *Manager) WrapFunction(fn *minipy.Func) (*WrappedFunction, error) {
	data, err := pickle.Marshal(fn)
	if err != nil {
		return nil, fmt.Errorf("taskvine: serializing function: %w", err)
	}
	w := &WrappedFunction{
		fn:      fn,
		funcOby: content.NewBlob("func", data),
	}
	mods := poncho.ScanFunction(fn)
	if len(mods) > 0 {
		envSpec, err := poncho.Resolve(m.index, mods)
		if err != nil {
			return nil, fmt.Errorf("taskvine: resolving environment: %w", err)
		}
		tarball, err := envSpec.Pack("wrapped-env.tar.gz")
		if err != nil {
			return nil, err
		}
		w.env = tarball
		w.envSpec = envSpec
	}
	// Publish code and environment to the shared filesystem so L1 tasks
	// can pull them.
	m.fs.Put(w.funcOby)
	if w.env != nil {
		m.fs.Put(w.env)
	}
	return w, nil
}

// Environment returns the wrapped function's resolved environment
// (nil if it imports nothing).
func (w *WrappedFunction) Environment() *poncho.EnvSpec { return w.envSpec }

// SubmitWrappedCall runs one invocation of a wrapped function as a
// stateless task at the given reuse level:
//
//   - L1: the wrapper pulls function code and software environment
//     from the shared filesystem on every execution and caches nothing.
//   - L2: code and environment are cached on the worker's local disk
//     and shared by subsequent tasks (data-to-worker binding); only the
//     arguments travel each time.
//
// L3 is not a task mode — use Call on an installed library.
func (m *Manager) SubmitWrappedCall(w *WrappedFunction, level core.ReuseLevel, res core.Resources, args ...minipy.Value) (int64, error) {
	argsData, err := pickle.MarshalTuple(args)
	if err != nil {
		return 0, fmt.Errorf("taskvine: serializing arguments: %w", err)
	}
	argsObj := content.NewBlob("args", argsData)

	// One allocation holds the spec and its at most three files. Each
	// list is cut with cap == len, so a later append copies it rather
	// than writing over its neighbour.
	b := &struct {
		spec  core.TaskSpec
		files [3]core.FileSpec
	}{spec: core.TaskSpec{Script: worker.WrapperScript, Resources: res}}
	files := b.files[:0]
	switch level {
	case core.L1:
		files = append(files, core.FileSpec{Object: w.funcOby})
		if w.env != nil {
			files = append(files, core.FileSpec{Object: w.env})
		}
		b.spec.SharedFSReads = files[:len(files):len(files)]
		files = append(files, core.FileSpec{Object: argsObj})
		b.spec.Inputs = files[len(files)-1 : len(files) : len(files)]
	case core.L2:
		files = append(files, core.FileSpec{Object: w.funcOby, Cache: true, PeerTransfer: true})
		if w.env != nil {
			files = append(files, core.FileSpec{Object: w.env, Cache: true, PeerTransfer: true, Unpack: true})
		}
		files = append(files, core.FileSpec{Object: argsObj})
		b.spec.Inputs = files[:len(files):len(files)]
	default:
		return 0, fmt.Errorf("taskvine: SubmitWrappedCall supports L1 and L2, not %v", level)
	}
	return m.inner.Submit(&b.spec), nil
}
