// Package taskvine is the user-facing API of this reproduction,
// mirroring the TaskVine frontend of the paper (Figure 5): applications
// create a Manager, build Libraries from functions (whose contexts —
// code, software dependencies, input data, and environment setup — are
// discovered automatically), install the libraries, and submit
// lightweight FunctionCalls that reuse the retained contexts on
// workers.
//
// A minimal session:
//
//	m, _ := taskvine.NewManager(taskvine.Options{})
//	defer m.Shutdown()
//	m.SpawnLocalWorkers(4, taskvine.WorkerOptions{})
//
//	env, _ := m.Exec(`
//	def context_setup():
//	    global model
//	    import resnet
//	    model = resnet.load_model("resnet50")
//
//	def classify(seed, n):
//	    import imageproc
//	    global model
//	    return model.infer_batch(imageproc.generate_batch(seed, n))
//	`)
//	lib, _ := m.CreateLibraryFromFunctions("mllib", taskvine.LibraryOptions{
//	    ContextSetup: "context_setup",
//	}, env, "classify")
//	_ = m.InstallLibrary(lib)
//	id, _ := m.Call("mllib", "classify", minipy.Int(1), minipy.Int(16))
//	res := <-m.Results()
package taskvine

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/hoist"
	"repro/internal/manager"
	"repro/internal/minipy"
	"repro/internal/modlib"
	"repro/internal/pickle"
	"repro/internal/pkgindex"
	"repro/internal/poncho"
	"repro/internal/sharedfs"
	"repro/internal/worker"
)

// Options configures a Manager.
type Options struct {
	// Name labels the manager.
	Name string
	// DisablePeerTransfers forces all file movement through the manager
	// (Figure 3a). Default off: spanning-tree peer transfers (3b).
	DisablePeerTransfers bool
	// PeerTransferCap is the per-worker outbound transfer cap N.
	PeerTransferCap int
	// ClusterAware prefers same-cluster transfer sources (Figure 3c).
	ClusterAware bool
	// MaxRetries bounds how many times a retryable failure (worker
	// loss, staging race) is retried before the failure is delivered.
	// 0 means the default budget; negative disables retries.
	MaxRetries int
	// RetryBaseDelay is the first retry's backoff (doubling per
	// attempt); zero uses the default.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the exponential backoff; zero uses the
	// default.
	RetryMaxDelay time.Duration
	// Shards overrides the dispatch plane's shard count (0 = default).
	// The scaling harness sweeps this; applications normally leave it.
	Shards int
	// Tenants, when non-empty, activates the multi-tenant submission
	// plane (DESIGN.md §14): specs carrying a TenantID pass admission
	// control and drain in weighted fair-share order. Empty keeps the
	// single-tenant fast path.
	Tenants []core.TenantSpec
	// RefOwnedBytesCap bounds the owned proxy-object bytes per worker
	// (DESIGN.md §15): beyond it, the oldest owned refs spill to the
	// shared tier. 0 means unbounded (no spills).
	RefOwnedBytesCap int64
}

// WorkerOptions configures locally spawned workers.
type WorkerOptions struct {
	Resources     core.Resources
	Cluster       string
	GFlops        float64
	CacheCapacity int64
	// PeerIOTimeout bounds how long a peer data transfer may sit idle
	// before the worker abandons it; zero uses the worker default.
	PeerIOTimeout time.Duration
	// FetchConcurrency bounds each worker's concurrent peer fetches
	// (its data-plane pool size); zero uses the dataplane default.
	FetchConcurrency int
	// ServeConcurrency bounds each worker's concurrent peer-serve
	// connections; zero uses the dataplane default.
	ServeConcurrency int
	// WrapDataListener, when set, wraps each worker's peer data
	// listener — the hook fault-injection tests use to stall or cut
	// transfers mid-stream.
	WrapDataListener func(net.Listener) net.Listener
}

// Manager is the application-facing handle: it owns the network
// manager, the application-side interpreter, the package index, and
// the shared filesystem stand-in.
type Manager struct {
	inner *manager.Manager
	addr  string
	index *pkgindex.Index
	fs    *sharedfs.Store
	ip    *minipy.Interp

	mu      sync.Mutex
	libs    map[string]*Library
	workers []*worker.Worker
	nworker int
}

// appHost gives the application's own interpreter access to every
// module (the manager node has everything installed, like the user's
// login environment in the paper).
type appHost struct {
	reg *modlib.Registry
}

func (h *appHost) ResolveModule(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	if !h.reg.Has(name) {
		return nil, fmt.Errorf("no module named '%s'", name)
	}
	return h.reg.Build(name)
}

// NewManager creates a manager listening for workers.
func NewManager(opts Options) (*Manager, error) {
	inner := manager.New(manager.Options{
		Name:                opts.Name,
		PeerTransfers:       !opts.DisablePeerTransfers,
		PeerTransferCap:     opts.PeerTransferCap,
		ClusterAware:        opts.ClusterAware,
		EvictEmptyLibraries: true,
		MaxRetries:          opts.MaxRetries,
		RetryBaseDelay:      opts.RetryBaseDelay,
		RetryMaxDelay:       opts.RetryMaxDelay,
		Shards:              opts.Shards,
		Tenants:             opts.Tenants,
		RefOwnedBytesCap:    opts.RefOwnedBytesCap,
	})
	addr, err := inner.Listen()
	if err != nil {
		return nil, err
	}
	host := &appHost{reg: modlib.Standard()}
	return &Manager{
		inner: inner,
		addr:  addr,
		index: pkgindex.StandardIndex(),
		fs:    sharedfs.NewStore(),
		ip:    minipy.NewInterp(host),
		libs:  map[string]*Library{},
	}, nil
}

// Addr returns the address remote workers should dial.
func (m *Manager) Addr() string { return m.addr }

// SharedFS returns the shared filesystem stand-in (for publishing L1
// data and inspecting read counters).
func (m *Manager) SharedFS() *sharedfs.Store { return m.fs }

// Index returns the package index used for dependency resolution.
func (m *Manager) Index() *pkgindex.Index { return m.index }

// Interp returns the application-side interpreter.
func (m *Manager) Interp() *minipy.Interp { return m.ip }

// Stats exposes the manager's counters.
func (m *Manager) Stats() manager.Stats { return m.inner.Stats() }

// TenantStats exposes the per-tenant submission-plane breakdown —
// submits, sheds, throttles, and quota occupancy per tenant, in
// registry order. Nil when the submission plane is off.
func (m *Manager) TenantStats() []manager.TenantStat { return m.inner.TenantStats() }

// CheckQuiescence verifies the manager's bookkeeping is clean once all
// submitted work has been collected: no outstanding transfers, no
// pending files, no inflight work, no queued retries. Fault-injection
// tests poll it to prove recovery paths leak nothing.
func (m *Manager) CheckQuiescence() error { return m.inner.CheckQuiescence() }

// LibraryDeployments reports deployed library instances and their
// total share value.
func (m *Manager) LibraryDeployments() (int, int64) { return m.inner.LibraryDeployments() }

// Shutdown stops the manager and all locally spawned workers.
func (m *Manager) Shutdown() {
	m.inner.Shutdown()
	m.mu.Lock()
	ws := m.workers
	m.workers = nil
	m.mu.Unlock()
	for _, w := range ws {
		w.Shutdown()
	}
}

// SpawnLocalWorkers starts n in-process workers connected to this
// manager (the factory-process role of §3.6) and waits for them to
// register.
func (m *Manager) SpawnLocalWorkers(n int, wo WorkerOptions) error {
	m.mu.Lock()
	before := m.nworker
	m.nworker += n
	m.mu.Unlock()
	// Wait relative to the live count, not the cumulative spawn count:
	// workers spawned earlier may have died since.
	target := m.inner.WorkersConnected() + n
	for i := 0; i < n; i++ {
		cfg := worker.Config{
			ID:               fmt.Sprintf("w%03d", before+i),
			Resources:        wo.Resources,
			Cluster:          wo.Cluster,
			GFlops:           wo.GFlops,
			CacheCapacity:    wo.CacheCapacity,
			Registry:         modlib.Standard(),
			SharedFS:         m.fs,
			PeerIOTimeout:    wo.PeerIOTimeout,
			FetchConcurrency: wo.FetchConcurrency,
			ServeConcurrency: wo.ServeConcurrency,
			WrapDataListener: wo.WrapDataListener,
		}
		w := worker.New(cfg)
		if err := w.Connect(m.addr); err != nil {
			return err
		}
		m.mu.Lock()
		m.workers = append(m.workers, w)
		m.mu.Unlock()
	}
	return m.inner.WaitForWorkers(target, 10*time.Second)
}

// LocalWorkers returns handles to the in-process workers (tests).
func (m *Manager) LocalWorkers() []*worker.Worker {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*worker.Worker, len(m.workers))
	copy(out, m.workers)
	return out
}

// Exec runs MiniPy source in the application interpreter and returns
// the resulting globals — the way applications define the functions
// they will submit.
func (m *Manager) Exec(src string) (*minipy.Env, error) {
	return m.ip.RunModule(src, "__main__")
}

// FuncFrom pulls a function value out of an environment.
func FuncFrom(env *minipy.Env, name string) (*minipy.Func, error) {
	v, ok := env.Get(name)
	if !ok {
		return nil, fmt.Errorf("taskvine: no function %q defined", name)
	}
	fn, ok := v.(*minipy.Func)
	if !ok {
		return nil, fmt.Errorf("taskvine: %q is a %s, not a function", name, v.Type())
	}
	return fn, nil
}

// Results streams completed results.
func (m *Manager) Results() <-chan core.Result { return m.inner.Results() }

// Collect drains n results.
func (m *Manager) Collect(n int, timeout time.Duration) ([]core.Result, error) {
	return m.inner.Collect(n, timeout)
}

// DecodeValue unpickles a successful result's value in the application
// interpreter.
func (m *Manager) DecodeValue(res core.Result) (minipy.Value, error) {
	if !res.Ok {
		return nil, fmt.Errorf("taskvine: result %d failed: %s", res.ID, res.Err)
	}
	return pickle.Unmarshal(res.Value, m.ip)
}

// ---- libraries ----

// LibraryOptions tunes library creation.
type LibraryOptions struct {
	// ContextSetup names the environment-setup function (Figure 4/5);
	// empty means no setup beyond imports.
	ContextSetup string
	// ContextArgs are the setup function's arguments.
	ContextArgs []minipy.Value
	// Slots is the number of concurrent invocation slots (§3.5.2).
	Slots int
	// Mode selects direct or fork invocation execution.
	Mode core.ExecMode
	// Resources is the library's allocation; zero takes the whole
	// worker.
	Resources core.Resources
	// ForcePickle skips source extraction, exercising the cloudpickle
	// path even for functions with source.
	ForcePickle bool
}

// Library is a function bundle being assembled before installation.
type Library struct {
	spec    *core.LibrarySpec
	envSpec *poncho.EnvSpec
}

// Spec exposes the underlying library spec (read-mostly; used by
// tests and the Parsl executor).
func (l *Library) Spec() *core.LibrarySpec { return l.spec }

// Environment returns the resolved software environment.
func (l *Library) Environment() *poncho.EnvSpec { return l.envSpec }

// CreateLibraryFromFunctions performs the Discover step (§3.2) for the
// named functions from env: extract source (or pickle code objects),
// scan and resolve software dependencies into a packed environment,
// and pickle the context-setup function. The result is a Library ready
// to install.
func (m *Manager) CreateLibraryFromFunctions(name string, opts LibraryOptions, env *minipy.Env, fnNames ...string) (*Library, error) {
	if len(fnNames) == 0 {
		return nil, fmt.Errorf("taskvine: library %q needs at least one function", name)
	}
	spec := &core.LibrarySpec{
		Name:      name,
		Slots:     opts.Slots,
		Mode:      opts.Mode,
		Resources: opts.Resources,
	}

	mods := map[string]bool{}
	addFn := func(fn *minipy.Func) error {
		for _, mod := range poncho.ScanFunction(fn) {
			mods[mod] = true
		}
		return nil
	}

	for _, fname := range fnNames {
		fn, err := FuncFrom(env, fname)
		if err != nil {
			return nil, err
		}
		fs := core.FunctionSpec{Name: fname}
		src, fromAST, serr := minipy.GetSource(fn)
		usable := serr == nil && !fromAST && !opts.ForcePickle && len(funcCaptures(fn)) == 0
		if usable {
			// Plain source: the worker will define the function by name.
			fs.Source = src
		} else {
			data, err := pickle.Marshal(fn)
			if err != nil {
				return nil, fmt.Errorf("taskvine: serializing function %q: %w", fname, err)
			}
			fs.Pickled = data
		}
		if err := addFn(fn); err != nil {
			return nil, err
		}
		spec.Functions = append(spec.Functions, fs)
	}

	if opts.ContextSetup != "" {
		setup, err := FuncFrom(env, opts.ContextSetup)
		if err != nil {
			return nil, err
		}
		data, err := pickle.Marshal(setup)
		if err != nil {
			return nil, fmt.Errorf("taskvine: serializing context setup: %w", err)
		}
		spec.ContextSetup = data
		if err := addFn(setup); err != nil {
			return nil, err
		}
		if len(opts.ContextArgs) > 0 {
			argsData, err := pickle.MarshalTuple(opts.ContextArgs)
			if err != nil {
				return nil, fmt.Errorf("taskvine: serializing context args: %w", err)
			}
			spec.ContextArgs = argsData
		}
	}

	// Resolve and pack the software environment.
	lib := &Library{spec: spec}
	if len(mods) > 0 {
		names := make([]string, 0, len(mods))
		for n := range mods {
			names = append(names, n)
		}
		envSpec, err := poncho.Resolve(m.index, names)
		if err != nil {
			return nil, fmt.Errorf("taskvine: resolving environment for library %q: %w", name, err)
		}
		tarball, err := envSpec.Pack(name + "-env.tar.gz")
		if err != nil {
			return nil, err
		}
		spec.Env = &core.FileSpec{Object: tarball, Cache: true, PeerTransfer: true, Unpack: true}
		lib.envSpec = envSpec
	}
	return lib, nil
}

// funcCaptures reports the non-universal values a function depends on;
// a function with captures cannot ship as bare source.
func funcCaptures(fn *minipy.Func) []string {
	closure, globals, _ := minipy.ResolveFree(fn)
	out := make([]string, 0, len(closure)+len(globals))
	for k := range closure {
		out = append(out, k)
	}
	for k := range globals {
		out = append(out, k)
	}
	return out
}

// AddInput binds shareable input data to the library's context
// (data-to-worker binding, §2.2.1).
func (l *Library) AddInput(obj *content.Object, peerTransfer bool) {
	l.spec.Inputs = append(l.spec.Inputs, core.FileSpec{
		Object: obj, Cache: true, PeerTransfer: peerTransfer,
	})
}

// InstallLibrary registers the library with the manager; instances
// deploy to workers on demand.
func (m *Manager) InstallLibrary(lib *Library) error {
	if err := m.inner.RegisterLibrary(lib.spec); err != nil {
		return err
	}
	m.mu.Lock()
	m.libs[lib.spec.Name] = lib
	m.mu.Unlock()
	return nil
}

// Call submits a FunctionCall: only the arguments travel (Table 1).
func (m *Manager) Call(libName, fnName string, args ...minipy.Value) (int64, error) {
	return m.CallTenant("", libName, fnName, args...)
}

// CallTenant is Call on behalf of a tenant: the invocation passes the
// submission plane's admission control and fair-share drain before it
// reaches dispatch. Unknown or empty tenant names take the direct
// single-tenant path.
func (m *Manager) CallTenant(tenant, libName, fnName string, args ...minipy.Value) (int64, error) {
	inv := &invocation{spec: core.InvocationSpec{Library: libName, Function: fnName, TenantID: tenant}}
	data, err := pickle.AppendTuple(inv.args[:0], args)
	if err != nil {
		return 0, fmt.Errorf("taskvine: serializing arguments: %w", err)
	}
	inv.spec.Args = data
	return m.inner.SubmitInvocation(&inv.spec), nil
}

// inlineArgs is how many bytes of pickled arguments travel in the block
// that holds their spec: what fills the spec's 80 bytes to its 96-byte
// size class, no more than the spec and a 16-byte argument allocation
// apart. Longer arguments take one allocation of their own.
const inlineArgs = 16

// invocation is an invocation's spec and, when they fit, its argument
// bytes, allocated together: one allocation per call.
type invocation struct {
	spec core.InvocationSpec
	args [inlineArgs]byte
}

// SubmitTask submits a raw MiniPy task script with input files.
func (m *Manager) SubmitTask(script string, res core.Resources, inputs ...core.FileSpec) int64 {
	return m.inner.Submit(&core.TaskSpec{Script: script, Inputs: inputs, Resources: res})
}

// SubmitTaskByRef is SubmitTask for large-result producers: the result
// bytes stay on the producing worker as an owned proxy object and the
// collected Result carries an ObjectRef handle instead of the inline
// value (DESIGN.md §15). Consumers bind the handle as an input with
// core.RefSpec; the bytes then flow worker-to-worker (or through the
// shared tier) without ever transiting the manager.
func (m *Manager) SubmitTaskByRef(script string, res core.Resources, inputs ...core.FileSpec) int64 {
	return m.inner.Submit(&core.TaskSpec{Script: script, Inputs: inputs, Resources: res, ResultByRef: true})
}

// CreateLibraryFromFunc builds a single-function library directly from
// a function value (rather than a named binding in an environment).
// The Parsl TaskVineExecutor uses this to turn the arbitrary function
// stream it receives into libraries on the fly (§3.6). The function
// always ships as a pickled code object.
func (m *Manager) CreateLibraryFromFunc(libName, fnName string, fn *minipy.Func, opts LibraryOptions) (*Library, error) {
	data, err := pickle.Marshal(fn)
	if err != nil {
		return nil, fmt.Errorf("taskvine: serializing function %q: %w", fnName, err)
	}
	spec := &core.LibrarySpec{
		Name:      libName,
		Slots:     opts.Slots,
		Mode:      opts.Mode,
		Resources: opts.Resources,
		Functions: []core.FunctionSpec{{Name: fnName, Pickled: data}},
	}
	lib := &Library{spec: spec}
	mods := poncho.ScanFunction(fn)
	if len(mods) > 0 {
		envSpec, err := poncho.Resolve(m.index, mods)
		if err != nil {
			return nil, fmt.Errorf("taskvine: resolving environment for library %q: %w", libName, err)
		}
		tarball, err := envSpec.Pack(libName + "-env.tar.gz")
		if err != nil {
			return nil, err
		}
		spec.Env = &core.FileSpec{Object: tarball, Cache: true, PeerTransfer: true, Unpack: true}
		lib.envSpec = envSpec
	}
	return lib, nil
}

// CreateLibraryAuto implements the paper's future work (§6): it
// discovers the function's reusable context automatically by hoisting
// the deterministic prefix of its body — imports, model loads, dataset
// preparation — into a generated context-setup function, then builds
// the library from the rewritten pair. The returned hoist.Result
// reports what moved; if nothing was hoistable the library is built
// from the original function with no setup.
func (m *Manager) CreateLibraryAuto(name string, opts LibraryOptions, env *minipy.Env, fnName string) (*Library, *hoist.Result, error) {
	fn, err := FuncFrom(env, fnName)
	if err != nil {
		return nil, nil, err
	}
	split, err := hoist.Split(fn)
	if err != nil {
		return nil, nil, fmt.Errorf("taskvine: auto-hoisting %q: %w", fnName, err)
	}
	if !split.Hoistable() {
		lib, err := m.CreateLibraryFromFunctions(name, opts, env, fnName)
		return lib, split, err
	}
	// Execute the generated pair in a fresh namespace that can still
	// see the original module's globals (captured helpers), then build
	// the library from it.
	genEnv, err := m.ip.RunModule(split.SetupSource+"\n"+split.BodySource, "autohoist:"+name)
	if err != nil {
		return nil, nil, fmt.Errorf("taskvine: compiling hoisted pair for %q: %w", fnName, err)
	}
	opts.ContextSetup = split.SetupName
	lib, err := m.CreateLibraryFromFunctions(name, opts, env2Merged(genEnv, env), fnName)
	if err != nil {
		return nil, nil, err
	}
	return lib, split, nil
}

// env2Merged resolves names first from the generated environment, then
// from the original module (so helpers the function captured remain
// visible during library creation).
func env2Merged(gen, orig *minipy.Env) *minipy.Env {
	merged := minipy.NewEnv(nil)
	for _, n := range orig.Names() {
		if v, ok := orig.Get(n); ok {
			merged.Set(n, v)
		}
	}
	for _, n := range gen.Names() {
		if v, ok := gen.Get(n); ok {
			merged.Set(n, v)
		}
	}
	return merged
}
