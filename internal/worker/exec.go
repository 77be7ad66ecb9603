package worker

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/library"
	"repro/internal/minipy"
	"repro/internal/proto"
)

// executor is the worker's execution layer: stateless tasks, library
// lifecycle, and invocations. It owns the worker's resource accounting
// and its installed-library table, and reaches staged objects only
// through the data plane's PinResolve — so an input still in flight is
// waited for, and a resolved input can never be evicted mid-task.
type executor struct {
	cfg   *Config
	plane *dataplane.Plane
	w     *Worker // result/ack delivery, goroutine accounting

	mu        sync.Mutex
	libs      map[string]*libHolder
	committed core.Resources
}

// libHolder is an installed library and the executor it owns for as
// long as it is installed — the daemon of §3.4. The control loop
// appends invocations to queue; slot goroutines started on demand, at
// most max of them, serve it first in first out and park when it is
// empty. Nothing is created per invocation.
//
// A slot goroutine ends when the library has been removed and the
// queue is empty — every invocation accepted before the removal gets
// its result — or, whatever is queued, when the worker shuts down:
// those invocations get no result, and the manager requeues them off
// the closed link. All of them are counted in Worker.wg.
type libHolder struct {
	lib *library.Library
	res core.Resources
	w   *Worker
	// max is 1 in direct mode: invocations share the library's memory,
	// and one goroutine serving one queue runs them one at a time, in
	// frame order. In fork mode it is the library's slot count.
	max int

	mu sync.Mutex
	// wake is signalled once per queued invocation while a slot is
	// parked, and broadcast on removal and on shutdown.
	wake     sync.Cond
	queue    core.FIFO[core.InvocationSpec]
	slots    int  // slot goroutines started
	idle     int  // of those, parked and not yet signalled
	draining bool // removed: serve what is queued, then end
}

func newLibHolder(w *Worker, lib *library.Library, res core.Resources) *libHolder {
	h := &libHolder{lib: lib, res: res, w: w, max: 1}
	if lib.Spec.Mode == core.ExecFork {
		h.max = lib.Spec.SlotCount()
	}
	h.wake.L = &h.mu
	return h
}

// submit queues one invocation. Only the control loop calls it; it
// never blocks on execution.
func (h *libHolder) submit(spec core.InvocationSpec) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.queue.Push(spec)
	switch {
	case h.idle > 0:
		// The signaller does the counting: a second invocation arriving
		// before the woken slot runs must see one parked slot fewer, or
		// it would signal nobody and wait behind the first.
		h.idle--
		h.wake.Signal()
	case h.slots < h.max:
		h.slots++
		h.w.wg.Add(1)
		go h.serve()
	}
}

// serve is one slot goroutine.
func (h *libHolder) serve() {
	defer h.w.wg.Done()
	slot := h.lib.NewSlot()
	for {
		spec, ok := h.next()
		if !ok {
			return
		}
		h.w.sendResult(h.run(slot, spec))
	}
}

// next takes the oldest queued invocation, parking until there is one.
// It reports false when the slot should end.
func (h *libHolder) next() (core.InvocationSpec, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.queue.Len() == 0 && !h.draining && !h.w.stopping() {
		h.idle++
		h.wake.Wait()
	}
	if h.w.stopping() {
		return core.InvocationSpec{}, false
	}
	return h.queue.Pop()
}

// wakeAll wakes every parked slot to look at draining and the worker's
// done channel again.
func (h *libHolder) wakeAll(drain bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.draining = h.draining || drain
	h.idle = 0
	h.wake.Broadcast()
}

// run executes one invocation on slot and shapes its result frame.
func (h *libHolder) run(slot *library.Slot, spec core.InvocationSpec) core.Result {
	res, err := slot.Invoke(spec.Function, spec.Args)
	if err != nil {
		return core.Result{
			ID: spec.ID, Ok: false, Err: err.Error(),
			Metrics: core.InvocationMetrics{LibraryInstance: h.lib.Instance},
		}
	}
	return core.Result{
		ID:    spec.ID,
		Ok:    true,
		Value: res.Value,
		Metrics: core.InvocationMetrics{
			SetupTime:       res.SetupTime,
			ExecTime:        res.ExecTime,
			LibraryInstance: h.lib.Instance,
		},
	}
}

func newExecutor(w *Worker) *executor {
	return &executor{
		cfg:   &w.cfg,
		plane: w.plane,
		w:     w,
		libs:  map[string]*libHolder{},
	}
}

// reserve commits resources for a task/library, enforcing the worker's
// allocation.
func (e *executor) reserve(r core.Resources) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	avail := e.cfg.Resources.Sub(e.committed)
	if !r.Fits(avail) {
		return fmt.Errorf("worker %s: insufficient resources (want %+v, have %+v)", e.cfg.ID, r, avail)
	}
	e.committed = e.committed.Add(r)
	return nil
}

func (e *executor) release(r core.Resources) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.committed = e.committed.Sub(r)
}

// infraResult marks a failure as infrastructure-caused (staging gaps,
// cache pressure, lost libraries) so the manager may retry the work on
// another placement; errors raised by the submitted code itself are
// plain failed results and are never retried.
func infraResult(id int64, err error) core.Result {
	return core.Result{ID: id, Ok: false, Err: err.Error(), Retryable: true}
}

func (e *executor) stdout() io.Writer {
	if e.cfg.Out == nil {
		return io.Discard
	}
	return e.cfg.Out
}

// moduleResolver builds the module-resolution function for a sandbox
// or library: only modules installed by the unpacked environments in
// `allowed` (plus the always-present vine_runtime) are importable.
func (e *executor) moduleResolver(allowed map[string]bool, sb *sandbox) func(*minipy.Interp, string) (*minipy.ModuleVal, error) {
	return func(ip *minipy.Interp, name string) (*minipy.ModuleVal, error) {
		if name == "vine_runtime" && sb != nil {
			return sb.runtimeModule(ip), nil
		}
		if !allowed[name] {
			return nil, fmt.Errorf("no module named '%s'", name)
		}
		if e.cfg.Registry == nil || !e.cfg.Registry.Has(name) {
			return nil, fmt.Errorf("no module named '%s'", name)
		}
		return e.cfg.Registry.Build(name)
	}
}

// allowedModules collects the package names installed by every
// environment tarball among the given objects. staged are pinned cache
// objects: one unpacked here has its module list retained by the data
// plane, read once when the tarball was expanded. shared are L1 shared
// FS reads, which by definition retain nothing — their manifest is
// parsed every time, as is a staged tarball nobody asked to unpack.
func (e *executor) allowedModules(staged, shared []*content.Object) map[string]bool {
	allowed := map[string]bool{}
	add := func(modules []string) {
		for _, m := range modules {
			allowed[m] = true
		}
	}
	for _, obj := range staged {
		modules, retained := e.plane.UnpackedModules(obj.ID)
		if !retained {
			modules = dataplane.ParseModules(obj)
		}
		add(modules)
	}
	for _, obj := range shared {
		add(dataplane.ParseModules(obj))
	}
	return allowed
}

// ---- task execution ----

// claimInputs registers the task's use of each input not bound to the
// worker. It runs on the control loop, in frame order, so the claim is
// in place before an earlier task sharing the input can end; runTask
// releases it.
func (e *executor) claimInputs(spec core.TaskSpec) {
	for _, in := range spec.Inputs {
		if !in.Cache {
			e.plane.Claim(in.Object.ID)
		}
	}
}

// runTask executes a stateless task (the L1/L2 path): resolve inputs
// through the data plane (waiting out in-flight fetches), read shared
// FS, unpack environments, run the script in a sandbox, return the
// pickled result.
func (e *executor) runTask(spec core.TaskSpec) {
	e.w.sendResult(e.task(spec))
}

// task runs one task and returns its result once everything it held —
// its resources, its pins, its transient inputs — is released: the
// manager may place new work here the moment the result arrives.
func (e *executor) task(spec core.TaskSpec) core.Result {
	start := time.Now()
	var pinned []string
	defer func() {
		for _, id := range pinned {
			_ = e.plane.Unpin(id)
		}
		// Stateless tasks leave nothing behind: an input not bound to the
		// worker goes with the last task that claimed it.
		for _, in := range spec.Inputs {
			if !in.Cache {
				e.plane.Release(in.Object.ID)
			}
		}
	}()
	if err := e.reserve(spec.Resources); err != nil {
		return infraResult(spec.ID, err)
	}
	defer e.release(spec.Resources)

	var metrics core.InvocationMetrics

	// Stage inputs: PinResolve pins each cached object atomically with
	// respect to eviction, and waits if the object's peer transfer is
	// still in flight (the control loop no longer serializes staging
	// ahead of dispatch). Shared FS reads happen now (and are the L1
	// bottleneck in the paper).
	sb := newSandbox()
	var staged, shared []*content.Object
	for _, in := range spec.Inputs {
		obj, err := e.plane.PinResolve(in.Object.ID)
		if err != nil {
			return infraResult(spec.ID, fmt.Errorf("input %q not staged on worker: %v", in.Object.Name, err))
		}
		pinned = append(pinned, in.Object.ID)
		if in.Unpack {
			if _, err := e.plane.MarkUnpacked(obj); err != nil {
				return infraResult(spec.ID, err)
			}
		}
		sb.add(obj)
		staged = append(staged, obj)
	}
	for _, in := range spec.SharedFSReads {
		// Shared FS reads go through the plane like every other byte
		// source — the executor never touches the store directly (§10).
		obj, err := e.plane.SharedRead(in.Object.ID)
		if err != nil {
			return infraResult(spec.ID, fmt.Errorf("shared FS read %q: %v", in.Object.Name, err))
		}
		sb.add(obj)
		shared = append(shared, obj)
	}
	metrics.WorkerTime = time.Since(start).Seconds()

	// Execute the script.
	execStart := time.Now()
	host := &library.Host{
		Resolve: e.moduleResolver(e.allowedModules(staged, shared), sb),
		Out:     e.stdout(),
	}
	ip := minipy.NewInterp(host)
	ip.StepLimit = e.cfg.StepLimit
	_, err := ip.RunModule(spec.Script, fmt.Sprintf("task-%d", spec.ID))
	metrics.ExecTime = time.Since(execStart).Seconds()

	if err != nil {
		return core.Result{ID: spec.ID, Ok: false, Err: err.Error(), Metrics: metrics}
	}
	if sb.result == nil {
		return core.Result{ID: spec.ID, Ok: false, Err: "task script did not call vine_runtime.store_result", Metrics: metrics}
	}
	if spec.ResultByRef {
		// Pass-by-reference completion: the result bytes stay here — this
		// worker becomes the ref's owner — and only the proxy handle
		// travels to the manager. A store failure is the
		// infrastructure's fault, not the task's.
		obj := content.NewBlob(fmt.Sprintf("task-%d.out", spec.ID), sb.result)
		if err := e.plane.PutOwned(obj); err != nil {
			return infraResult(spec.ID, err)
		}
		return core.Result{ID: spec.ID, Ok: true, Ref: &core.ObjectRef{
			ID: obj.ID, Name: obj.Name, Size: obj.LogicalSize, Owner: e.cfg.ID, Tier: core.TierCache,
		}, Metrics: metrics}
	}
	return core.Result{ID: spec.ID, Ok: true, Value: sb.result, Metrics: metrics}
}

// ---- library hosting ----

func (e *executor) installLibrary(spec core.LibrarySpec) {
	res := spec.Resources
	if res == (core.Resources{}) {
		// A library by default takes all resources of a worker (§3.5.2).
		res = e.cfg.Resources
	}
	// Install failures split the same way task failures do: a missing
	// staged input or exhausted resources is the infrastructure's fault
	// (retryable — the manager redeploys after recovery), while a
	// context setup that raises is the library's own bug and counts
	// toward quarantine.
	ackErr := func(err error, retryable bool) {
		e.w.sendMsg(proto.MsgLibraryAck, proto.LibraryAck{Library: spec.Name, Ok: false, Err: err.Error(), Retryable: retryable})
	}
	if err := e.reserve(res); err != nil {
		ackErr(err, true)
		return
	}

	// Pin and unpack the library's environment and inputs; PinResolve
	// waits out any still-in-flight peer transfer.
	var objs []*content.Object
	pinned := []string{}
	fail := func(err error, retryable bool) {
		for _, id := range pinned {
			_ = e.plane.Unpin(id)
		}
		e.release(res)
		ackErr(err, retryable)
	}
	specs := spec.Inputs
	if spec.Env != nil {
		specs = append([]core.FileSpec{*spec.Env}, specs...)
	}
	for _, in := range specs {
		obj, err := e.plane.PinResolve(in.Object.ID)
		if err != nil {
			fail(fmt.Errorf("library input %q not staged: %v", in.Object.Name, err), true)
			return
		}
		pinned = append(pinned, obj.ID)
		if in.Unpack {
			if _, err := e.plane.MarkUnpacked(obj); err != nil {
				fail(err, true)
				return
			}
		}
		objs = append(objs, obj)
	}

	instance := fmt.Sprintf("%s@%s", spec.Name, e.cfg.ID)
	inputs := map[string]*content.Object{}
	for _, obj := range objs {
		if obj.Kind != content.Tarball {
			inputs[obj.Name] = obj
		}
	}
	host := &library.Host{
		Resolve:   e.moduleResolver(e.allowedModules(objs, nil), nil),
		Out:       e.stdout(),
		Inputs:    inputs,
		StepLimit: e.cfg.StepLimit,
	}
	lib, err := library.Start(spec, instance, host)
	if err != nil {
		fail(err, false)
		return
	}

	e.mu.Lock()
	if _, exists := e.libs[spec.Name]; exists {
		e.mu.Unlock()
		fail(fmt.Errorf("library %s already installed", spec.Name), true)
		return
	}
	e.libs[spec.Name] = newLibHolder(e.w, lib, res)
	e.mu.Unlock()

	e.w.sendMsg(proto.MsgLibraryAck, proto.LibraryAck{
		Library:   spec.Name,
		Instance:  instance,
		Ok:        true,
		SetupTime: lib.SetupDuration.Seconds(),
	})
}

func (e *executor) removeLibrary(name string) {
	e.mu.Lock()
	h, ok := e.libs[name]
	if ok {
		delete(e.libs, name)
	}
	e.mu.Unlock()
	if !ok {
		return
	}
	h.wakeAll(true)
	specs := h.lib.Spec.Inputs
	if h.lib.Spec.Env != nil {
		specs = append([]core.FileSpec{*h.lib.Spec.Env}, specs...)
	}
	for _, in := range specs {
		_ = e.plane.Unpin(in.Object.ID)
	}
	e.release(h.res)
}

// invoke hands an invocation to its library's executor. It runs on the
// control loop, in frame order, and does not wait for execution.
func (e *executor) invoke(spec core.InvocationSpec) {
	e.mu.Lock()
	h, ok := e.libs[spec.Library]
	e.mu.Unlock()
	if !ok {
		// The manager believed an instance was here; it may have been
		// lost to eviction racing the dispatch — retryable.
		e.w.sendResult(infraResult(spec.ID, fmt.Errorf("worker %s has no library %q", e.cfg.ID, spec.Library)))
		return
	}
	h.submit(spec)
}

// stop ends every installed library's slot goroutines at shutdown;
// Worker.done is closed by then. A library whose install finishes later
// starts no slot that stays: next sees the closed channel first.
func (e *executor) stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, h := range e.libs {
		h.wakeAll(false)
	}
}

// Libraries returns the installed library names (tests).
func (w *Worker) Libraries() []string {
	w.exec.mu.Lock()
	defer w.exec.mu.Unlock()
	out := make([]string, 0, len(w.exec.libs))
	for name := range w.exec.libs {
		out = append(out, name)
	}
	return out
}

// LibraryShare returns the share value (invocations served) of an
// installed library, or -1.
func (w *Worker) LibraryShare(name string) int64 {
	w.exec.mu.Lock()
	h, ok := w.exec.libs[name]
	w.exec.mu.Unlock()
	if !ok {
		return -1
	}
	return h.lib.Served()
}
