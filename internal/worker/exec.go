package worker

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/library"
	"repro/internal/minipy"
	"repro/internal/poncho"
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
	// code is this worker's alone: every task and library interpreter
	// parses through it, so a text the worker has run is not parsed
	// again (the wrapper script, a wrapped function's source).
	code minipy.CodeCache

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
	queue    core.FIFO[queued]
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

// inlinePayload is how many bytes of pickled arguments a queued
// invocation carries by value in its own record: what a short call's
// arguments take. Longer arguments cost one heap copy.
const inlinePayload = 16

// queued is an invocation waiting for a slot, its arguments copied out
// of the receive buffer they were decoded from: into args when they fit,
// with spec.Args nil, or else to the heap as spec.Args.
type queued struct {
	spec core.InvocationSpec
	n    uint8
	args [inlinePayload]byte
}

// submit queues one invocation, whose Args may alias a receive buffer.
// Only the control loop calls it; it never blocks on execution.
func (h *libHolder) submit(spec core.InvocationSpec) {
	q := queued{spec: spec}
	if len(spec.Args) <= inlinePayload {
		q.n = uint8(copy(q.args[:], spec.Args))
		q.spec.Args = nil
	} else {
		q.spec.Args = bytes.Clone(spec.Args)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.queue.Push(q)
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
	// args receives each queued invocation's inline arguments.
	args := make([]byte, 0, inlinePayload)
	for {
		spec, ok := h.next(args)
		if !ok {
			return
		}
		h.w.sendResult(h.run(slot, spec))
	}
}

// next takes the oldest queued invocation, parking until there is one,
// with arguments that were inline copied into args, which must have room
// for inlinePayload bytes. It reports false when the slot should end.
func (h *libHolder) next(args []byte) (core.InvocationSpec, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.queue.Len() == 0 && !h.draining && !h.w.stopping() {
		h.idle++
		h.wake.Wait()
	}
	if h.w.stopping() {
		return core.InvocationSpec{}, false
	}
	q, ok := h.queue.Pop()
	if ok && q.spec.Args == nil {
		q.spec.Args = append(args[:0], q.args[:q.n]...)
	}
	return q.spec, ok
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

// resolveModule builds the module called name for a task or library whose
// environments install the sorted lists in installed: only a module one
// of them lists is importable. An import is a binary search per
// environment; nothing is built for the imports a script never makes.
func (e *executor) resolveModule(installed [][]string, name string) (*minipy.ModuleVal, error) {
	for _, names := range installed {
		if _, found := slices.BinarySearch(names, name); found && e.cfg.Registry != nil && e.cfg.Registry.Has(name) {
			return e.cfg.Registry.Build(name)
		}
	}
	return nil, fmt.Errorf("no module named '%s'", name)
}

// allowedModules appends to installed the sorted package-name list of
// every environment tarball among objs. The data plane retains the list
// of one it unpacked, read once when the tarball was expanded; any other
// — an L1 shared FS read, which by definition retains nothing, or a
// staged tarball nobody asked to unpack — has its name table parsed
// every time. An unreadable manifest is an error wrapping
// poncho.ErrManifest.
func (e *executor) allowedModules(installed [][]string, objs []*content.Object) ([][]string, error) {
	for _, obj := range objs {
		modules, retained := e.plane.UnpackedModules(obj.ID)
		if !retained {
			var err error
			if modules, err = dataplane.ParseModules(obj); err != nil {
				return nil, err
			}
		}
		if len(modules) > 0 {
			installed = append(installed, modules)
		}
	}
	return installed, nil
}

// stagingFailure is the result for a task whose staging failed. A
// manifest that does not decode is the task's own failure: its bytes are
// content-addressed, so a retry anywhere reads the same ones. Anything
// else is the infrastructure's.
func stagingFailure(id int64, err error) core.Result {
	return core.Result{ID: id, Ok: false, Err: err.Error(), Retryable: !errors.Is(err, poncho.ErrManifest)}
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
// pickled result. It is the task's goroutine, counted in the worker's
// WaitGroup by the control loop that starts it.
func (e *executor) runTask(spec core.TaskSpec) {
	defer e.w.wg.Done()
	e.w.sendResult(e.task(spec))
}

// task runs one task and returns its result once everything it held —
// its resources, its pins, its transient inputs — is released: the
// manager may place new work here the moment the result arrives.
func (e *executor) task(spec core.TaskSpec) core.Result {
	start := time.Now()
	t := &task{e: e}
	t.inputs, t.installed = t.inputBuf[:0], t.installedBuf[:0]
	defer func() {
		for _, obj := range t.inputs[:t.pinned] {
			_ = e.plane.Unpin(obj.ID)
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
	for _, in := range spec.Inputs {
		obj, err := e.plane.PinResolve(in.Object.ID)
		if err != nil {
			return infraResult(spec.ID, fmt.Errorf("input %q not staged on worker: %v", in.Object.Name, err))
		}
		t.inputs = append(t.inputs, obj)
		t.pinned++
		if in.Unpack {
			if _, err := e.plane.MarkUnpacked(obj); err != nil {
				return stagingFailure(spec.ID, err)
			}
		}
	}
	for _, in := range spec.SharedFSReads {
		// Shared FS reads go through the plane like every other byte
		// source — the executor never touches the store directly (§10).
		obj, err := e.plane.SharedRead(in.Object.ID)
		if err != nil {
			return infraResult(spec.ID, fmt.Errorf("shared FS read %q: %v", in.Object.Name, err))
		}
		t.inputs = append(t.inputs, obj)
	}
	var err error
	if t.installed, err = e.allowedModules(t.installed, t.inputs); err != nil {
		return stagingFailure(spec.ID, err)
	}
	metrics.WorkerTime = time.Since(start).Seconds()

	// Execute the script.
	execStart := time.Now()
	t.ip.Init(t)
	t.ip.StepLimit = e.cfg.StepLimit
	t.ip.Code = &e.code
	_, err = t.ip.RunModule(spec.Script, "task")
	metrics.ExecTime = time.Since(execStart).Seconds()

	if err != nil {
		return core.Result{ID: spec.ID, Ok: false, Err: err.Error(), Metrics: metrics}
	}
	if t.result == nil {
		return core.Result{ID: spec.ID, Ok: false, Err: "task script did not call vine_runtime.store_result", Metrics: metrics}
	}
	if spec.ResultByRef {
		// Pass-by-reference completion: the result bytes stay here — this
		// worker becomes the ref's owner — and only the proxy handle
		// travels to the manager. A store failure is the
		// infrastructure's fault, not the task's.
		obj := content.NewBlob(fmt.Sprintf("task-%d.out", spec.ID), t.result)
		if err := e.plane.PutOwned(obj); err != nil {
			return infraResult(spec.ID, err)
		}
		return core.Result{ID: spec.ID, Ok: true, Ref: &core.ObjectRef{
			ID: obj.ID, Name: obj.Name, Size: obj.LogicalSize, Owner: e.cfg.ID, Tier: core.TierCache,
		}, Metrics: metrics}
	}
	return core.Result{ID: spec.ID, Ok: true, Value: t.result, Metrics: metrics}
}

// ---- library hosting ----

// installLibrary starts a library instance on a goroutine of its own,
// counted in the worker's WaitGroup by the control loop that starts it.
func (e *executor) installLibrary(spec core.LibrarySpec) {
	defer e.w.wg.Done()
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
				// An unreadable manifest is the library's, like a context
				// setup that raises: it counts toward quarantine.
				fail(err, !errors.Is(err, poncho.ErrManifest))
				return
			}
		}
		objs = append(objs, obj)
	}
	installed, err := e.allowedModules(nil, objs)
	if err != nil {
		fail(err, false)
		return
	}

	instance := fmt.Sprintf("%s@%s", spec.Name, e.cfg.ID)
	inputs := map[string]*content.Object{}
	for _, obj := range objs {
		if obj.Kind != content.Tarball {
			inputs[obj.Name] = obj
		}
	}
	host := &library.Host{
		Resolve: func(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
			return e.resolveModule(installed, name)
		},
		Inputs:    inputs,
		StepLimit: e.cfg.StepLimit,
		Code:      &e.code,
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
