package worker

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/modlib"
	"repro/internal/pickle"
	"repro/internal/pkgindex"
	"repro/internal/poncho"
	"repro/internal/proto"
)

// probe is a module library code imports to report into the test:
// enter() counts the caller in and parks it until the gate opens,
// leave() counts it out. The test reads how many are inside and the
// most there ever were.
type probe struct {
	inside, peak, entered atomic.Int64
	gate                  chan struct{}
	once                  sync.Once
}

func newProbe() *probe { return &probe{gate: make(chan struct{})} }

// open lets everyone parked in enter(), and everyone after, through.
func (p *probe) open() { p.once.Do(func() { close(p.gate) }) }

func (p *probe) module() *minipy.ModuleVal {
	builtin := func(name string, f func()) *minipy.Builtin {
		return &minipy.Builtin{Name: name, Fn: func(*minipy.Interp, []minipy.Value) (minipy.Value, error) {
			f()
			return minipy.NoneValue, nil
		}}
	}
	return &minipy.ModuleVal{Name: "probe", Attrs: map[string]minipy.Value{
		"enter": builtin("enter", func() {
			p.entered.Add(1)
			n := p.inside.Add(1)
			for {
				old := p.peak.Load()
				if n <= old || p.peak.CompareAndSwap(old, n) {
					break
				}
			}
			<-p.gate
		}),
		"leave": builtin("leave", func() { p.inside.Add(-1) }),
	}}
}

// startProbeWorker starts a worker whose registry has the probe module
// and stages the environment that makes it importable; env goes into a
// LibrarySpec.
func startProbeWorker(t *testing.T, fm *fakeManager, cfg Config, p *probe) (w *Worker, env *core.FileSpec) {
	t.Helper()
	cfg.Registry = modlib.Standard()
	cfg.Registry.Register("probe", p.module)
	w, _ = startWorker(t, fm, cfg)
	t.Cleanup(p.open) // runs before the worker's own: nothing stays parked in enter()

	ix := pkgindex.New()
	ix.Add(&pkgindex.Package{Name: "probe", Version: "1", InstalledSize: 1, PackedSize: 1})
	envSpec, err := poncho.Resolve(ix, []string{"probe"})
	if err != nil {
		t.Fatal(err)
	}
	tarball, err := envSpec.Pack("probe-env.tar.gz")
	if err != nil {
		t.Fatal(err)
	}
	if ack := fm.put(t, tarball, true, true); !ack.Ok {
		t.Fatalf("staging the probe environment: %+v", ack)
	}
	return w, &core.FileSpec{Object: tarball, Cache: true, Unpack: true}
}

const gatedSource = "def gated(i):\n    import probe\n    probe.enter()\n    probe.leave()\n    return i\n"

func (fm *fakeManager) install(t *testing.T, spec core.LibrarySpec) {
	t.Helper()
	if spec.Resources == (core.Resources{}) {
		spec.Resources = core.Resources{Cores: 1, MemoryMB: 64, DiskMB: 64}
	}
	if err := fm.conn.Send(proto.MsgInstallLibrary, spec); err != nil {
		t.Fatal(err)
	}
	if ack, _ := proto.DecodeLibraryAck(fm.expect(t, proto.MsgLibraryAck)); !ack.Ok {
		t.Fatalf("install %s: %+v", spec.Name, ack)
	}
}

func (fm *fakeManager) invoke(t *testing.T, id int64, lib, function string, args ...minipy.Value) {
	t.Helper()
	data, err := pickle.Marshal(minipy.NewTuple(args...))
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.conn.Send(proto.MsgInvoke, core.InvocationSpec{ID: id, Library: lib, Function: function, Args: data}); err != nil {
		t.Fatal(err)
	}
}

// result reads the next frame, which must be a result. A worker that
// never answers fails the test instead of hanging it.
func (fm *fakeManager) result(t *testing.T) core.Result {
	t.Helper()
	fm.nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	defer fm.nc.SetReadDeadline(time.Time{})
	res, err := proto.DecodeResultInterned(fm.expect(t, proto.MsgResult), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// barrier returns once the control loop has handled every frame sent so
// far: it handles them in order, and acks a put inline. Only for use
// while no result can arrive ahead of the ack.
func (fm *fakeManager) barrier(t *testing.T) {
	t.Helper()
	if ack := fm.put(t, content.NewBlob("barrier", []byte("barrier")), true, false); !ack.Ok {
		t.Fatalf("barrier put: %+v", ack)
	}
}

func wantValue(t *testing.T, res core.Result, want minipy.Value) {
	t.Helper()
	data, err := pickle.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok || !bytes.Equal(res.Value, data) {
		t.Fatalf("invocation %d: %+v, want %s", res.ID, res, want.Repr())
	}
}

// eventually polls cond until it holds; the deadline only bounds a
// failing run.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDirectLibraryServesInFrameOrder: a direct library's invocations
// share its memory, so they run one at a time in the order their frames
// arrived, however fast they arrive.
func TestDirectLibraryServesInFrameOrder(t *testing.T) {
	fm := newFakeManager(t)
	startWorker(t, fm, Config{ID: "w"})
	fm.install(t, core.LibrarySpec{Name: "lib", Slots: 16, Functions: []core.FunctionSpec{
		{Name: "add", Source: "log = []\ndef add(i):\n    log.append(i)\n    return len(log)\n"},
		{Name: "get", Source: "def get():\n    return log\n"},
	}})
	// All 200 frames (and their results) fit in the socket buffers, so
	// they can all be written before the first result is read.
	const n = 200
	for i := int64(0); i < n; i++ {
		fm.invoke(t, i, "lib", "add", minipy.Int(i))
	}
	want := &minipy.List{}
	for i := int64(0); i < n; i++ {
		res := fm.result(t)
		if res.ID != i {
			t.Fatalf("result %d is for invocation %d", i, res.ID)
		}
		wantValue(t, res, minipy.Int(i+1))
		want.Elems = append(want.Elems, minipy.Int(i))
	}
	fm.invoke(t, n, "lib", "get")
	wantValue(t, fm.result(t), want)
}

// TestForkLibraryRunsAtMostItsSlots: 16 invocations handed to a fork
// library with 4 slots at once run 4 at a time, never more, and all
// return.
func TestForkLibraryRunsAtMostItsSlots(t *testing.T) {
	fm := newFakeManager(t)
	p := newProbe()
	w, env := startProbeWorker(t, fm, Config{ID: "w"}, p)
	fm.install(t, core.LibrarySpec{
		Name: "lib", Env: env, Mode: core.ExecFork, Slots: 4,
		Functions: []core.FunctionSpec{{Name: "gated", Source: gatedSource}},
	})
	const n = 16
	for i := int64(0); i < n; i++ {
		fm.invoke(t, i, "lib", "gated", minipy.Int(i))
	}
	// With all sixteen queued and nothing able to finish, every slot the
	// library will ever start has been started.
	fm.barrier(t)
	h := w.exec.libs["lib"]
	h.mu.Lock()
	slots := h.slots
	h.mu.Unlock()
	if slots != 4 {
		t.Errorf("%d slot goroutines started for 16 invocations, want the library's 4", slots)
	}
	eventually(t, "four invocations are running", func() bool { return p.inside.Load() == 4 })
	p.open()
	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		res := fm.result(t)
		wantValue(t, res, minipy.Int(res.ID))
		if seen[res.ID] {
			t.Fatalf("invocation %d answered twice", res.ID)
		}
		seen[res.ID] = true
	}
	if got := p.peak.Load(); got != 4 {
		t.Errorf("peak concurrency = %d, want exactly the library's 4 slots", got)
	}
}

// TestBlockedInvocationDelaysNothingElse is the executor's sibling of
// TestStalledFetchDoesNotBlockExecution: an invocation stuck inside one
// library holds up that library's queue and nothing else — not another
// library's invocations, not the control loop's own staging.
func TestBlockedInvocationDelaysNothingElse(t *testing.T) {
	fm := newFakeManager(t)
	p := newProbe()
	_, env := startProbeWorker(t, fm, Config{ID: "w"}, p)
	fm.install(t, core.LibrarySpec{Name: "stuck", Env: env, Functions: []core.FunctionSpec{{Name: "gated", Source: gatedSource}}})
	fm.install(t, core.LibrarySpec{Name: "free", Functions: []core.FunctionSpec{{Name: "inc", Source: "def inc(x):\n    return x + 1\n"}}})

	fm.invoke(t, 1, "stuck", "gated", minipy.Int(1))
	fm.invoke(t, 2, "stuck", "gated", minipy.Int(2))
	eventually(t, "the first invocation is inside the library", func() bool { return p.inside.Load() == 1 })

	fm.invoke(t, 3, "free", "inc", minipy.Int(41))
	if res := fm.result(t); res.ID != 3 {
		t.Fatalf("got invocation %d's result while invocation 1 was still blocked", res.ID)
	} else {
		wantValue(t, res, minipy.Int(42))
	}
	if ack := fm.put(t, content.NewBlob("blob", []byte("staged meanwhile")), true, false); !ack.Ok {
		t.Fatalf("put behind a blocked invocation: %+v", ack)
	}

	p.open()
	for _, id := range []int64{1, 2} {
		if res := fm.result(t); res.ID != id {
			t.Fatalf("got invocation %d, want %d", res.ID, id)
		}
	}
}

// TestRemoveLibraryAnswersWhatItAccepted: invocations queued when the
// removal frame arrives each get their one result; one arriving after
// it is told, retryably, that the library is gone.
func TestRemoveLibraryAnswersWhatItAccepted(t *testing.T) {
	fm := newFakeManager(t)
	p := newProbe()
	_, env := startProbeWorker(t, fm, Config{ID: "w"}, p)
	fm.install(t, core.LibrarySpec{Name: "lib", Env: env, Slots: 8, Functions: []core.FunctionSpec{{Name: "gated", Source: gatedSource}}})

	const queued = 6
	for i := int64(0); i < queued; i++ {
		fm.invoke(t, i, "lib", "gated", minipy.Int(i))
	}
	eventually(t, "the first invocation is inside the library", func() bool { return p.inside.Load() == 1 })
	if err := fm.conn.Send(proto.MsgRemoveLibrary, proto.RemoveLibrary{Library: "lib"}); err != nil {
		t.Fatal(err)
	}
	fm.invoke(t, 99, "lib", "gated", minipy.Int(99))
	late := fm.result(t)
	if late.ID != 99 || late.Ok || !late.Retryable || !strings.Contains(late.Err, "has no library") {
		t.Fatalf("invocation after the removal: %+v, want a retryable \"has no library\"", late)
	}

	p.open()
	for i := int64(0); i < queued; i++ {
		res := fm.result(t)
		if res.ID != i {
			t.Fatalf("result %d is for invocation %d", i, res.ID)
		}
		wantValue(t, res, minipy.Int(i))
	}
	// Exactly one each: the next frame is the answer to the next request.
	fm.runTaskOK(t, core.TaskSpec{ID: 100, Script: "import vine_runtime\nvine_runtime.store_result(0)\n", Resources: core.Resources{Cores: 1}})
}

// goroutinesBackTo waits for the goroutine count to come back down to
// what it was at before.
func goroutinesBackTo(t *testing.T, before int) {
	t.Helper()
	eventually(t, fmt.Sprintf("the goroutine count is back at %d", before), func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestRemovedLibraryGoroutinesEnd: a library's slot goroutines are gone
// once it has been removed and has served its queue.
func TestRemovedLibraryGoroutinesEnd(t *testing.T) {
	fm := newFakeManager(t)
	p := newProbe()
	_, env := startProbeWorker(t, fm, Config{ID: "w"}, p)
	before := runtime.NumGoroutine()
	fm.install(t, core.LibrarySpec{
		Name: "lib", Env: env, Mode: core.ExecFork, Slots: 4,
		Functions: []core.FunctionSpec{{Name: "gated", Source: gatedSource}},
	})
	for i := int64(0); i < 8; i++ {
		fm.invoke(t, i, "lib", "gated", minipy.Int(i))
	}
	eventually(t, "every slot is running", func() bool { return p.inside.Load() == 4 })
	if err := fm.conn.Send(proto.MsgRemoveLibrary, proto.RemoveLibrary{Library: "lib"}); err != nil {
		t.Fatal(err)
	}
	p.open()
	for i := 0; i < 8; i++ {
		if res := fm.result(t); !res.Ok {
			t.Fatalf("invocation %d: %+v", res.ID, res)
		}
	}
	goroutinesBackTo(t, before)
}

// TestShutdownDropsQueuedInvocations: Shutdown with one invocation
// running and five queued behind it ends the library's goroutine after
// the running one, the queue unserved, and Wait joins it.
func TestShutdownDropsQueuedInvocations(t *testing.T) {
	fm := newFakeManager(t)
	p := newProbe()
	w, env := startProbeWorker(t, fm, Config{ID: "w"}, p)
	before := runtime.NumGoroutine()
	fm.install(t, core.LibrarySpec{Name: "lib", Env: env, Slots: 8, Functions: []core.FunctionSpec{{Name: "gated", Source: gatedSource}}})
	for i := int64(0); i < 6; i++ {
		fm.invoke(t, i, "lib", "gated", minipy.Int(i))
	}
	eventually(t, "the first invocation is inside the library", func() bool { return p.inside.Load() == 1 })
	fm.barrier(t) // the other five are queued behind it
	w.Shutdown()
	p.open()
	waited := make(chan struct{})
	go func() {
		w.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after Shutdown with invocations queued")
	}
	if got := p.entered.Load(); got != 1 {
		t.Errorf("%d invocations ran, want only the one already running at Shutdown", got)
	}
	goroutinesBackTo(t, before)
}

// stepLimitLib has a function that never returns and one that takes a
// number of interpreter steps proportional to its argument.
func stepLimitLib(mode core.ExecMode) core.LibrarySpec {
	return core.LibrarySpec{Name: "lib", Mode: mode, Slots: 2, Functions: []core.FunctionSpec{
		{Name: "spin", Source: "def spin():\n    while True:\n        pass\n"},
		{Name: "count", Source: "def count(n):\n    i = 0\n    while i < n:\n        i = i + 1\n    return i\n"},
	}}
}

// TestStepLimitStopsRunawayInvocation: Config.StepLimit reaches library
// code. A runaway invocation fails — its own fault, not retryable —
// instead of holding its slot for ever, and the library serves the next
// one.
func TestStepLimitStopsRunawayInvocation(t *testing.T) {
	for _, mode := range []core.ExecMode{core.ExecDirect, core.ExecFork} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			fm := newFakeManager(t)
			startWorker(t, fm, Config{ID: "w", StepLimit: 10000})
			fm.install(t, stepLimitLib(mode))
			fm.invoke(t, 1, "lib", "spin")
			if res := fm.result(t); res.Ok || res.Retryable || !strings.Contains(res.Err, "step limit") {
				t.Fatalf("runaway invocation: %+v, want a non-retryable step limit failure", res)
			}
			fm.invoke(t, 2, "lib", "count", minipy.Int(10))
			wantValue(t, fm.result(t), minipy.Int(10))
		})
	}
}

// TestStepLimitIsPerInvocation: the budget restarts with each
// invocation. A direct library runs them all on one interpreter, whose
// step count must not add up across calls: ten calls of about half the
// limit each (count's loop takes seven steps an iteration).
func TestStepLimitIsPerInvocation(t *testing.T) {
	fm := newFakeManager(t)
	startWorker(t, fm, Config{ID: "w", StepLimit: 10000})
	fm.install(t, stepLimitLib(core.ExecDirect))
	for i := int64(0); i < 10; i++ {
		fm.invoke(t, i, "lib", "count", minipy.Int(700))
		wantValue(t, fm.result(t), minipy.Int(700))
	}
}
