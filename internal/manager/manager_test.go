package manager

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/modlib"
	"repro/internal/pickle"
	"repro/internal/proto"
	"repro/internal/worker"

	"repro/internal/minipy"
)

// harness wires a manager with n real workers over TCP.
type harness struct {
	m       *Manager
	addr    string
	workers []*worker.Worker
}

func newHarness(t *testing.T, n int, opts Options) *harness {
	t.Helper()
	m := New(opts)
	addr, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{m: m, addr: addr}
	t.Cleanup(func() {
		m.Shutdown()
		for _, w := range h.workers {
			w.Shutdown()
		}
	})
	for i := 0; i < n; i++ {
		h.addWorker(t, fmt.Sprintf("w%02d", i))
	}
	if err := m.WaitForWorkers(n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *harness) addWorker(t *testing.T, id string) *worker.Worker {
	t.Helper()
	w := worker.New(worker.Config{ID: id, Registry: modlib.Standard()})
	if err := w.Connect(h.addr); err != nil {
		t.Fatal(err)
	}
	h.workers = append(h.workers, w)
	return w
}

// simpleTask builds a task whose script stores a constant result.
func simpleTask(tag string) *core.TaskSpec {
	script := fmt.Sprintf(`
import vine_runtime
vine_runtime.store_result(%q)
`, tag)
	return &core.TaskSpec{Script: script, Resources: core.Resources{Cores: 1}}
}

func decodeStr(t *testing.T, res core.Result) string {
	t.Helper()
	if !res.Ok {
		t.Fatalf("result failed: %s", res.Err)
	}
	v, err := pickle.Unmarshal(res.Value, minipy.NewInterp(nil))
	if err != nil {
		t.Fatal(err)
	}
	return minipy.ToStr(v)
}

func TestTaskRoundTrip(t *testing.T) {
	h := newHarness(t, 1, Options{PeerTransfers: true})
	id := h.m.Submit(simpleTask("hello"))
	results, err := h.m.Collect(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != id || decodeStr(t, results[0]) != "hello" {
		t.Errorf("result = %+v", results[0])
	}
	if st := h.m.Stats(); st.TasksDone != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestManyTasksAcrossWorkers(t *testing.T) {
	h := newHarness(t, 3, Options{PeerTransfers: true})
	const n = 30
	for i := 0; i < n; i++ {
		h.m.Submit(simpleTask(fmt.Sprintf("t%d", i)))
	}
	results, err := h.m.Collect(n, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	byWorker := map[string]int{}
	for _, r := range results {
		seen[decodeStr(t, r)] = true
		byWorker[r.Metrics.WorkerID]++
	}
	if len(seen) != n {
		t.Errorf("got %d distinct results", len(seen))
	}
	if len(byWorker) < 2 {
		t.Errorf("all tasks ran on one worker: %v", byWorker)
	}
}

func TestWorkerCrashRequeuesWork(t *testing.T) {
	h := newHarness(t, 2, Options{PeerTransfers: true})
	// A slow task: loops enough to still be running when we kill its
	// worker.
	slow := &core.TaskSpec{
		Script: `
import vine_runtime
total = 0
for i in range(300000):
    total += i
vine_runtime.store_result(total)
`,
		Resources: core.Resources{Cores: 1},
	}
	for i := 0; i < 6; i++ {
		h.m.Submit(slow)
		slow = &core.TaskSpec{Script: slow.Script, Resources: slow.Resources}
	}
	// Kill one worker quickly; its in-flight tasks must requeue and
	// finish on the survivor.
	time.Sleep(20 * time.Millisecond)
	h.workers[0].Shutdown()
	results, err := h.m.Collect(6, 30*time.Second)
	if err != nil {
		t.Fatalf("collect after crash: %v (stats %+v)", err, h.m.Stats())
	}
	for _, r := range results {
		if !r.Ok {
			t.Errorf("post-crash result failed: %s", r.Err)
		}
	}
}

func TestLibraryLifecycleAndEviction(t *testing.T) {
	h := newHarness(t, 1, Options{PeerTransfers: true, EvictEmptyLibraries: true})
	mkLib := func(name, tag string) *core.LibrarySpec {
		return &core.LibrarySpec{
			Name: name,
			Functions: []core.FunctionSpec{{
				Name:   "f",
				Source: fmt.Sprintf("def f(x):\n    return %q + str(x)\n", tag),
			}},
			Slots: 1,
		}
	}
	if err := h.m.RegisterLibrary(mkLib("liba", "a")); err != nil {
		t.Fatal(err)
	}
	if err := h.m.RegisterLibrary(mkLib("libb", "b")); err != nil {
		t.Fatal(err)
	}
	if err := h.m.RegisterLibrary(mkLib("liba", "a")); err == nil {
		t.Errorf("duplicate registration should fail")
	}

	call := func(lib string, arg int64) string {
		args, _ := pickle.Marshal(minipy.NewTuple(minipy.Int(arg)))
		h.m.SubmitInvocation(&core.InvocationSpec{Library: lib, Function: "f", Args: args})
		results, err := h.m.Collect(1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return decodeStr(t, results[0])
	}
	if got := call("liba", 1); got != "a1" {
		t.Errorf("liba f(1) = %q", got)
	}
	// libb needs the whole worker: liba's idle instance must be evicted.
	if got := call("libb", 2); got != "b2" {
		t.Errorf("libb f(2) = %q", got)
	}
	st := h.m.Stats()
	if st.LibrariesEvicted != 1 || st.LibrariesDeployed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInvocationValidation(t *testing.T) {
	h := newHarness(t, 1, Options{PeerTransfers: true})
	if err := h.m.RegisterLibrary(&core.LibrarySpec{Name: "lib"}); err == nil {
		t.Errorf("empty library should be rejected")
	}
	if err := h.m.RegisterLibrary(&core.LibrarySpec{
		Functions: []core.FunctionSpec{{Name: "f", Source: "def f():\n    pass\n"}},
	}); err == nil {
		t.Errorf("nameless library should be rejected")
	}
	lib := &core.LibrarySpec{
		Name:      "lib",
		Functions: []core.FunctionSpec{{Name: "f", Source: "def f(x):\n    return x\n"}},
	}
	if err := h.m.RegisterLibrary(lib); err != nil {
		t.Fatal(err)
	}
	h.m.SubmitInvocation(&core.InvocationSpec{Library: "lib", Function: "nope"})
	results, err := h.m.Collect(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Ok || !strings.Contains(results[0].Err, "no function") {
		t.Errorf("expected unknown-function failure: %+v", results[0])
	}
}

func TestFileDistributionDedup(t *testing.T) {
	h := newHarness(t, 1, Options{PeerTransfers: true})
	// Two tasks share a cacheable input: the manager must send it once.
	shared := content.NewDataset("big.bin", []byte("shared dataset"), 1<<20)
	mk := func() *core.TaskSpec {
		return &core.TaskSpec{
			Script: `
import vine_runtime
vine_runtime.store_result(vine_runtime.load_text("big.bin"))
`,
			Inputs:    []core.FileSpec{{Object: shared, Cache: true, PeerTransfer: true}},
			Resources: core.Resources{Cores: 1},
		}
	}
	h.m.Submit(mk())
	if _, err := h.m.Collect(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	before := h.m.Stats().DirectTransfers
	h.m.Submit(mk())
	if _, err := h.m.Collect(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	after := h.m.Stats().DirectTransfers
	if after != before {
		t.Errorf("shared cached input re-sent: %d -> %d transfers", before, after)
	}
	if h.m.ObjectHolders(shared) != 1 {
		t.Errorf("holders = %d", h.m.ObjectHolders(shared))
	}
}

func TestLateWorkerPicksUpPendingWork(t *testing.T) {
	m := New(Options{PeerTransfers: true})
	addr, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	// Submit before any worker exists.
	m.Submit(simpleTask("late"))
	time.Sleep(20 * time.Millisecond)
	w := worker.New(worker.Config{ID: "late-worker", Registry: modlib.Standard()})
	if err := w.Connect(addr); err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	results, err := m.Collect(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if decodeStr(t, results[0]) != "late" {
		t.Errorf("late result wrong")
	}
}

// TestWaitForWorkersWakesOnJoin: a waiter parked on one more worker
// returns nil once that worker joins, woken by the join itself — the
// manager's own registration step (adoptWorker, as serveWorker calls it
// after the Hello). The test asserts order, not latency: it once
// required 18 of 20 wakeups within 1 ms of the join, and failed 17 runs
// in 20 beside two other -race binaries on two vCPUs, because how soon a
// woken goroutine runs is the Go scheduler's business, not the
// manager's. A join that does not wake the waiter leaves it parked
// until its timeout, which fails the test.
func TestWaitForWorkersWakesOnJoin(t *testing.T) {
	h := newHarness(t, 0, Options{})
	stacks := make([]byte, 1<<20)
	for i := 0; i < 20; i++ {
		woke := make(chan error, 1)
		go func(n int) { woke <- h.m.WaitForWorkers(n, 10*time.Second) }(i + 1)
		// A join before the waiter parks would test nothing.
		for !parkedIn(stacks, "(*Manager).WaitForWorkers") {
			select {
			case err := <-woke:
				t.Fatalf("WaitForWorkers(%d) returned before the join: %v", i+1, err)
			default:
				runtime.Gosched()
			}
		}
		id := fmt.Sprintf("w%02d", i)
		w := &workerState{
			id:         id,
			hello:      proto.Hello{WorkerID: id, Resources: core.Resources{Cores: 1}},
			conn:       linkConn(16),
			ackWaiters: map[string]waiters{},
		}
		if !h.m.adoptWorker(w) {
			t.Fatalf("adoptWorker(%s) refused", id)
		}
		if err := <-woke; err != nil {
			t.Fatalf("WaitForWorkers(%d) after the join: %v", i+1, err)
		}
	}
}

// parkedIn reports whether a goroutine is blocked in a select inside the
// function whose name ends in fn, reading every goroutine's stack into
// buf.
func parkedIn(buf []byte, fn string) bool {
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, " [select") && strings.Contains(g, fn+"(") {
			return true
		}
	}
	return false
}

// TestWaitForWorkersConcurrentJoins: waiters for every count from 1 to
// 8 all return nil while eight workers connect at once — no join's
// wakeup is lost between a waiter's count check and its block.
func TestWaitForWorkersConcurrentJoins(t *testing.T) {
	h := newHarness(t, 0, Options{})
	const n = 8
	errs := make(chan error, n)
	for k := 1; k <= n; k++ {
		go func(k int) { errs <- h.m.WaitForWorkers(k, 10*time.Second) }(k)
	}
	workers := make([]*worker.Worker, n)
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = worker.New(worker.Config{ID: fmt.Sprintf("w%02d", i), Registry: modlib.Standard()})
		wg.Add(1)
		go func(w *worker.Worker) {
			defer wg.Done()
			if err := w.Connect(h.addr); err != nil {
				t.Error(err)
			}
		}(workers[i])
	}
	wg.Wait()
	h.workers = append(h.workers, workers...)
	for k := 0; k < n; k++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestWaitForWorkersTimesOut: with too few workers the wait ends at its
// timeout and says how many did connect.
func TestWaitForWorkersTimesOut(t *testing.T) {
	h := newHarness(t, 1, Options{})
	err := h.m.WaitForWorkers(2, 20*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "only 1 of 2 workers connected") {
		t.Fatalf("WaitForWorkers(2) with 1 worker = %v, want a timeout naming 1 of 2", err)
	}
}

// TestShutdownWakesWorkerWaiters: a waiter blocked on workers that will
// never come returns a closed error as soon as the manager shuts down,
// not at the end of its timeout.
func TestShutdownWakesWorkerWaiters(t *testing.T) {
	h := newHarness(t, 1, Options{})
	errs := make(chan error, 1)
	go func() { errs <- h.m.WaitForWorkers(2, 10*time.Second) }()
	h.m.Shutdown()
	select {
	case err := <-errs:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("WaitForWorkers after Shutdown = %v, want a closed error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitForWorkers still blocked 2s after Shutdown")
	}
}

// TestStatsReportsEveryCounter sets each counter to a distinct value and
// expects Stats to report it under the field of the same name, so a
// counter added to the store but not to the snapshot fails here. A Stats
// field with no counter must be one Stats reads from the scheduler.
func TestStatsReportsEveryCounter(t *testing.T) {
	m := New(Options{Shards: 1})
	ctr := reflect.ValueOf(&m.ctr).Elem()
	for i := 0; i < ctr.NumField(); i++ {
		ctr.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(1000 + i))
	}
	st := reflect.ValueOf(m.Stats())
	for i := 0; i < ctr.NumField(); i++ {
		name := ctr.Type().Field(i).Name
		if f := st.FieldByName(name); !f.IsValid() {
			t.Errorf("counter %s has no Stats field", name)
		} else if f.Int() != int64(1000+i) {
			t.Errorf("Stats().%s = %d, want %d", name, f.Int(), 1000+i)
		}
	}
	fromScheduler := map[string]bool{"SchedulePasses": true, "CoalescedWakeups": true, "ShardForwards": true, "FairDrains": true}
	for i := 0; i < st.NumField(); i++ {
		name := st.Type().Field(i).Name
		if _, ok := ctr.Type().FieldByName(name); !ok && !fromScheduler[name] {
			t.Errorf("Stats().%s has no counter behind it", name)
		}
	}
}
