package taskvine

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
)

// raceDetector is set under -race (race_test.go), where sync.Pool drops
// some of what it is given and the engine's pooled encoders, decoders
// and intake nodes are then allocated.
var raceDetector bool

// installEcho installs lib, one function that returns its argument.
func installEcho(t *testing.T, m *Manager, lib string, opts LibraryOptions) {
	t.Helper()
	env, err := m.Exec("def echo(x):\n    return x\n")
	if err != nil {
		t.Fatal(err)
	}
	l, err := m.CreateLibraryFromFunctions(lib, opts, env, "echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallLibrary(l); err != nil {
		t.Fatal(err)
	}
}

// TestInvocationLedger holds the engine to its share of the
// per-invocation allocation ledger (DESIGN.md §13): a warm L3 call on an
// in-process manager and worker allocates the block holding its spec
// and argument bytes, the worker's boxed argument and the manager's copy
// of the result the caller keeps — 3 — and nothing else. The tolerance,
// 0.1 a call, is for what the engine allocates now and then rather than
// per call: pooled encoders, decoders and intake nodes made again after a
// collection empties the pools, or when a busy machine moves a goroutine
// to a P whose pool is empty, and a queue growing to a longer batch.
// Quiet runs read 3.000–3.010 and runs beside other test binaries up to
// 3.03; one allocation more per call reads 4.
func TestInvocationLedger(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops encoders, decoders and intake nodes under -race")
	}
	const (
		calls, burst = 20_000, 1_000
		ledger       = 3
		tolerance    = 0.1
	)
	m := newTestManager(t, 1, Options{})
	installEcho(t, m, "ledger", LibraryOptions{})
	// Boxed once, as a caller holding its arguments has them; outside
	// 0–255, so the worker boxes the copy it decodes.
	arg := minipy.Value(minipy.Int(1234567890123))
	results := m.Results()
	deadline := time.NewTimer(time.Minute)
	defer deadline.Stop()
	run := func(n int) {
		for sent := 0; sent < n; sent += burst {
			for i := 0; i < burst; i++ {
				if _, err := m.Call("ledger", "echo", arg); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < burst; i++ {
				select {
				case res := <-results:
					if !res.Ok {
						t.Fatalf("call %d failed: %s", res.ID, res.Err)
					}
				case <-deadline.C:
					t.Fatal("the calls did not complete in a minute")
				}
			}
		}
	}
	run(2 * burst) // deploy the library and grow every queue to a burst
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(calls)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("%.4f allocations per call, %d calls in all", per, 2*burst+calls) // scripts/allocs.sh reads both
	if per > ledger+tolerance {
		t.Errorf("a warm call allocates %.4f times, want at most %d (+%.2f)", per, ledger, tolerance)
	}
}

// TestWrappedCallLedger pins what a warm stateless task costs: an L2
// wrapped call (SubmitWrappedCall → wrapper task → load_pickle of the
// cached function and of its arguments) on an in-process manager and
// worker. The worker parsed the wrapper script and the function's source
// in the warm-up, its task frames decode through the control loop's
// Interner, and vine_runtime and the universal builtins are built once
// per process, so what is left is the task's own context reload —
// unpickling and rebuilding the function, importing vine_runtime into
// fresh globals, the call, staging and releasing the arguments — and the
// manager's dispatch of the task and its argument object. Quiet runs
// read 43.0–43.1, where parsing both texts on every call read 152,
// building vine_runtime and the builtins per task 97, the engine's
// scaffolding around the script 64 (an interpreter and module map per
// task, a staging map per dispatch, a header object per decoded input,
// two closures to start the task, a boxed ack, empty capture maps and a
// copied source per unpickle) and a bulk frame's header boxed into a
// queued Go value 44. The tolerance, 1 a call, admits pools
// refilled and queues grown now and then; any parse or module build per
// call is far outside it.
func TestWrappedCallLedger(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops encoders, decoders and intake nodes under -race")
	}
	const (
		calls, burst = 2_000, 16
		ledger       = 43
		tolerance    = 1
	)
	m := newTestManager(t, 1, Options{})
	env, err := m.Exec("def scale(x):\n    return x * 3 + 1\n")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := FuncFrom(env, "scale")
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	results := m.Results()
	deadline := time.NewTimer(time.Minute)
	defer deadline.Stop()
	next := int64(1000) // outside 0–255: every argument is boxed
	run := func(n int) {
		for sent := 0; sent < n; sent += burst {
			for i := 0; i < burst; i++ {
				next++
				if _, err := m.SubmitWrappedCall(wrapped, core.L2, core.Resources{Cores: 1}, minipy.Int(next)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < burst; i++ {
				select {
				case res := <-results:
					if !res.Ok {
						t.Fatalf("call %d failed: %s", res.ID, res.Err)
					}
				case <-deadline.C:
					t.Fatal("the calls did not complete in a minute")
				}
			}
		}
	}
	run(10 * burst) // stage the function and parse both texts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(calls)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("%.2f allocations per wrapped call, %d calls in all", per, 10*burst+calls) // scripts/allocs.sh reads both
	if per > ledger+tolerance {
		t.Errorf("a warm wrapped call allocates %.2f times, want at most %d (+%d)", per, ledger, tolerance)
	}
}

// TestCallAllocatesOnce: Call pickles its arguments into the block that
// holds their spec, and submits it: one allocation while the arguments
// fit the block, and one more, their own, once they do not. The block
// is no larger than the spec and a 16-byte argument allocation were.
func TestCallAllocatesOnce(t *testing.T) {
	if size := reflect.TypeOf(invocation{}).Size(); size > 96 {
		t.Errorf("the spec block is %d bytes, want at most 96", size)
	}
	if raceDetector {
		t.Skip("sync.Pool drops encoders and intake nodes under -race")
	}
	m := newTestManager(t, 0, Options{}) // no worker: every call waits in its queue
	installEcho(t, m, "lib", LibraryOptions{})
	for _, c := range []struct {
		size int
		want float64
	}{{inlineArgs, 1}, {inlineArgs + 1, 2}} {
		arg := minipy.Value(minipy.Str(strings.Repeat("a", c.size-6))) // a one-string tuple pickles to 6 bytes more
		if data, err := pickle.MarshalTuple([]minipy.Value{arg}); err != nil || len(data) != c.size {
			t.Fatalf("arguments of %d bytes, want %d (%v)", len(data), c.size, err)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := m.Call("lib", "echo", arg); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("a call with %d bytes of arguments allocated %v times, want %v", c.size, n, c.want)
		}
	}
}

// TestPayloadsEchoAcrossInlineCapacity: arguments and results one byte
// under, at and over the capacity the engine's records carry inline
// (inlineArgs on the client; the worker's queue entries, slot buffers and
// result frames hold as many) arrive byte-identical, each through the
// path its size takes.
func TestPayloadsEchoAcrossInlineCapacity(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	installEcho(t, m, "echo", LibraryOptions{})
	// A string of n bytes pickles to n+6 bytes as a one-argument tuple and
	// to n+4 as a result.
	var lengths []int
	for _, size := range []int{inlineArgs - 1, inlineArgs, inlineArgs + 1} {
		lengths = append(lengths, size-6, size-4)
	}
	want := map[int64][]byte{}
	for i, n := range lengths {
		s := strings.Repeat(string(rune('a'+i)), n)
		value, err := pickle.Marshal(minipy.Str(s))
		if err != nil {
			t.Fatal(err)
		}
		id, err := m.Call("echo", "echo", minipy.Str(s))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = value
	}
	results, err := m.Collect(len(want), collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Ok || !bytes.Equal(res.Value, want[res.ID]) {
			t.Errorf("call %d: %x (%s), want %x", res.ID, res.Value, res.Err, want[res.ID])
		}
	}
}

// TestForkSlotsKeepTheirResults: sixteen fork slots of one library serve
// calls at once, each pickling its result into a buffer it reuses for
// its next call. No result may carry another call's bytes — short ones
// copied out of a slot's buffer, long ones handed on as they are.
func TestForkSlotsKeepTheirResults(t *testing.T) {
	m := newTestManager(t, 1, Options{})
	installEcho(t, m, "fork", LibraryOptions{Slots: 16, Mode: core.ExecFork})
	const calls = 2_000
	want := make(map[int64][]byte, calls)
	for i := 0; i < calls; i++ {
		// Distinct values of both sizes: an int, and a string past the
		// inline capacity.
		var v minipy.Value = minipy.Int(1_000_000 + i)
		if i%4 == 0 {
			v = minipy.Str(fmt.Sprintf("%0*d", inlineArgs, i))
		}
		value, err := pickle.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		id, err := m.Call("fork", "echo", v)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = value
	}
	results, err := m.Collect(calls, collectTimeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.Ok || !bytes.Equal(res.Value, want[res.ID]) {
			t.Fatalf("call %d: %x (%s), want %x", res.ID, res.Value, res.Err, want[res.ID])
		}
	}
}
