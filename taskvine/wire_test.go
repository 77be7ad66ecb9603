package taskvine

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/modlib"
	"repro/internal/pickle"
	"repro/internal/worker"
)

// countingConn counts the bytes read from it: on a worker's control
// connection, everything the manager sent.
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// TestWarmL2CallsSendOnlyArguments holds the engine to the paper's
// definition of L2 — "only the arguments travel each time" — by
// counting manager→worker bytes: once the function and its environment
// are cached on the worker, a call costs its pickled arguments plus a
// constant (one staging header, one task frame naming three objects and
// carrying the wrapper script), however large the cached context is.
func TestWarmL2CallsSendOnlyArguments(t *testing.T) {
	m := newTestManager(t, 0, Options{})
	nc, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	link := &countingConn{Conn: nc}
	w := worker.New(worker.Config{ID: "counted", Registry: modlib.Standard(), SharedFS: m.SharedFS()})
	if err := w.Serve(link); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Shutdown)
	if err := m.inner.WaitForWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	env, err := m.Exec(appSource)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := FuncFrom(env, "classify_task")
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := m.WrapFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	context := len(wrapped.funcOby.Data) + len(wrapped.env.Data)

	call := func(seed int) {
		t.Helper()
		if _, err := m.SubmitWrappedCall(wrapped, core.L2, core.Resources{Cores: 1}, minipy.Int(int64(seed)), minipy.Int(2)); err != nil {
			t.Fatal(err)
		}
		res, err := m.Collect(1, collectTimeout)
		if err != nil || !res[0].Ok {
			t.Fatalf("call %d: %v %+v", seed, err, res)
		}
	}
	call(0) // cold: stages the function and the environment
	cold := link.read.Load()
	if cold < int64(context) {
		t.Fatalf("the cold call moved %d bytes, less than the %d-byte context it had to stage", cold, context)
	}

	const calls = 100
	argBytes := 0
	for i := 1; i <= calls; i++ {
		data, err := pickle.Marshal(minipy.NewTuple(minipy.Int(int64(i)), minipy.Int(2)))
		if err != nil {
			t.Fatal(err)
		}
		argBytes += len(data)
		call(i)
	}
	warm := link.read.Load() - cold
	// Per call: a bulk-frame header for the arguments (~150 bytes, mostly
	// the content ID), three object headers (~90 bytes each, likewise),
	// the wrapper script, framing.
	const perCall = 1024
	if limit := int64(argBytes + calls*perCall); warm > limit {
		t.Errorf("%d warm L2 calls moved %d bytes manager→worker for %d bytes of arguments; want at most %d (the cached context is %d bytes)",
			calls, warm, argBytes, limit, context)
	}
	t.Logf("cold call: %d bytes; warm calls: %d bytes each for %d bytes of arguments; context %d bytes",
		cold, warm/calls, argBytes/calls, context)
}
