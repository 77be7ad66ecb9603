package manager

// The lock-free submit intake end to end: the intake itself (the
// Treiber stack, its per-producer FIFO order against a mutex reference)
// is held to its contract in shardplane's own tests; here the manager's
// submit path must lose no wakeup racing a running loop's exit.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestIntakeNoLostWakeup hammers SubmitInvocation from many goroutines
// against a live (workerless) manager: every submission must come back
// as a validation failure even when its wake raced a running loop's
// exit. A lost wakeup strands invocations in the intake stack and
// times this test out.
func TestIntakeNoLostWakeup(t *testing.T) {
	m := NewDefault()
	defer m.Shutdown()
	const producers, perProducer = 8, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				m.SubmitInvocation(&core.InvocationSpec{Library: "no-such-library"})
			}
		}()
	}
	wg.Wait()
	res, err := m.Collect(producers*perProducer, 30*time.Second)
	if err != nil {
		t.Fatalf("collect: %v (got %d results)", err, len(res))
	}
	for _, r := range res {
		if r.Ok {
			t.Fatalf("invocation %d of an unknown library reported success", r.ID)
		}
	}
}
