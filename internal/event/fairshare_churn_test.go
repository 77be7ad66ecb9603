package event

import "testing"

// TestFairShareStaleCancelRecycled pins the handle-safety contract the
// manager's transfer teardown relies on: a Flow handle kept past its
// flow's completion must cancel nothing — not before the node is
// recycled (dead flag) and, critically, not after a later Start reuses
// the node (generation check). A regression here would let worker-death
// cleanup silently kill an unrelated tenant's in-flight transfer.
func TestFairShareStaleCancelRecycled(t *testing.T) {
	s := NewSim()
	fs := NewFairShare(s, 100, 0)

	fired := 0
	h1 := fs.Start(100, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("first flow fired %d times, want 1", fired)
	}
	// Completed node sits on the free list: stale Cancel is a no-op.
	fs.Cancel(h1)
	if fs.Active() != 0 {
		t.Fatalf("stale Cancel disturbed the empty resource: Active=%d", fs.Active())
	}

	// The next Start reuses the node under a bumped generation; the old
	// handle must not reach through to the new flow.
	h2 := fs.Start(100, func() { fired++ })
	if h2.n != h1.n {
		t.Fatalf("free list did not recycle the node (got %p, want %p)", h2.n, h1.n)
	}
	if h2.gen == h1.gen {
		t.Fatal("recycled node kept its generation; stale handles would alias")
	}
	fs.Cancel(h1)
	if fs.Active() != 1 {
		t.Fatalf("stale Cancel killed the recycled flow: Active=%d, want 1", fs.Active())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("recycled flow fired %d completions total, want 2", fired)
	}
	// And the genuinely live handle still cancels cleanly.
	h3 := fs.Start(100, func() { fired++ })
	fs.Cancel(h3)
	s.Run()
	if fired != 2 || fs.Active() != 0 {
		t.Fatalf("live Cancel failed: fired=%d Active=%d", fired, fs.Active())
	}
}

// TestFairShareCancelChurn drives a random mix of starts, partial
// advances, live cancels, and repeated stale cancels (handles are kept
// forever and re-cancelled long after completion and recycling),
// checking exact completion bookkeeping: every flow either completes
// once or was cancelled while live, never both, and stale cancels
// never change the outcome of the node's next occupant.
func TestFairShareCancelChurn(t *testing.T) {
	const (
		statePending = iota
		stateDone
		stateCancelled
	)
	s := NewSim()
	fs := NewFairShare(s, 50, 30)
	rng := NewRNG(11)

	var handles []Flow
	var state []int
	start := func() {
		i := len(state)
		state = append(state, statePending)
		handles = append(handles, fs.Start(1+199*rng.Float64(), func() {
			if state[i] != statePending {
				t.Fatalf("flow %d completed from state %d", i, state[i])
			}
			state[i] = stateDone
		}))
	}
	// The rounds run as events: a round that waits lets the flows run
	// until the next round is due.
	var rounds func(round int)
	rounds = func(round int) {
		for ; round < 400; round++ {
			switch rng.Intn(4) {
			case 0, 1:
				start()
			case 2:
				// Cancel a uniformly random handle from the full history —
				// mostly stale (done or already cancelled), sometimes live.
				if len(handles) > 0 {
					i := rng.Intn(len(handles))
					fs.Cancel(handles[i])
					if state[i] == statePending {
						state[i] = stateCancelled
					}
				}
			default:
				next := round + 1
				s.After(3*rng.Float64(), func() { rounds(next) })
				return
			}
		}
	}
	rounds(0)
	s.Run()
	if fs.Active() != 0 {
		t.Fatalf("flows still active after drain: %d", fs.Active())
	}
	done, cancelled := 0, 0
	for i, st := range state {
		switch st {
		case stateDone:
			done++
		case stateCancelled:
			cancelled++
		default:
			t.Errorf("flow %d neither completed nor cancelled", i)
		}
	}
	if done == 0 || cancelled == 0 {
		t.Fatalf("degenerate churn: done=%d cancelled=%d", done, cancelled)
	}
}
