package core

import "testing"

// TestFIFOStaysSmallWhenNeverEmpty: a queue served as fast as it is
// filled but never quite empty — a busy library's invocations, a
// quota-gated tenant's specs — must stay FIFO without its slice growing
// with the number served.
func TestFIFOStaysSmallWhenNeverEmpty(t *testing.T) {
	var q FIFO[int64]
	next, want := int64(0), int64(0)
	push := func() {
		q.Push(next)
		next++
	}
	pop := func() {
		t.Helper()
		if got, ok := q.Pop(); !ok || got != want {
			t.Fatalf("popped %d (ok=%v), want %d", got, ok, want)
		}
		want++
	}
	for depth := 1; depth <= 5; depth++ {
		push() // one deeper each round
		for i := 0; i < 10000; i++ {
			push()
			pop()
		}
		if q.Len() != depth {
			t.Fatalf("Len = %d, want %d", q.Len(), depth)
		}
		if c := q.Cap(); c > 4*(depth+1) {
			t.Fatalf("queue of depth %d holds a slice of capacity %d after 10000 served", depth, c)
		}
	}
	for q.Len() > 0 {
		pop()
	}
	if want != next {
		t.Errorf("popped %d items, pushed %d", want, next)
	}
	if v, ok := q.Pop(); ok || v != 0 {
		t.Errorf("Pop on an empty queue = %d, %v; want 0, false", v, ok)
	}
}
