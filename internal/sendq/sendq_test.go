package sendq

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

type item struct{ producer, seq int }

// stress runs producers goroutines of perProducer items each into q
// through push, against one consumer draining with Drain, and checks
// that every item arrives exactly once and in its producer's order, and
// that no Drain hands on an empty batch. A lost wakeup leaves the
// consumer parked with items queued, and the test fails at its deadline
// instead of hanging.
func stress(t *testing.T, q *Queue[item], producers, perProducer int, push func(item) bool) {
	t.Helper()
	stop := make(chan struct{})
	next := make([]int, producers)
	got, total := 0, producers*perProducer
	finished := make(chan error, 1)
	go func() {
		put := func(it item) error {
			if it.seq != next[it.producer] {
				return errors.New("out of order")
			}
			next[it.producer]++
			got++
			if got%97 == 0 {
				runtime.Gosched() // let producers refill mid-batch
			}
			return nil
		}
		for got < total {
			n, err := q.Drain(stop, put)
			if err != nil {
				finished <- err
				return
			}
			if n == 0 {
				finished <- errors.New("drain handed on an empty batch or stopped early")
				return
			}
		}
		finished <- nil
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				if !push(item{p, k}) {
					t.Errorf("producer %d: item %d refused", p, k)
					return
				}
				if k%(p+3) == 0 {
					runtime.Gosched()
				}
			}
		}(p)
	}
	select {
	case err := <-finished:
		if err != nil {
			t.Fatalf("after %d of %d items: %v", got, total, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("consumer still waiting after 30 s with items outstanding: a lost wakeup")
	}
	wg.Wait()
	close(stop)
	if n, err := q.Drain(stop, func(item) error { return nil }); n != 0 || err != nil {
		t.Errorf("Drain after stop = %d, %v; want 0, nil", n, err)
	}
	for p, n := range next {
		if n != perProducer {
			t.Errorf("producer %d: %d items delivered, want %d", p, n, perProducer)
		}
	}
}

// A small bound makes producers wait for room over and over: every take
// must release them, or they wait forever.
func TestStressPushWaitsForRoom(t *testing.T) {
	q := New[item](16)
	stress(t, q, 8, 5000, func(it item) bool { return q.Push(it, nil) })
}

func TestStressTryPush(t *testing.T) {
	const producers, perProducer = 8, 5000
	q := New[item](producers * perProducer)
	stress(t, q, producers, perProducer, q.TryPush)
}

// Ping-pong: each push lands in an empty queue, so each needs its own
// wake token; one missing leaves the consumer parked for good.
func TestEveryPushIntoAnEmptyQueueWakes(t *testing.T) {
	q := New[int](4)
	stop := make(chan struct{})
	defer close(stop)
	got := make(chan int)
	go func() {
		for {
			if n, _ := q.Drain(stop, func(v int) error { got <- v; return nil }); n == 0 {
				return
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		q.TryPush(i)
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("got %d, want %d", v, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("push %d into an empty queue never woke the consumer", i)
		}
	}
}

func TestTryPushRefusesAtLimit(t *testing.T) {
	q := New[int](3)
	for i := 0; i < 3; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d refused below the limit", i)
		}
	}
	if q.TryPush(3) {
		t.Fatal("push accepted past the limit")
	}
	if got := q.Take(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Take = %v, want [0 1 2]", got)
	}
	if !q.TryPush(3) {
		t.Fatal("push refused after a take emptied the queue")
	}
}

// Push never queues once stop is closed, even with room to spare: a
// closed stop is not a race it can lose.
func TestPushAfterStopQueuesNothing(t *testing.T) {
	q := New[int](1024)
	stop := make(chan struct{})
	close(stop)
	for i := 0; i < 1000; i++ {
		if q.Push(i, stop) {
			t.Fatalf("push %d queued after stop", i)
		}
	}
	if got := q.Take(); len(got) != 0 {
		t.Fatalf("%d items queued after stop", len(got))
	}
}

func TestPushWaitingForRoomGivesUpOnStop(t *testing.T) {
	q := New[int](1)
	q.Push(0, nil)
	stop := make(chan struct{})
	pushed := make(chan bool)
	go func() { pushed <- q.Push(1, stop) }()
	for waiting := false; !waiting; runtime.Gosched() {
		q.mu.Lock()
		waiting = q.room != nil // the push found the queue full
		q.mu.Unlock()
	}
	close(stop)
	if <-pushed {
		t.Fatal("a push waiting for room queued after stop")
	}
	if got := q.Take(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Take = %v, want [0]", got)
	}
}

// Drain hands on put's first error, drops the rest of that batch, and
// keeps no reference to anything it handed on or dropped.
func TestDrainStopsAtErrorAndKeepsNothing(t *testing.T) {
	q := New[*int](8)
	for i := 0; i < 4; i++ {
		v := i
		q.TryPush(&v)
	}
	boom := errors.New("boom")
	n, err := q.Drain(nil, func(p *int) error {
		if *p == 2 {
			return boom
		}
		return nil
	})
	if n != 2 || err != boom {
		t.Fatalf("Drain = %d, %v; want 2, boom", n, err)
	}
	for i, p := range q.spare[:cap(q.spare)] {
		if p != nil {
			t.Fatalf("recycled batch still holds item %d", i)
		}
	}
	if got := q.Take(); len(got) != 0 {
		t.Fatalf("%d items left after the failed batch", len(got))
	}
}

// Two arrays alternate between the producers and the consumer: once both
// have grown, a steady stream allocates nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	q := New[int](64)
	put := func(int) error { return nil }
	cycle := func() {
		for i := 0; i < 32; i++ {
			q.TryPush(i)
		}
		q.Drain(nil, put)
	}
	cycle()
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("%v allocations per push-and-drain cycle, want 0", a)
	}
}
