package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// The outbound queue's tests. A loopback connection reads what it writes:
// its writer (Drain or Flush) writes the queue into a buffer that the same
// goroutine then reads frames back from, so a test sees exactly what
// reached the wire, write by write.

func loopback() *Conn { return NewConn(new(bytes.Buffer)) }

// item is the frame the stress tests queue: a Hello whose resources carry
// its producer and its sequence number.
func item(producer, seq int) Hello {
	return Hello{Resources: core.Resources{Cores: producer, MemoryMB: int64(seq)}}
}

// readBack reads every frame the last write put into c's buffer.
func readBack(t *testing.T, c *Conn) []Hello {
	t.Helper()
	var out []Hello
	for {
		mt, raw, err := c.Recv()
		if err == io.EOF {
			return out
		}
		if err != nil || mt != MsgHello {
			t.Errorf("read back %v (%v)", mt, err)
			return out
		}
		h, err := DecodeHello(raw)
		if err != nil {
			t.Errorf("decoding a written frame: %v", err)
		}
		out = append(out, h)
	}
}

// stress runs producers goroutines of perProducer frames each into c
// through push, against one writer draining c with Drain, and checks that
// every frame arrives exactly once and in its producer's order, and that
// no Drain reports an empty write or a count other than what it wrote. A
// lost wakeup leaves the writer parked with frames queued, and the test
// fails at its deadline instead of hanging.
func stress(t *testing.T, c *Conn, producers, perProducer int, push func(Hello) error) {
	t.Helper()
	stop := make(chan struct{})
	next := make([]int, producers)
	got, total := 0, producers*perProducer
	finished := make(chan error, 1)
	go func() {
		for got < total {
			n, err := c.Drain(stop)
			if err != nil {
				finished <- err
				return
			}
			if n == 0 {
				finished <- errors.New("drain reported an empty write or stopped early")
				return
			}
			frames := readBack(t, c)
			if len(frames) != n {
				finished <- fmt.Errorf("drain reported %d frames and wrote %d", n, len(frames))
				return
			}
			for _, h := range frames {
				p, seq := h.Resources.Cores, int(h.Resources.MemoryMB)
				if seq != next[p] {
					finished <- fmt.Errorf("producer %d: frame %d arrived where %d was due", p, seq, next[p])
					return
				}
				next[p]++
				if got++; got%97 == 0 {
					runtime.Gosched() // let producers refill mid-read
				}
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
				if err := push(item(p, k)); err != nil {
					t.Errorf("producer %d: frame %d refused: %v", p, k, err)
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
			t.Fatalf("after %d of %d frames: %v", got, total, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writer still waiting after 30 s with frames outstanding: a lost wakeup")
	}
	wg.Wait()
	close(stop)
	if n, err := c.Drain(stop); n != 0 || err != nil {
		t.Errorf("Drain after stop = %d, %v; want 0, nil", n, err)
	}
	for p, n := range next {
		if n != perProducer {
			t.Errorf("producer %d: %d frames delivered, want %d", p, n, perProducer)
		}
	}
}

// A small bound makes producers wait for room over and over: every take
// must release them, or they wait forever.
func TestStressQueueWaitsForRoom(t *testing.T) {
	c := loopback()
	c.SetQueueLimit(16)
	stress(t, c, 8, 5000, func(h Hello) error { return c.Queue(MsgHello, h, nil) })
}

func TestStressTryQueue(t *testing.T) {
	const producers, perProducer = 8, 5000
	c := loopback()
	c.SetQueueLimit(producers * perProducer)
	stress(t, c, producers, perProducer, func(h Hello) error { return c.TryQueue(MsgHello, h) })
}

// Ping-pong: each frame lands in an empty queue, so each needs its own
// wake token; one missing leaves the writer parked for good.
func TestEveryFrameIntoAnEmptyQueueWakes(t *testing.T) {
	c := loopback()
	c.SetQueueLimit(4)
	stop := make(chan struct{})
	defer close(stop)
	got := make(chan int)
	go func() {
		for {
			if n, _ := c.Drain(stop); n == 0 {
				return
			}
			for _, h := range readBack(t, c) {
				got <- int(h.Resources.MemoryMB)
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		if err := c.TryQueue(MsgHello, item(0, i)); err != nil {
			t.Fatal(err)
		}
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("got %d, want %d", v, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d into an empty queue never woke the writer", i)
		}
	}
}

func TestTryQueueRefusesAtLimit(t *testing.T) {
	c := loopback()
	c.SetQueueLimit(3)
	for i := 0; i < 3; i++ {
		if err := c.TryQueue(MsgHello, item(0, i)); err != nil {
			t.Fatalf("frame %d refused below the limit: %v", i, err)
		}
	}
	if err := c.TryQueue(MsgHello, item(0, 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("frame past the limit: %v, want ErrQueueFull", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, c); len(got) != 3 || got[0].Resources.MemoryMB != 0 || got[2].Resources.MemoryMB != 2 {
		t.Fatalf("wrote %v, want frames 0 1 2", got)
	}
	if err := c.TryQueue(MsgHello, item(0, 3)); err != nil {
		t.Fatalf("frame refused after a write emptied the queue: %v", err)
	}
}

// Queue never queues once stop is closed, even with room to spare: a
// closed stop is not a race it can lose.
func TestQueueAfterStopQueuesNothing(t *testing.T) {
	c := loopback()
	c.SetQueueLimit(1024)
	stop := make(chan struct{})
	close(stop)
	for i := 0; i < 1000; i++ {
		if err := c.Queue(MsgHello, item(0, i), stop); !errors.Is(err, ErrStopped) {
			t.Fatalf("frame %d after stop: %v, want ErrStopped", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, c); len(got) != 0 {
		t.Fatalf("%d frames queued after stop", len(got))
	}
}

func TestQueueWaitingForRoomGivesUpOnStop(t *testing.T) {
	c := loopback()
	c.SetQueueLimit(1)
	if err := c.Queue(MsgHello, item(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	queued := make(chan error)
	go func() { queued <- c.Queue(MsgHello, item(0, 1), stop) }()
	for waiting := false; !waiting; runtime.Gosched() {
		c.qmu.Lock()
		waiting = c.room != nil // the frame found the queue full
		c.qmu.Unlock()
	}
	close(stop)
	if err := <-queued; !errors.Is(err, ErrStopped) {
		t.Fatalf("a frame waiting for room, after stop: %v, want ErrStopped", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, c); len(got) != 1 || got[0].Resources.MemoryMB != 0 {
		t.Fatalf("wrote %v, want frame 0 alone", got)
	}
}

// A failed write is Drain's error; the batch it took is dropped, and
// the connection keeps no reference to a bulk payload it held.
func TestDrainStopsAtErrorAndKeepsNothing(t *testing.T) {
	c := NewConn(&failingRW{okWrites: 1})
	for i := 0; i < 4; i++ {
		if err := c.TryQueueBulk(MsgFileDataBulk, FileHdr{ID: "blob"}, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.Drain(nil)
	if n != 4 || err == nil || !strings.Contains(err.Error(), "peer gone") {
		t.Fatalf("Drain = %d, %v; want 4 and the write's error", n, err)
	}
	for _, o := range []*outbound{&c.pend, &c.spare} {
		for i, p := range o.bulks[:cap(o.bulks)] {
			if p.data != nil {
				t.Fatalf("an emptied batch still holds payload %d", i)
			}
		}
	}
	if c.pend.frames != 0 {
		t.Fatalf("%d frames left queued after the failed write", c.pend.frames)
	}
}

// The queue's two batches alternate between producers and the writer:
// once both have grown, a steady stream allocates nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), io.Discard})
	c.SetQueueLimit(64)
	payload := []byte("payload")
	cycle := func() {
		for i := 0; i < 32; i++ {
			c.TryQueue(MsgHello, item(0, i))
			c.TryQueueBulk(MsgFileDataBulk, FileHdr{ID: "blob"}, payload)
		}
		c.Drain(nil)
	}
	cycle()
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("%v allocations per queue-and-drain cycle, want 0", a)
	}
}
