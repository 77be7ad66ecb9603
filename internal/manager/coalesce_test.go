package manager

// Race-mode tests for the coalesced per-worker writer: the sender
// goroutine in serveWorker drains a worker's sendq into the
// connection's pending buffer and flushes whole bursts in one write.
// These tests drive the real sender over a net.Pipe whose peer stalls
// mid-frame, and assert the two properties coalescing must not break:
// every frame arrives intact and exactly once (no interleaving, no
// truncation), and the send-queue overflow path still disconnects and
// counts when the peer stops draining entirely. Run with -race (make
// check does).

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// dribbleConn delivers reads in tiny chunks with periodic pauses: the
// peer keeps draining, but every multi-byte frame crosses several Read
// calls with stalls landing mid-frame.
type dribbleConn struct {
	net.Conn
	chunk int
	reads int
}

func (c *dribbleConn) Read(p []byte) (int, error) {
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	c.reads++
	if c.reads%7 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return c.Conn.Read(p)
}

// startPipeWorker runs the real serveWorker loop against one end of a
// pipe, sends the Hello handshake from the other, and returns the
// registered workerState plus the peer-side framed connection.
func startPipeWorker(t *testing.T, m *Manager, id string, cores int, peerSide net.Conn, mgrSide net.Conn) (*workerState, *proto.Conn) {
	t.Helper()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.serveWorker(mgrSide)
	}()
	peer := proto.NewConn(peerSide)
	if err := peer.Send(proto.MsgHello, proto.Hello{
		WorkerID:  id,
		Resources: core.Resources{Cores: cores, MemoryMB: 64 << 10, DiskMB: 64 << 10},
	}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	s := m.shardFor(id)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		w := s.workers[id]
		s.mu.Unlock()
		if w != nil {
			return w, peer
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never registered", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoalescedWriterFrameIntegrityUnderStall(t *testing.T) {
	m := New(Options{Shards: 1})
	defer m.Shutdown()
	mgrSide, peerSide := net.Pipe()
	defer mgrSide.Close()
	defer peerSide.Close()

	// chunk=5 makes every length prefix and every frame body span
	// multiple reads, so the writer is routinely blocked mid-frame.
	w, peer := startPipeWorker(t, m, "stall", 32, &dribbleConn{Conn: peerSide, chunk: 5}, mgrSide)

	const producers, perProducer = 4, 64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				w.enqueue(outMsg{t: proto.MsgRunTask, v: &core.TaskSpec{
					ID:     int64(p*perProducer + k),
					Script: strings.Repeat("#", 64), // multi-chunk frame body
				}})
			}
		}(p)
	}

	// Drain from the stalling peer while producers flood. A coalescing
	// bug — two frames interleaved, a frame cut at a flush boundary —
	// surfaces as a decode error or a missing/duplicated task ID.
	peerSide.SetReadDeadline(time.Now().Add(30 * time.Second))
	const total = producers * perProducer
	seen := make(map[int64]int, total)
	for n := 0; n < total; {
		mt, raw, err := peer.Recv()
		if err != nil {
			t.Fatalf("recv after %d intact frames: %v", n, err)
		}
		if mt != proto.MsgRunTask {
			t.Fatalf("unexpected frame type %v mid-burst", mt)
		}
		ts, err := proto.DecodeTask(raw)
		if err != nil {
			t.Fatalf("frame %d corrupted: %v", n, err)
		}
		seen[ts.ID]++
		n++
	}
	wg.Wait()
	for id := int64(0); id < total; id++ {
		if seen[id] != 1 {
			t.Fatalf("task %d delivered %d times, want exactly once", id, seen[id])
		}
	}
	st := m.Stats()
	if st.SendQueueDrops != 0 {
		t.Errorf("draining peer was dropped: SendQueueDrops = %d", st.SendQueueDrops)
	}
	if st.FramesSent < total || st.FlushBatches < 1 {
		t.Errorf("coalescing accounting: FramesSent=%d FlushBatches=%d, want >= %d and >= 1",
			st.FramesSent, st.FlushBatches, total)
	}
	if st.FlushBatches > st.FramesSent {
		t.Errorf("more flushes (%d) than frames (%d)", st.FlushBatches, st.FramesSent)
	}
}

func TestCoalescedWriterOverflowUnderFullStall(t *testing.T) {
	m := New(Options{Shards: 1})
	defer m.Shutdown()
	mgrSide, peerSide := net.Pipe()
	defer mgrSide.Close()
	defer peerSide.Close()

	// Cores=1 gives the floor queue size; after the Hello the peer never
	// reads again, so the sender wedges mid-frame on the pipe with the
	// coalescing buffer full behind it.
	w, _ := startPipeWorker(t, m, "wedged", 1, peerSide, mgrSide)
	s := m.shardFor("wedged")

	// Each frame carries a 4 KiB script so the queue, the pending
	// buffer (maxPending), and the wedged in-flight write together
	// absorb far less than the flood.
	pad := strings.Repeat("#", 4096)
	total := 2*sendQueueSize(1) + 512
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := p; k < total; k += 8 {
				w.enqueue(outMsg{t: proto.MsgRunTask, v: &core.TaskSpec{ID: int64(k), Script: pad}})
			}
		}(p)
	}
	wg.Wait()

	if got := m.Stats().SendQueueDrops; got < 1 {
		t.Fatalf("SendQueueDrops = %d after flooding a wedged peer, want >= 1", got)
	}
	// The overflow path closed the connection; the reader loop must
	// notice and deregister the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		_, there := s.workers["wedged"]
		s.mu.Unlock()
		if !there {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wedged worker still registered after overflow drop")
		}
		time.Sleep(time.Millisecond)
	}
}
