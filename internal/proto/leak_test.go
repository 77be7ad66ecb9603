package proto

// Pool leak tests. The encode-buffer pool is an interface (bufferPool)
// so these tests can swap in a counting implementation and check that
// every buffer taken by getEncBuf comes back through putEncBuf on every
// path — success, encode error, flush error, and mid-frame write error
// alike. No analyzer looks at the pool sites: these tests are the check.
//
// Audit map of the package's pool surface (keep in sync with proto.go
// and queue.go):
//
//	SendBulk  getEncBuf + defer putEncBuf — error paths: a header with
//	          no encoding, oversized frame, flushLocked, header Write,
//	          payload Write; Send is SendBulk with no payload
//	OneShot   oneShotPool.Get + deferred oneShotPool.Put, checked by
//	          the bytes it allocates (TestOneShotReturnsReader)
//	recvFirst chunkPool.Get + defer chunkPool.Put, checked by what a long
//	          frame and one cut inside its first piece allocate
//	          (TestRecvLongFrameBorrowsFirstPiece,
//	          TestRecvCutFirstPieceReturnsChunk, recv_test.go)
//	Buffer,   no pool use: encode into the per-conn outbound queue,
//	TryQueue, truncating it back on error
//	Queue
//	codec.go  no pool use: writeBody appends into the caller's buffer;
//	          decode copies out of the caller's frame
//
// putEncBuf intentionally drops buffers above maxPooledBuf, so these
// tests keep every frame far below that bound: any Get/Put imbalance
// they observe is a leak, not the size gate.

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// countingPool wraps a real pool and counts traffic through it.
type countingPool struct {
	mu   sync.Mutex
	gets int
	puts int
	p    sync.Pool
}

func (c *countingPool) Get() *bytes.Buffer {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	if b, ok := c.p.Get().(*bytes.Buffer); ok {
		return b
	}
	return new(bytes.Buffer)
}

func (c *countingPool) Put(b *bytes.Buffer) {
	c.mu.Lock()
	c.puts++
	c.mu.Unlock()
	c.p.Put(b)
}

func (c *countingPool) outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets - c.puts
}

// swapPool installs a counting pool for the duration of the test.
func swapPool(t *testing.T) *countingPool {
	t.Helper()
	cp := &countingPool{}
	old := encPool
	encPool = cp
	t.Cleanup(func() { encPool = old })
	return cp
}

// failingRW fails the (okWrites+1)-th Write call, letting one test
// target each write in a multi-write path (SendBulk's header then
// payload).
type failingRW struct {
	okWrites int
	writes   int
	sink     bytes.Buffer
}

func (f *failingRW) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.okWrites {
		return 0, errors.New("peer gone")
	}
	return f.sink.Write(p)
}

func (f *failingRW) Read(p []byte) (int, error) { return 0, io.EOF }

func TestSendPoolBalance(t *testing.T) {
	cp := swapPool(t)

	cases := []struct {
		name    string
		run     func() error
		wantErr string
	}{
		{
			name: "success",
			run: func() error {
				c := NewConn(&failingRW{okWrites: 100})
				return c.Send(MsgHello, Hello{WorkerID: "w1"})
			},
		},
		{
			name: "encode error",
			run: func() error {
				c := NewConn(&failingRW{okWrites: 100})
				return c.Send(MsgHello, make(chan int)) // no encoding
			},
			wantErr: "encoding",
		},
		{
			name: "write error",
			run: func() error {
				c := NewConn(&failingRW{})
				return c.Send(MsgHello, Hello{WorkerID: "w1"})
			},
			wantErr: "writing frame",
		},
		{
			name: "flush error before send",
			run: func() error {
				c := NewConn(&failingRW{})
				if err := c.Buffer(MsgHello, Hello{WorkerID: "w1"}); err != nil {
					return err
				}
				return c.Send(MsgHello, Hello{WorkerID: "w2"})
			},
			wantErr: "flushing",
		},
		{
			name: "binary body success",
			run: func() error {
				c := NewConn(&failingRW{okWrites: 100})
				return c.Send(MsgResult, &core.Result{ID: 7, Ok: true})
			},
		},
	}
	for _, tc := range cases {
		err := tc.run()
		if tc.wantErr == "" && err != nil {
			t.Fatalf("%s: unexpected error: %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Fatalf("%s: error = %v, want substring %q", tc.name, err, tc.wantErr)
		}
		if n := cp.outstanding(); n != 0 {
			t.Fatalf("%s: %d encode buffer(s) leaked (gets=%d puts=%d)", tc.name, n, cp.gets, cp.puts)
		}
	}
}

func TestSendBulkPoolBalance(t *testing.T) {
	cp := swapPool(t)
	payload := bytes.Repeat([]byte("x"), 4096)

	cases := []struct {
		name    string
		run     func() error
		wantErr string
	}{
		{
			name: "success",
			run: func() error {
				c := NewConn(&failingRW{okWrites: 100})
				return c.SendBulk(MsgPutFileBulk, PutFileHdr{File: FileHdr{ID: "f1"}}, payload)
			},
		},
		{
			name: "header encode error",
			run: func() error {
				c := NewConn(&failingRW{okWrites: 100})
				return c.SendBulk(MsgPutFileBulk, make(chan int), payload)
			},
			wantErr: "encoding",
		},
		{
			name: "flush error before bulk",
			run: func() error {
				c := NewConn(&failingRW{})
				if err := c.Buffer(MsgHello, Hello{WorkerID: "w1"}); err != nil {
					return err
				}
				return c.SendBulk(MsgPutFileBulk, PutFileHdr{File: FileHdr{ID: "f1"}}, payload)
			},
			wantErr: "flushing",
		},
		{
			name: "header write error",
			run: func() error {
				c := NewConn(&failingRW{})
				return c.SendBulk(MsgPutFileBulk, PutFileHdr{File: FileHdr{ID: "f1"}}, payload)
			},
			wantErr: "bulk frame header",
		},
		{
			name: "payload write error",
			run: func() error {
				c := NewConn(&failingRW{okWrites: 1})
				return c.SendBulk(MsgPutFileBulk, PutFileHdr{File: FileHdr{ID: "f1"}}, payload)
			},
			wantErr: "bulk frame payload",
		},
	}
	for _, tc := range cases {
		err := tc.run()
		if tc.wantErr == "" && err != nil {
			t.Fatalf("%s: unexpected error: %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Fatalf("%s: error = %v, want substring %q", tc.name, err, tc.wantErr)
		}
		if n := cp.outstanding(); n != 0 {
			t.Fatalf("%s: %d encode buffer(s) leaked (gets=%d puts=%d)", tc.name, n, cp.gets, cp.puts)
		}
	}
}

// TestBufferErrorLeavesPendingIntact proves the documented Buffer
// contract alongside the pool audit: an encode error truncates the
// pending buffer back to its pre-call state, so a later Flush writes
// exactly the frames that were successfully buffered.
func TestBufferErrorLeavesPendingIntact(t *testing.T) {
	rw := &failingRW{okWrites: 100}
	c := NewConn(rw)
	if err := c.Buffer(MsgHello, Hello{WorkerID: "w1"}); err != nil {
		t.Fatalf("buffer: %v", err)
	}
	before := c.pend.buf.Len()
	if err := c.Buffer(MsgHello, make(chan int)); err == nil {
		t.Fatal("buffering an unencodable value succeeded")
	}
	if c.pend.buf.Len() != before {
		t.Fatalf("failed Buffer left %d pending bytes, want %d", c.pend.buf.Len(), before)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	peer := NewConn(&rw.sink)
	mt, raw, err := peer.Recv()
	if err != nil || mt != MsgHello {
		t.Fatalf("recv after partial-failure flush: type=%v err=%v", mt, err)
	}
	h, err := DecodeHello(raw)
	if err != nil || h.WorkerID != "w1" {
		t.Fatalf("decoded hello = %+v, err=%v", h, err)
	}
	if _, _, err := peer.Recv(); err != io.EOF {
		t.Fatalf("expected exactly one frame on the wire, second Recv err = %v", err)
	}
}

// TestSendPoolBalanceConcurrent hammers one connection from many
// goroutines across mixed success/failure writers and checks the pool
// balances out — the concurrent analogue of the table tests above.
func TestSendPoolBalanceConcurrent(t *testing.T) {
	cp := swapPool(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewConn(&failingRW{okWrites: 50}) // fails partway through
			for i := 0; i < 100; i++ {
				switch i % 3 {
				case 0:
					_ = c.Send(MsgHello, Hello{WorkerID: "w"})
				case 1:
					_ = c.Send(MsgResult, &core.Result{ID: int64(i), Ok: true})
				case 2:
					_ = c.SendBulk(MsgPutFileBulk, PutFileHdr{File: FileHdr{ID: "f"}}, []byte("data"))
				}
			}
		}(g)
	}
	wg.Wait()
	if n := cp.outstanding(); n != 0 {
		t.Fatalf("%d encode buffer(s) leaked under concurrency (gets=%d puts=%d)", n, cp.gets, cp.puts)
	}
}

// TestOneShotReturnsReader: OneShot borrows its connection and read
// buffer from oneShotPool and must give them back, so a run of exchanges allocates far
// less than one buffer each. Under the race detector sync.Pool drops a
// quarter of its Puts, which still keeps the average under half.
func TestOneShotReturnsReader(t *testing.T) {
	var frame bytes.Buffer
	if err := NewConn(&frame).Send(MsgHello, Hello{WorkerID: "w1"}); err != nil {
		t.Fatal(err)
	}
	var r bytes.Reader
	rw := struct {
		io.Reader
		io.Writer
	}{&r, io.Discard}
	exchange := func() {
		r.Reset(frame.Bytes())
		OneShot(rw, func(c *Conn) {
			if _, _, err := c.Recv(); err != nil {
				t.Fatal(err)
			}
		})
	}
	exchange() // fill the pool
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > readBufSize/2 {
		t.Fatalf("OneShot allocates %d bytes per exchange, want under %d: its reader is not going back to the pool", per, readBufSize/2)
	}
}
