package proto

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// raceDetector is set under -race (race_test.go), where sync.Pool drops
// some of what it is given, so a pooled chunk is not always at hand.
var raceDetector bool

// logFrame encodes one MsgLog frame whose text is n bytes long: a control
// frame of any length.
func logFrame(t testing.TB, n int) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := NewConn(&wire).Send(MsgLog, LogMsg{Worker: "w1", Text: strings.Repeat("x", n)}); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// bulkFrame encodes one MsgFileDataBulk frame carrying n payload bytes.
func bulkFrame(t testing.TB, n int) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := NewConn(&wire).SendBulk(MsgFileDataBulk, FileHdr{ID: "blob"}, bytes.Repeat([]byte{7}, n)); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestNewConnReservesOnlyItsReader: a connection costs its small framed
// reader and a little bookkeeping, nothing sized for the frames it may
// one day receive.
func TestNewConnReservesOnlyItsReader(t *testing.T) {
	const n = 256
	conns := make([]*Conn, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range conns {
		conns[i] = NewConn(&bytes.Buffer{})
	}
	runtime.ReadMemStats(&after)
	// 4 KiB of reader and 512 bytes more; a reader sized for long frames
	// (64 KiB, before they waited in a pooled chunk) fails this.
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 4<<10+512 {
		t.Errorf("NewConn allocates %d bytes, want at most %d", per, 4<<10+512)
	}
	runtime.KeepAlive(conns)
}

// TestRecvLongFrameBorrowsFirstPiece: a frame longer than the read buffer
// waits for its first piece in a pooled chunk, so once the pool is warm
// its only allocation is the frame's own buffer — just past the read
// buffer, just past a first piece, and at the one-step limit alike.
func TestRecvLongFrameBorrowsFirstPiece(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops chunks under -race")
	}
	// A collection empties every pool, and the pool's next Put allocates
	// its per-P table again: keep the collector out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The last payload leaves room for the type byte and header.
	for _, n := range []int{readBufSize + 1, firstPiece + 1, recvTrust*firstPiece - 64} {
		for name, recv := range map[string]func(*Conn) (MsgType, []byte, error){
			"Recv": (*Conn).Recv, "RecvReuse": (*Conn).RecvReuse,
		} {
			c := NewConn(&loopReader{frame: bulkFrame(t, n)})
			var err error
			allocs := testing.AllocsPerRun(20, func() {
				_, _, err = recv(c)
			})
			if err != nil {
				t.Fatalf("%s of a %d-byte payload: %v", name, n, err)
			}
			if allocs != 1 {
				t.Errorf("%s of a %d-byte payload: %.1f allocations, want 1 (the frame's buffer)", name, n, allocs)
			}
		}
	}
}

// TestRecvCutFirstPieceReturnsChunk: a peer that claims a long frame and
// stops inside its first piece is owed no frame buffer, and the chunk it
// was read into goes back to the pool on that error path too.
func TestRecvCutFirstPieceReturnsChunk(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops chunks under -race")
	}
	cut := bulkFrame(t, 200<<10)[:firstPiece/2]
	attempt := func() {
		if _, _, err := NewConn(bytes.NewBuffer(cut)).Recv(); err == nil {
			t.Fatal("a frame cut inside its first piece was accepted")
		}
	}
	attempt() // fill the pool
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		attempt()
	}
	runtime.ReadMemStats(&after)
	// What remains is the connection itself and the error.
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 2*readBufSize {
		t.Errorf("a cut frame costs %d bytes a try, want at most %d: the chunk is not going back, or a frame buffer was sized", per, 2*readBufSize)
	}
}

// TestConcurrentLongReceivesKeepTheirBytes: every receiver in the process
// borrows its first pieces from one pool. Eight connections receiving
// long frames at once, each a payload of its own byte, must each get
// back exactly what their peer sent, and a payload handed out must not
// change under the receives that follow.
func TestConcurrentLongReceivesKeepTheirBytes(t *testing.T) {
	const receivers, frames = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, receivers)
	for r := 0; r < receivers; r++ {
		var wire bytes.Buffer
		c := NewConn(&wire)
		for i := 0; i < frames; i++ {
			// Sizes either side of a first piece, so the chunk is both the
			// whole frame and its head.
			n := firstPiece/2 + (i%3)*firstPiece/2 + r
			if err := c.SendBulk(MsgFileDataBulk, FileHdr{ID: "blob"}, bytes.Repeat([]byte{byte(r)}, n)); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var kept [][]byte
			for i := 0; i < frames; i++ {
				_, raw, err := c.RecvReuse()
				if err == nil {
					var data []byte
					_, data, err = DecodeFileData(raw)
					kept = append(kept, data)
				}
				if err != nil {
					errs <- fmt.Errorf("receiver %d, frame %d: %v", r, i, err)
					return
				}
			}
			for i, data := range kept {
				if bytes.Count(data, []byte{byte(r)}) != len(data) {
					errs <- fmt.Errorf("receiver %d, frame %d: payload holds another receiver's bytes", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecvReuseKeepsNoLongScratch: RecvReuse keeps a control frame's
// buffer as its scratch only up to a first piece. One long control frame
// is allocated for itself and not pinned for the life of the connection;
// short frames after it still reuse the scratch they had.
func TestRecvReuseKeepsNoLongScratch(t *testing.T) {
	var wire bytes.Buffer
	wire.Write(logFrame(t, 10<<10))
	wire.Write(logFrame(t, 200<<10))
	wire.Write(logFrame(t, 10<<10))
	c := NewConn(&wire)
	var scratch []int
	for i := 0; i < 3; i++ {
		typ, raw, err := c.RecvReuse()
		if err != nil || typ != MsgLog {
			t.Fatalf("frame %d: %v %v", i, typ, err)
		}
		if _, err := DecodeLog(raw); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		scratch = append(scratch, cap(c.rbuf))
	}
	if scratch[1] != scratch[0] || scratch[2] != scratch[0] {
		t.Errorf("scratch capacity across a 10 KiB, 200 KiB and 10 KiB frame: %v, want it unchanged by the long one", scratch)
	}
	if scratch[0] > firstPiece {
		t.Errorf("scratch of %d bytes kept, want at most %d", scratch[0], firstPiece)
	}
}
