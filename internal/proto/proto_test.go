package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

func TestSendRecvRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	hello := Hello{WorkerID: "w1", Resources: core.Resources{Cores: 32, MemoryMB: 1024}, Cluster: "a", DataAddr: "127.0.0.1:9"}
	if err := c.Send(MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	typ, raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgHello {
		t.Fatalf("type = %v", typ)
	}
	got, err := Decode[Hello](raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != hello {
		t.Errorf("round trip: %+v != %+v", got, hello)
	}
}

func TestMultipleFramesInOrder(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	for i := 0; i < 10; i++ {
		if err := c.Send(MsgFileAck, FileAck{ID: string(rune('a' + i)), Ok: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		typ, raw, err := c.Recv()
		if err != nil || typ != MsgFileAck {
			t.Fatalf("frame %d: %v %v", i, typ, err)
		}
		ack, err := Decode[FileAck](raw)
		if err != nil {
			t.Fatal(err)
		}
		if ack.ID != string(rune('a'+i)) {
			t.Errorf("frame %d out of order: %q", i, ack.ID)
		}
	}
}

func TestCorruptFrames(t *testing.T) {
	// Bad length prefix.
	c := NewConn(bytes.NewBuffer([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}))
	if _, _, err := c.Recv(); err == nil || !strings.Contains(err.Error(), "frame length") {
		t.Errorf("huge length accepted: %v", err)
	}
	// Truncated body.
	c2 := NewConn(bytes.NewBuffer([]byte{0, 0, 0, 10, byte(MsgHello), 1, 2}))
	if _, _, err := c2.Recv(); err == nil {
		t.Errorf("truncated frame accepted")
	}
	// Empty stream: clean EOF.
	c3 := NewConn(&bytes.Buffer{})
	if _, _, err := c3.Recv(); err == nil {
		t.Errorf("EOF not reported")
	}
}

func TestConcurrentSendersOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan map[string]int, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		c := NewConn(nc)
		counts := map[string]int{}
		for i := 0; i < 200; i++ {
			_, raw, err := c.Recv()
			if err != nil {
				break
			}
			ack, err := Decode[FileAck](raw)
			if err != nil {
				break
			}
			counts[ack.ID]++
		}
		done <- counts
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewConn(nc)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := string(rune('A' + g))
			for i := 0; i < 50; i++ {
				if err := c.Send(MsgFileAck, FileAck{ID: id, Ok: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	counts := <-done
	// Frames must not interleave mid-frame: every message decodes and
	// per-sender counts are exact.
	for g := 0; g < 4; g++ {
		id := string(rune('A' + g))
		if counts[id] != 50 {
			t.Errorf("sender %s delivered %d of 50 frames", id, counts[id])
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, mt := range []MsgType{MsgHello, MsgFetchFile, MsgFileAck,
		MsgRunTask, MsgInstallLibrary, MsgLibraryAck, MsgRemoveLibrary,
		MsgInvoke, MsgResult, MsgShutdown, MsgGetFile, MsgError, MsgPutFileBulk, MsgFileDataBulk,
		MsgLog, MsgSpillObject, MsgOwnObject} {
		if s := mt.String(); strings.HasPrefix(s, "MsgType(") {
			t.Errorf("missing name for %d", mt)
		}
	}
	if s := MsgType(200).String(); !strings.HasPrefix(s, "MsgType(") {
		t.Errorf("unknown type should fall back: %q", s)
	}
}

// Property: any FileAck survives a frame round trip.
func TestQuickFileAckRoundTrip(t *testing.T) {
	f := func(id string, ok bool, errMsg string) bool {
		var buf bytes.Buffer
		c := NewConn(&buf)
		in := FileAck{ID: id, Ok: ok, Err: errMsg}
		if err := c.Send(MsgFileAck, in); err != nil {
			return false
		}
		typ, raw, err := c.Recv()
		if err != nil || typ != MsgFileAck {
			return false
		}
		out, err := Decode[FileAck](raw)
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Recv never panics on arbitrary byte streams — it parses or
// errors.
func TestQuickRecvNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		c := NewConn(bytes.NewBuffer(data))
		for i := 0; i < 4; i++ {
			if _, _, err := c.Recv(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWithIdleTimeoutCutsStalledRead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := WithIdleTimeout(a, 60*time.Millisecond)
	start := time.Now()
	_, err := rc.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("read on a silent peer should time out")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("timed out after %v, want ~60ms", d)
	}
}

func TestWithIdleTimeoutRefreshesOnProgress(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := WithIdleTimeout(a, 120*time.Millisecond)
	// A slow but steady writer: each chunk arrives well inside the idle
	// window, yet the whole transfer takes several windows.
	const chunks = 6
	go func() {
		for i := 0; i < chunks; i++ {
			time.Sleep(40 * time.Millisecond)
			b.Write([]byte{byte(i)})
		}
	}()
	buf := make([]byte, chunks)
	for got := 0; got < chunks; {
		n, err := rc.Read(buf[got:])
		if err != nil {
			t.Fatalf("steady transfer cut by idle timeout after %d bytes: %v", got, err)
		}
		got += n
	}
}

func TestWithIdleTimeoutZeroIsPassthrough(t *testing.T) {
	a, _ := net.Pipe()
	defer a.Close()
	if c := WithIdleTimeout(a, 0); c != a {
		t.Errorf("zero idle timeout should return the conn unchanged")
	}
}

func TestBulkFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	hdr := PutFileHdr{File: FileHdr{ID: "obj", Name: "env.tar.gz", Kind: 1, LogicalSize: 1 << 16}, Cache: true, Unpack: true}
	if err := c.SendBulk(MsgPutFileBulk, hdr, payload); err != nil {
		t.Fatal(err)
	}
	typ, raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgPutFileBulk {
		t.Fatalf("type = %v", typ)
	}
	got, data, err := DecodeBulk[PutFileHdr](raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr {
		t.Errorf("header round trip: %+v != %+v", got, hdr)
	}
	if !bytes.Equal(data, payload) {
		t.Errorf("payload corrupted (%d bytes)", len(data))
	}
}

func TestBulkFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.SendBulk(MsgFileDataBulk, FileHdr{ID: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	_, raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	hdr, data, err := DecodeBulk[FileHdr](raw)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ID != "x" || len(data) != 0 {
		t.Errorf("hdr=%+v payload=%d bytes", hdr, len(data))
	}
}

func TestBulkAndJSONFramesInterleave(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(MsgFileAck, FileAck{ID: "a", Ok: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBulk(MsgPutFileBulk, PutFileHdr{File: FileHdr{ID: "b"}}, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(MsgFileAck, FileAck{ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if typ, raw, err := c.Recv(); err != nil || typ != MsgFileAck {
		t.Fatalf("frame 1: %v %v", typ, err)
	} else if ack, _ := Decode[FileAck](raw); ack.ID != "a" {
		t.Errorf("frame 1 = %+v", ack)
	}
	typ, raw, err := c.Recv()
	if err != nil || typ != MsgPutFileBulk {
		t.Fatalf("frame 2: %v %v", typ, err)
	}
	hdr, data, err := DecodeBulk[PutFileHdr](raw)
	if err != nil || hdr.File.ID != "b" || string(data) != "bytes" {
		t.Fatalf("frame 2 = %+v %q %v", hdr, data, err)
	}
	if typ, _, err := c.Recv(); err != nil || typ != MsgFileAck {
		t.Fatalf("frame 3: %v %v", typ, err)
	}
}

// loopReader replays one encoded frame forever.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

func (l *loopReader) Write(p []byte) (int, error) { return len(p), nil }

// TestRecvAllocatesFrameOnce: receiving an n-byte frame allocates its
// buffer and at most the one chunk read on the strength of the length
// prefix alone — not a throw-away chunk per megabyte plus regrowth, and
// never more than a chunk for a prefix with nothing behind it.
func TestRecvAllocatesFrameOnce(t *testing.T) {
	const n = 2 << 20
	var wire bytes.Buffer
	if err := NewConn(&wire).SendBulk(MsgFileDataBulk, FileHdr{ID: "blob"}, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	c := NewConn(&loopReader{frame: wire.Bytes()})
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, raw, err := c.Recv(); err != nil || len(raw) < n {
			t.Fatalf("recv: %d bytes, %v", len(raw), err)
		}
	}
	runtime.ReadMemStats(&after)
	// slack covers the allocator rounding a large buffer up to whole pages.
	const slack = 64 << 10
	perFrame := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(wire.Len() + recvChunk + slack); perFrame > limit {
		t.Errorf("a %d-byte frame allocated %d bytes, want at most %d", wire.Len(), perFrame, limit)
	}

	// A length prefix claiming MaxFrame over an empty stream.
	lie := NewConn(bytes.NewBuffer([]byte{0x20, 0, 0, 0, byte(MsgFileDataBulk)}))
	runtime.ReadMemStats(&before)
	_, _, err := lie.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame with no body was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > recvChunk+slack {
		t.Errorf("a bare length prefix cost %d bytes, want at most one chunk", got)
	}
}

func TestSplitBulkRejectsCorruptHeaders(t *testing.T) {
	if _, _, err := SplitBulk([]byte{1, 2}); err == nil {
		t.Errorf("short frame accepted")
	}
	// Header length pointing past the end of the frame.
	bad := []byte{0, 0, 0, 200, 'x', 'y'}
	if _, _, err := SplitBulk(bad); err == nil {
		t.Errorf("oversized header length accepted")
	}
}

// BenchmarkPutFileEncodeBulk64MB is the binary bulk path: a small JSON
// header, then the payload written straight from its backing slice.
// B/op must stay near zero no matter the payload size — this is the
// "no base64 copy" acceptance check.
func BenchmarkPutFileEncodeBulk64MB(b *testing.B) {
	payload := make([]byte, 64<<20)
	c := NewConn(struct{ io.ReadWriter }{discardRW{}})
	hdr := PutFileHdr{File: FileHdr{ID: "obj", Name: "env.tar.gz", LogicalSize: int64(len(payload))}, Cache: true}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendBulk(MsgPutFileBulk, hdr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

type discardRW struct{}

func (discardRW) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
