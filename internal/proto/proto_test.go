package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
	got, err := DecodeHello(raw)
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
		ack, err := DecodeFileAck(raw)
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
			ack, err := DecodeFileAck(raw)
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
	got, data, err := DecodePutFile(raw)
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
	hdr, data, err := DecodeFileData(raw)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ID != "x" || len(data) != 0 {
		t.Errorf("hdr=%+v payload=%d bytes", hdr, len(data))
	}
}

func TestBulkAndControlFramesInterleave(t *testing.T) {
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
	} else if ack, _ := DecodeFileAck(raw); ack.ID != "a" {
		t.Errorf("frame 1 = %+v", ack)
	}
	typ, raw, err := c.Recv()
	if err != nil || typ != MsgPutFileBulk {
		t.Fatalf("frame 2: %v %v", typ, err)
	}
	hdr, data, err := DecodePutFile(raw)
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

// chunkMisses counts the first-piece chunks chunkPool has had to make.
var chunkMisses atomic.Int64

func init() {
	newChunk := chunkPool.New
	chunkPool.New = func() any {
		chunkMisses.Add(1)
		return newChunk()
	}
}

// TestRecvAllocatesFrameOnce: receiving an n-byte bulk frame allocates
// its buffer and nothing else, through Recv and RecvReuse alike, and a
// length prefix with nothing behind it sizes no buffer at all.
//
// What is measured is the frame's own allocation, so the first-piece
// chunks chunkPool makes in the window are taken out. A frame borrows a
// chunk and puts it back, yet the next frame's Get can miss with nothing
// leaking: sync.Pool keeps a chunk in the slot of the P that put it,
// which a Get on another P does not look in, and a busy machine — a
// second -race test binary beside this one — moves the goroutine between
// Ps from one frame to the next; under -race, Put also drops one chunk in
// four. Seven misses in eight frames, each a 64 KiB chunk, once took a
// 2 MiB frame 58 bytes a frame over the bound. That the chunk goes back
// is held by TestRecvLongFrameBorrowsFirstPiece and
// TestRecvCutFirstPieceReturnsChunk.
func TestRecvAllocatesFrameOnce(t *testing.T) {
	const n = 2 << 20
	var wire bytes.Buffer
	if err := NewConn(&wire).SendBulk(MsgFileDataBulk, FileHdr{ID: "blob"}, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	// slack covers the allocator rounding a large buffer up to whole pages.
	const slack = 64 << 10
	const runs = 8
	var before, after runtime.MemStats
	for name, recv := range map[string]func(*Conn) (MsgType, []byte, error){
		"Recv": (*Conn).Recv, "RecvReuse": (*Conn).RecvReuse,
	} {
		c := NewConn(&loopReader{frame: wire.Bytes()})
		var last []byte
		misses := chunkMisses.Load()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, raw, err := recv(c)
			if err != nil || len(raw) < n {
				t.Fatalf("%s: %d bytes, %v", name, len(raw), err)
			}
			if i > 0 && &raw[0] == &last[0] {
				t.Fatalf("%s handed out one bulk buffer twice", name)
			}
			last = raw
		}
		runtime.ReadMemStats(&after)
		chunks := uint64(chunkMisses.Load()-misses) * firstPiece
		perFrame := (after.TotalAlloc - before.TotalAlloc - chunks) / runs
		if limit := uint64(wire.Len() + slack); perFrame > limit {
			t.Errorf("%s: a %d-byte frame allocated %d bytes, want at most %d", name, wire.Len(), perFrame, limit)
		}
	}

	// A length prefix claiming MaxFrame with only a type byte behind it.
	lie := NewConn(bytes.NewBuffer([]byte{0x20, 0, 0, 0, byte(MsgFileDataBulk)}))
	runtime.ReadMemStats(&before)
	_, _, err := lie.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame with no body was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > slack {
		t.Errorf("a bare length prefix cost %d bytes, want no frame buffer", got)
	}
}

// TestRecvLongFrameGrowsWithArrival: past recvTrust first pieces a frame
// cannot be sized in one step. It still arrives intact, for at most one
// extra step's worth of buffer; and a peer that claims such a frame and
// then stops is owed only recvTrust times what it sent.
func TestRecvLongFrameGrowsWithArrival(t *testing.T) {
	const n = 5 << 20
	// slack covers page rounding and a first-piece chunk the pool may not
	// have at hand (under -race, sync.Pool drops some of what it is given).
	const slack = 64<<10 + firstPiece
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i >> 8)
	}
	var wire bytes.Buffer
	if err := NewConn(&wire).SendBulk(MsgFileDataBulk, FileHdr{ID: "long"}, payload); err != nil {
		t.Fatal(err)
	}
	sent := append([]byte(nil), wire.Bytes()...)
	var before, after runtime.MemStats

	c := NewConn(&wire)
	runtime.ReadMemStats(&before)
	_, raw, err := c.Recv()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := DecodeFileData(raw); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("a %d-byte payload did not survive the stepwise receive (%v)", n, err)
	}
	step := uint64(recvTrust * firstPiece)
	if got, limit := after.TotalAlloc-before.TotalAlloc, step+uint64(len(sent))+slack; got > limit {
		t.Errorf("a %d-byte frame allocated %d bytes, want at most %d", len(sent), got, limit)
	}

	cut := NewConn(bytes.NewBuffer(sent[:100<<10]))
	runtime.ReadMemStats(&before)
	_, _, err = cut.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame cut short was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > step+slack {
		t.Errorf("%d bytes of a claimed %d-byte frame cost %d bytes, want at most %d", 100<<10, len(sent), got, step+slack)
	}
}

// TestRecvReuseKeepsBulkFramesApart: a bulk frame's payload is the
// caller's to keep — the control frames that follow on the connection
// reuse the scratch buffer and must not land in it.
func TestRecvReuseKeepsBulkFramesApart(t *testing.T) {
	var wire bytes.Buffer
	c := NewConn(&wire)
	if err := c.Send(MsgFileAck, FileAck{ID: "warm-the-scratch-buffer-so-it-could-hold-the-bulk-frame", Ok: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBulk(MsgPutFileBulk, PutFileHdr{File: FileHdr{ID: "b"}}, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Send(MsgFileAck, FileAck{ID: "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}); err != nil {
			t.Fatal(err)
		}
	}
	if typ, _, err := c.RecvReuse(); err != nil || typ != MsgFileAck {
		t.Fatalf("frame 1: %v %v", typ, err)
	}
	_, raw, err := c.RecvReuse()
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := DecodePutFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.RecvReuse(); err != nil {
			t.Fatal(err)
		}
	}
	if string(payload) != "bytes" {
		t.Errorf("bulk payload read %q after later frames, want %q", payload, "bytes")
	}
}

// TestBulkHeaderTruncation: a bulk frame whose header is cut short, or
// is not binary, fails to decode instead of handing out a payload.
func TestBulkHeaderTruncation(t *testing.T) {
	put := PutFileHdr{File: FileHdr{ID: "obj", Name: "env.tar.gz", Kind: 1, LogicalSize: 9, UnpackedSize: 90}, Cache: true}
	cases := []struct {
		name   string
		hdr    any
		decode func([]byte) error
	}{
		{"put-file", put, func(b []byte) error { _, _, err := DecodePutFile(b); return err }},
		{"file-data", put.File, func(b []byte) error { _, _, err := DecodeFileData(b); return err }},
	}
	for _, c := range cases {
		hdr, _ := appendBody(nil, c.hdr)
		if err := c.decode(append(hdr, "payload"...)); err != nil {
			t.Fatalf("%s: intact frame: %v", c.name, err)
		}
		for n := 0; n < len(hdr); n++ {
			if c.decode(hdr[:n]) == nil {
				t.Fatalf("%s: header prefix of %d/%d bytes decoded without error", c.name, n, len(hdr))
			}
		}
		// The JSON-era layout: a 4-byte header length, then JSON.
		if c.decode([]byte("\x00\x00\x00\x0c{\"id\":\"obj\"}payload")) == nil {
			t.Errorf("%s: a length-prefixed JSON header decoded without error", c.name)
		}
	}
}

// BenchmarkPutFileEncodeBulk64MB is the bulk path: a small binary
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
