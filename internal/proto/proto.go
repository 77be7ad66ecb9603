// Package proto implements the wire protocol between the manager, its
// workers, and worker data servers: length-prefixed, type-tagged
// frames over any net.Conn. It carries the message vocabulary of §3.4:
// file staging (direct and peer-to-peer), task execution, library
// installation and removal, invocations, and results.
//
// Every frame body is binary, written and read by codec.go: one
// encoder and one decoder per message type, no reflection. Object bytes
// move only as bulk frames (MsgPutFileBulk, MsgFileDataBulk): a small
// binary header followed by the raw payload, so a multi-MB environment
// tarball is written straight from its backing slice — no base64
// expansion and no second in-memory copy on either side of the
// connection. No other frame carries object bytes.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/content"
	"time"

	"repro/internal/core"
)

// MsgType tags a frame with its message kind.
type MsgType byte

const (
	// MsgHello is sent by a worker on connect.
	MsgHello MsgType = iota + 1
	// MsgFetchFile instructs a worker to pull an object from a peer.
	MsgFetchFile
	// MsgFileAck confirms an object is cached on the worker.
	MsgFileAck
	// MsgRunTask dispatches a stateless task.
	MsgRunTask
	// MsgInstallLibrary dispatches a library (the special context task).
	MsgInstallLibrary
	// MsgLibraryAck reports a library instance is ready (or failed).
	MsgLibraryAck
	// MsgRemoveLibrary evicts an idle library instance.
	MsgRemoveLibrary
	// MsgInvoke dispatches a FunctionCall to a worker with the library.
	MsgInvoke
	// MsgResult returns a task or invocation result to the manager.
	MsgResult
	// MsgShutdown tells a worker to exit.
	MsgShutdown
	// MsgGetFile requests an object by ID from a peer data server.
	MsgGetFile
	// MsgError answers MsgGetFile when the object is unavailable.
	MsgError
	// MsgPutFileBulk carries an object manager→worker as a bulk frame:
	// a PutFileHdr header followed by the raw object bytes.
	MsgPutFileBulk
	// MsgFileDataBulk answers MsgGetFile as a bulk frame: a FileHdr
	// header followed by the raw object bytes.
	MsgFileDataBulk
	// MsgLog carries a worker-side diagnostic line to the manager —
	// today, protocol decode failures that would otherwise vanish
	// silently on the worker.
	MsgLog
	// MsgSpillObject demotes an owned object to the shared tier: the
	// worker writes the bytes to the shared filesystem and drops its
	// cache copy (the manager already re-tiered the ref at decision
	// time).
	MsgSpillObject
	// MsgOwnObject transfers ownership of a proxy object to this
	// worker — sent when the previous owner died and the manager
	// re-homed the ref onto a surviving holder. The worker protects its
	// replica from cache eviction from then on.
	MsgOwnObject
)

var msgNames = map[MsgType]string{
	MsgHello: "hello", MsgFetchFile: "fetch-file",
	MsgFileAck: "file-ack", MsgRunTask: "run-task",
	MsgInstallLibrary: "install-library", MsgLibraryAck: "library-ack",
	MsgRemoveLibrary: "remove-library", MsgInvoke: "invoke",
	MsgResult: "result", MsgShutdown: "shutdown", MsgGetFile: "get-file",
	MsgError: "error", MsgPutFileBulk: "put-file-bulk", MsgFileDataBulk: "file-data-bulk",
	MsgLog: "log", MsgSpillObject: "spill-object", MsgOwnObject: "own-object",
}

func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// MaxFrame bounds a single frame (metadata plus payload) to guard
// against corrupt length prefixes.
const MaxFrame = 512 << 20

// Hello announces a worker to the manager.
type Hello struct {
	WorkerID  string
	Resources core.Resources
	// Cluster names the worker's network locality group (Figure 3c).
	Cluster string
	// DataAddr is where peers can fetch this worker's cached objects.
	DataAddr string
	// MachineGFlops is the worker machine's compute rating, used for
	// heterogeneity-aware metrics.
	MachineGFlops float64
}

// FileHdr describes an object whose bytes travel out-of-band in the
// binary part of a bulk frame.
type FileHdr struct {
	ID           string
	Name         string
	Kind         int
	LogicalSize  int64
	UnpackedSize int64
}

// HdrOf describes o for a bulk frame that carries o.Data as its payload.
func HdrOf(o *content.Object) FileHdr {
	return FileHdr{ID: o.ID, Name: o.Name, Kind: int(o.Kind), LogicalSize: o.LogicalSize, UnpackedSize: o.UnpackedSize}
}

// Object assembles the object a bulk frame carried from its header and
// raw payload; data is retained as-is, no copy.
func (h FileHdr) Object(data []byte) *content.Object {
	o := h.object(data)
	return &o
}

func (h FileHdr) object(data []byte) content.Object {
	return content.Object{ID: h.ID, Name: h.Name, Kind: content.Kind(h.Kind), Data: data, LogicalSize: h.LogicalSize, UnpackedSize: h.UnpackedSize}
}

// PutFileHdr is the header of a MsgPutFileBulk frame; the object bytes
// follow as the frame's payload.
type PutFileHdr struct {
	File  FileHdr
	Cache bool
	// Unpack asks the worker to expand the tarball after caching.
	Unpack bool
}

// FetchFile instructs a worker to fetch an object from a peer's data
// server (spanning-tree distribution, Figure 3b).
type FetchFile struct {
	ID       string
	Name     string
	FromAddr string
	// AltAddrs lists alternate holders' data addresses. On a transfer
	// error against FromAddr the worker's data plane retries these in
	// order before surfacing failure — first-error surrender would
	// otherwise fall back to a full manager restage (§4.3).
	AltAddrs []string
	// Source is the worker ID serving the fetch; the worker echoes it
	// in its FileAck so the manager can return the source's transfer
	// slot even when its own fetch record was displaced by recovery.
	Source string
	Cache  bool
	Unpack bool
	// Shared redirects the fetch to the shared filesystem tier: the
	// object was spilled there and no live worker holds a cache copy.
	// FromAddr/AltAddrs are unused on this path.
	Shared bool
	// Own marks the fetched object as owned on arrival (a shared-tier
	// promote: the fetching worker becomes the ref's new holder of
	// record and must protect the copy from plain eviction).
	Own bool
	// Size is the object's logical size, needed for shared-tier fetches
	// where no peer FileHdr travels with the bytes.
	Size int64
}

// SpillObject demotes one owned object to the shared tier
// (MsgSpillObject).
type SpillObject struct {
	ID string
}

// OwnObject transfers ownership of a cached object to this worker
// (MsgOwnObject).
type OwnObject struct {
	ID string
}

// FileAck confirms (or denies) that an object is now cached. Cache
// echoes whether the object was staged as worker-resident (so the
// manager only records durable replicas as transfer sources).
type FileAck struct {
	ID    string
	Ok    bool
	Cache bool
	// Source echoes FetchFile.Source for peer fetches ("" for direct
	// puts), closing the transfer-slot accounting loop.
	Source string
	Err    string
}

// LibraryAck reports library installation outcome.
type LibraryAck struct {
	Library string
	// Instance distinguishes multiple instances of one library across
	// workers (share-value accounting).
	Instance string
	Ok       bool
	Err      string
	// Retryable marks a failed install as infrastructure-caused (inputs
	// not staged, no resources) rather than a broken library; the
	// manager redeploys without counting it toward quarantine.
	Retryable bool
	// SetupTime is the context-setup duration in seconds (Table 5, L3
	// library row).
	SetupTime float64
}

// RemoveLibrary evicts a library instance by name.
type RemoveLibrary struct {
	Library string
}

// GetFile requests an object from a peer data server.
type GetFile struct {
	ID string
}

// ErrorMsg is a generic failure answer.
type ErrorMsg struct {
	Err string
}

// LogMsg is a worker diagnostic surfaced to the manager (MsgLog).
type LogMsg struct {
	Worker string
	Text   string
}

// Shutdown tells a worker to exit (MsgShutdown); its body is the
// marker alone.
type Shutdown struct{}

// Conn is a framed, type-tagged message connection. Reads and writes
// are independently serialized, so one goroutine may receive while
// others send.
//
// Reads are buffered: the dispatch plane's hot path is thousands of
// small control frames per second, and an unbuffered framed read costs
// two syscalls per frame (length prefix, then body). The internal
// reader amortizes that to one syscall per burst of control frames. It
// is small: a frame longer than it has its first piece waited for in a
// chunk borrowed from a process-wide pool (recvLong), so a connection
// reserves nothing for the large frames it may one day receive.
//
// Writes go through one outbound queue of encoded frames (queue.go), so
// a burst of K frames costs one write syscall instead of K. Send and
// SendBulk write the queue first: frames reach the peer in the order
// they were queued or sent.
type Conn struct {
	rw   io.ReadWriter
	br   *bufio.Reader
	rmu  sync.Mutex
	rbuf []byte // RecvReuse's per-connection frame buffer

	// wmu is held by whoever writes to rw, and guards spare, the last batch
	// written, kept for the next swap. qmu guards the rest and is never held
	// across a write.
	wmu   sync.Mutex
	spare outbound
	qmu   sync.Mutex
	pend  outbound      // the queue
	limit int           // its bound in frames; 0: none
	room  chan struct{} // made by a Queue at the bound, closed by the next take
	wake  chan struct{} // the one-slot wake channel
}

// readBufSize is the framed reader's buffer, one per connection: large
// enough to drain a burst of control frames per syscall. Longer frames
// pass through it (bufio hands a read this size or larger straight to
// the stream), so it need not be sized for them.
const readBufSize = 4 << 10

// NewConn wraps a stream in a framed message connection.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{rw: rw, br: bufio.NewReaderSize(rw, readBufSize), wake: make(chan struct{}, 1)}
}

// oneShotPool recycles one-shot connections, each with its read buffer:
// a peer exchange is one request and one response, and a fresh
// connection record and reader per exchange are garbage the moment the
// answer has arrived.
var oneShotPool = sync.Pool{New: func() any { return &Conn{br: bufio.NewReaderSize(nil, readBufSize)} }}

// OneShot runs one exchange over rw on a framed connection borrowed,
// with its read buffer, from a pool for the duration of f. The connection
// must not be used once f has returned. What f received stays valid (a
// bulk frame's payload included): frames pass through the pooled buffer
// into buffers of their own and are never handed out from it.
func OneShot(rw io.ReadWriter, f func(*Conn)) {
	c := oneShotPool.Get().(*Conn)
	c.rw = rw
	c.br.Reset(rw)
	defer func() {
		// Drop the stream before the connection goes back, so the pool
		// pins no closed connection.
		br := c.br
		br.Reset(nil)
		*c = Conn{br: br}
		oneShotPool.Put(c)
	}()
	f(c)
}

// bufferPool is the encode-buffer supply contract. The default is a
// sync.Pool; tests swap in a counting pool to prove the pool
// discipline below: every Get is returned by a Put on every path,
// success or error (leak_test.go).
type bufferPool interface {
	Get() *bytes.Buffer
	Put(*bytes.Buffer)
}

type syncBufPool struct{ p sync.Pool }

func (s *syncBufPool) Get() *bytes.Buffer  { return s.p.Get().(*bytes.Buffer) }
func (s *syncBufPool) Put(b *bytes.Buffer) { s.p.Put(b) }

// encPool recycles the per-send encode buffers so the steady-state
// message stream (acks, results, dispatches) allocates no temporaries.
var encPool bufferPool = &syncBufPool{p: sync.Pool{New: func() any { return new(bytes.Buffer) }}}

// maxPooledBuf bounds what goes back in the pool: an occasional giant
// frame must not pin megabytes inside it.
const maxPooledBuf = 1 << 20

// getEncBuf takes a reset encode buffer from the pool. Pool
// discipline: every getEncBuf must be paired with a dominating
// `defer putEncBuf` so error returns cannot leak buffers.
func getEncBuf() *bytes.Buffer {
	buf := encPool.Get()
	buf.Reset()
	return buf
}

func putEncBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		encPool.Put(buf)
	}
}

// Send encodes v as a frame of the given type and writes it with a
// single Write call, after the frames queued before it.
func (c *Conn) Send(t MsgType, v any) error { return c.SendBulk(t, v, nil) }

// encodeFrame appends one [length][type][body] frame to buf, whose length
// counts extra bytes more: a bulk frame's payload, written after it. v
// must be a value whose codec.go body is a body of t; anything else is an
// error.
func encodeFrame(buf *bytes.Buffer, t MsgType, v any, extra int) error {
	start := buf.Len()
	buf.Write([]byte{0, 0, 0, 0, byte(t)})
	if err := writeBody(buf, t, v); err != nil {
		return err
	}
	frame := buf.Bytes()[start:]
	n := len(frame) - 4 + extra
	if n > MaxFrame {
		return fmt.Errorf("proto: frame too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	return nil
}

// SendBulk writes a bulk frame: the binary header hdr followed by the
// raw payload bytes. The payload is written directly from the caller's
// slice — never base64-encoded, never copied into a staging buffer — so
// shipping a multi-MB object costs one small header regardless of
// payload size. The frame is assembled in a pooled buffer and written
// after the frames queued before it.
//
// Wire layout inside the standard [length][type] frame:
//
//	[header][payload bytes]
//
// The header delimits itself, so the payload is whatever follows it.
func (c *Conn) SendBulk(t MsgType, hdr any, payload []byte) error {
	buf := getEncBuf()
	defer putEncBuf(buf)
	if err := encodeFrame(buf, t, hdr, len(payload)); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.flushLocked(); err != nil {
		return err
	}
	what := "frame"
	if t.bulk() {
		what = "bulk frame header"
	}
	if _, err := c.rw.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("proto: writing %s: %w", what, err)
	}
	if len(payload) == 0 {
		return nil
	}
	if _, err := c.rw.Write(payload); err != nil {
		return fmt.Errorf("proto: writing bulk frame payload: %w", err)
	}
	return nil
}

// Recv reads the next frame, returning its type and raw payload in a
// fresh buffer the caller may retain.
func (c *Conn) Recv() (MsgType, []byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	buf, err := c.recvFrame(nil)
	if err != nil {
		return 0, nil, err
	}
	return MsgType(buf[0]), buf[1:], nil
}

// RecvReuse reads the next frame like Recv, but the returned payload
// aliases a per-connection buffer that the next RecvReuse call will
// overwrite. The receive loops of the manager and worker process tens
// of thousands of small control frames per second and decode each one
// before reading the next, so reusing one buffer removes a per-frame
// allocation (and its zeroing) from the dispatch hot path. Callers
// that retain any part of a control frame past the next receive must
// copy it first. A bulk frame is the exception: its body is the object,
// so it always arrives in a buffer of its own that the caller owns, as
// from Recv — the object's bytes are allocated once, here. The scratch
// buffer grows to the longest control frame received, up to a first
// piece: a longer one is allocated for itself and not kept, so one long
// frame does not pin its size for the life of the connection.
func (c *Conn) RecvReuse() (MsgType, []byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	buf, err := c.recvFrame(c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	t := MsgType(buf[0])
	if !t.bulk() && cap(buf) <= firstPiece {
		c.rbuf = buf
	}
	return t, buf[1:], nil
}

// bulk reports whether frames of this type carry object bytes.
func (t MsgType) bulk() bool { return t == MsgPutFileBulk || t == MsgFileDataBulk }

// recvTrust bounds a frame buffer to this many times the body bytes that
// have really arrived. The first piece of a body is waited for before
// anything is allocated, so a frame of up to recvTrust first pieces
// (4 MiB) is allocated exactly once at its exact size; a longer one grows
// in steps of the same factor.
const recvTrust = 64

// firstPiece is how much of a frame longer than the read buffer is
// waited for, in a chunk from chunkPool, before the frame's own buffer
// is allocated.
const firstPiece = 64 << 10

// chunkPool lends first-piece chunks. A chunk is held only while its
// piece arrives and is copied out, so the whole process needs about as
// many chunks as it has connections receiving a long frame at once.
var chunkPool = sync.Pool{New: func() any { return new([firstPiece]byte) }}

// recvFrame reads one frame body into scratch, or into a new buffer of
// exactly the frame's size when scratch is too small or the frame is a
// bulk one. The length prefix alone sizes nothing: a malicious or broken
// peer that claims MaxFrame gets a buffer only recvTrust times what it
// has actually sent, and none at all for a prefix with nothing behind it.
func (c *Conn) recvFrame(scratch []byte) ([]byte, error) {
	// The length prefix and the body's first byte, the frame type.
	hdr, err := c.br.Peek(5)
	if err != nil {
		if len(hdr) == 0 {
			return nil, err
		}
		return nil, truncated(err)
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < 1 || n > MaxFrame {
		return nil, fmt.Errorf("proto: bad frame length %d", n)
	}
	bulk := MsgType(hdr[4]).bulk()
	if _, err := c.br.Discard(4); err != nil {
		return nil, err
	}
	if n <= cap(scratch) && !bulk {
		if _, err := io.ReadFull(c.br, scratch[:n]); err != nil {
			return nil, fmt.Errorf("proto: reading frame body: %w", err)
		}
		return scratch[:n], nil
	}
	// A read buffer's worth of the body, or all of a shorter one, arrives
	// before anything is taken, pooled or not.
	if _, err := c.br.Peek(min(n, c.br.Size())); err != nil {
		return nil, fmt.Errorf("proto: reading frame body: %w", truncated(err))
	}
	if n > c.br.Size() {
		return c.recvLong(n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, fmt.Errorf("proto: reading frame body: %w", err)
	}
	return buf, nil
}

// recvLong reads the body of a frame longer than the read buffer into a
// buffer of its own: its first piece into a pooled chunk, then the rest
// into a buffer recvTrust times what has arrived, grown by that factor
// until the frame fits.
func (c *Conn) recvLong(n int) ([]byte, error) {
	buf, have, err := c.recvFirst(n)
	for err == nil {
		if _, err = io.ReadFull(c.br, buf[have:]); err != nil || len(buf) == n {
			break
		}
		grown := make([]byte, min(n, recvTrust*len(buf)))
		// Not a copy statement straight after the make: the compiler would
		// fuse the two into an allocation that clears its tail by hand,
		// where a plain make of fresh pages clears nothing.
		have = copy(grown, buf)
		buf = grown
	}
	if err != nil {
		return nil, fmt.Errorf("proto: reading frame body: %w", truncated(err))
	}
	return buf, nil
}

// recvFirst reads the first piece of an n-byte frame body into a chunk
// borrowed from chunkPool, then copies it into the frame's first buffer.
// It returns that buffer and how much of it is filled.
func (c *Conn) recvFirst(n int) ([]byte, int, error) {
	chunk := chunkPool.Get().(*[firstPiece]byte)
	defer chunkPool.Put(chunk)
	piece := chunk[:min(n, firstPiece)]
	if _, err := io.ReadFull(c.br, piece); err != nil {
		return nil, 0, err
	}
	buf := make([]byte, min(n, recvTrust*len(piece)))
	return buf, copy(buf, piece), nil
}

// truncated is the error for a stream that ended inside a frame.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WithIdleTimeout returns a conn that arms a fresh read (write)
// deadline before every Read (Write), turning the absolute deadline
// into an idle timeout: any single I/O operation that makes no
// progress for d fails with a timeout error instead of blocking
// forever. A transfer that keeps moving bytes is never cut off, no
// matter how large. d <= 0 returns nc unchanged.
func WithIdleTimeout(nc net.Conn, d time.Duration) net.Conn {
	if d <= 0 {
		return nc
	}
	return &idleConn{Conn: nc, idle: d}
}

type idleConn struct {
	net.Conn
	idle time.Duration
}

func (c *idleConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *idleConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.idle)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}
