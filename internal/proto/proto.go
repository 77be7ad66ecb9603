// Package proto implements the wire protocol between the manager, its
// workers, and worker data servers: length-prefixed, type-tagged
// frames over any net.Conn. It carries the message vocabulary of §3.4:
// file staging (direct and peer-to-peer), task execution, library
// installation and removal, invocations, and results.
//
// Control messages are JSON, except the four with a binary body in
// codec.go. Object bytes move only as bulk frames (MsgPutFileBulk,
// MsgFileDataBulk): a small JSON header followed by the raw payload, so
// a multi-MB environment tarball is written straight from its backing
// slice — no base64 expansion and no second in-memory copy on either
// side of the connection. No other frame carries object bytes.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
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
	// a PutFileHdr JSON header followed by the raw object bytes.
	MsgPutFileBulk
	// MsgFileDataBulk answers MsgGetFile as a bulk frame: a FileHdr
	// JSON header followed by the raw object bytes.
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
	WorkerID  string         `json:"worker_id"`
	Resources core.Resources `json:"resources"`
	// Cluster names the worker's network locality group (Figure 3c).
	Cluster string `json:"cluster,omitempty"`
	// DataAddr is where peers can fetch this worker's cached objects.
	DataAddr string `json:"data_addr,omitempty"`
	// MachineGFlops is the worker machine's compute rating, used for
	// heterogeneity-aware metrics.
	MachineGFlops float64 `json:"machine_gflops,omitempty"`
}

// FileHdr describes an object whose bytes travel out-of-band in the
// binary part of a bulk frame.
type FileHdr struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Kind         int    `json:"kind"`
	LogicalSize  int64  `json:"logical_size"`
	UnpackedSize int64  `json:"unpacked_size,omitempty"`
}

// HdrOf describes o for a bulk frame that carries o.Data as its payload.
func HdrOf(o *content.Object) FileHdr {
	return FileHdr{ID: o.ID, Name: o.Name, Kind: int(o.Kind), LogicalSize: o.LogicalSize, UnpackedSize: o.UnpackedSize}
}

// Object assembles the object a bulk frame carried from its header and
// raw payload; data is retained as-is, no copy.
func (h FileHdr) Object(data []byte) *content.Object {
	return &content.Object{ID: h.ID, Name: h.Name, Kind: content.Kind(h.Kind), Data: data, LogicalSize: h.LogicalSize, UnpackedSize: h.UnpackedSize}
}

// PutFileHdr is the JSON header of a MsgPutFileBulk frame; the object
// bytes follow as the frame's binary payload.
type PutFileHdr struct {
	File  FileHdr `json:"file"`
	Cache bool    `json:"cache"`
	// Unpack asks the worker to expand the tarball after caching.
	Unpack bool `json:"unpack"`
}

// FetchFile instructs a worker to fetch an object from a peer's data
// server (spanning-tree distribution, Figure 3b).
type FetchFile struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	FromAddr string `json:"from_addr"`
	// AltAddrs lists alternate holders' data addresses. On a transfer
	// error against FromAddr the worker's data plane retries these in
	// order before surfacing failure — first-error surrender would
	// otherwise fall back to a full manager restage (§4.3).
	AltAddrs []string `json:"alt_addrs,omitempty"`
	// Source is the worker ID serving the fetch; the worker echoes it
	// in its FileAck so the manager can return the source's transfer
	// slot even when its own fetch record was displaced by recovery.
	Source string `json:"source,omitempty"`
	Cache  bool   `json:"cache"`
	Unpack bool   `json:"unpack"`
	// Shared redirects the fetch to the shared filesystem tier: the
	// object was spilled there and no live worker holds a cache copy.
	// FromAddr/AltAddrs are unused on this path.
	Shared bool `json:"shared,omitempty"`
	// Own marks the fetched object as owned on arrival (a shared-tier
	// promote: the fetching worker becomes the ref's new holder of
	// record and must protect the copy from plain eviction).
	Own bool `json:"own,omitempty"`
	// Size is the object's logical size, needed for shared-tier fetches
	// where no peer FileHdr travels with the bytes.
	Size int64 `json:"size,omitempty"`
}

// SpillObject demotes one owned object to the shared tier
// (MsgSpillObject).
type SpillObject struct {
	ID string `json:"id"`
}

// OwnObject transfers ownership of a cached object to this worker
// (MsgOwnObject).
type OwnObject struct {
	ID string `json:"id"`
}

// FileAck confirms (or denies) that an object is now cached. Cache
// echoes whether the object was staged as worker-resident (so the
// manager only records durable replicas as transfer sources).
type FileAck struct {
	ID    string `json:"id"`
	Ok    bool   `json:"ok"`
	Cache bool   `json:"cache"`
	// Source echoes FetchFile.Source for peer fetches ("" for direct
	// puts), closing the transfer-slot accounting loop.
	Source string `json:"source,omitempty"`
	Err    string `json:"err,omitempty"`
}

// LibraryAck reports library installation outcome.
type LibraryAck struct {
	Library string `json:"library"`
	// Instance distinguishes multiple instances of one library across
	// workers (share-value accounting).
	Instance string `json:"instance"`
	Ok       bool   `json:"ok"`
	Err      string `json:"err,omitempty"`
	// Retryable marks a failed install as infrastructure-caused (inputs
	// not staged, no resources) rather than a broken library; the
	// manager redeploys without counting it toward quarantine.
	Retryable bool `json:"retryable,omitempty"`
	// SetupTime is the context-setup duration in seconds (Table 5, L3
	// library row).
	SetupTime float64 `json:"setup_time"`
}

// RemoveLibrary evicts a library instance by name.
type RemoveLibrary struct {
	Library string `json:"library"`
}

// GetFile requests an object from a peer data server.
type GetFile struct {
	ID string `json:"id"`
}

// ErrorMsg is a generic failure answer.
type ErrorMsg struct {
	Err string `json:"err"`
}

// LogMsg is a worker diagnostic surfaced to the manager (MsgLog).
type LogMsg struct {
	Worker string `json:"worker"`
	Text   string `json:"text"`
}

// Conn is a framed, type-tagged message connection. Reads and writes
// are independently serialized, so one goroutine may receive while
// others send.
//
// Reads are buffered: the dispatch plane's hot path is thousands of
// small control frames per second, and an unbuffered framed read costs
// two syscalls per frame (length prefix, then body). The internal
// reader amortizes that to one syscall per kernel-buffer drain.
//
// Writes support explicit coalescing: Send writes one frame in one
// syscall (as before), while Buffer appends a frame to a pending
// buffer and Flush writes everything pending at once — the sender
// loops of the manager and worker drain their outbound queues through
// Buffer and flush once per drain, so a dispatch burst of K frames
// costs one write syscall instead of K. Ordering between Send,
// Buffer/Flush, and SendBulk is preserved: every path drains the
// pending buffer first under the shared write lock.
type Conn struct {
	rw   io.ReadWriter
	br   *bufio.Reader
	rmu  sync.Mutex
	rbuf []byte // RecvReuse's per-connection frame buffer
	wmu  sync.Mutex
	pend bytes.Buffer // frames buffered by Buffer, awaiting Flush
}

// readBufSize is the framed reader's buffer: large enough to drain a
// burst of control frames per syscall, small enough to be irrelevant
// next to a worker's data-plane transfers.
const readBufSize = 64 << 10

// NewConn wraps a stream in a framed message connection.
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{rw: rw, br: bufio.NewReaderSize(rw, readBufSize)}
}

// readerPool recycles the read buffers of one-shot connections: a peer
// transfer is one request and one response, and a fresh 64 KB reader per
// transfer is garbage the moment the object has arrived.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readBufSize) }}

// OneShot runs one exchange over rw on a framed connection whose read
// buffer is borrowed from a pool for the duration of f. The connection
// must not be used once f has returned. What f received stays valid (a
// bulk frame's payload included): frames pass through the pooled buffer
// into buffers of their own and are never handed out from it.
func OneShot(rw io.ReadWriter, f func(*Conn)) {
	br := readerPool.Get().(*bufio.Reader)
	defer readerPool.Put(br)
	br.Reset(rw)
	// Drop the stream before the reader goes back, so the pool pins no
	// closed connection.
	defer br.Reset(nil)
	f(&Conn{rw: rw, br: br})
}

// bufferPool is the encode-buffer supply contract. The default is a
// sync.Pool; tests swap in a counting pool to prove the pool
// discipline below — every Get is returned by a Put on every path,
// success or error (the pooldiscipline analyzer enforces the
// lexical shape, the leak test the dynamic one).
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

// Send encodes v as a frame of the given type. The frame is assembled
// in a pooled buffer (header placeholder + JSON body) and written with
// a single Write call (after draining any frames pending from Buffer,
// so cross-path ordering holds).
func (c *Conn) Send(t MsgType, v any) error {
	buf := getEncBuf()
	defer putEncBuf(buf)
	if err := encodeFrame(buf, t, v); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.flushLocked(); err != nil {
		return err
	}
	if _, err := c.rw.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("proto: writing frame: %w", err)
	}
	return nil
}

// encodeFrame appends one [length][type][body] frame to buf.
// Invocations, results, tasks and libraries get the binary body of
// codec.go; everything else is JSON.
func encodeFrame(buf *bytes.Buffer, t MsgType, v any) error {
	start := buf.Len()
	buf.Write([]byte{0, 0, 0, 0, byte(t)})
	if !encodeBinaryBody(buf, v) {
		if err := json.NewEncoder(buf).Encode(v); err != nil {
			return fmt.Errorf("proto: encoding %v: %w", t, err)
		}
	}
	frame := buf.Bytes()[start:]
	if len(frame)-4 > MaxFrame {
		return fmt.Errorf("proto: frame too large (%d bytes)", len(frame)-5)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return nil
}

// maxPending bounds the coalescing buffer: a Buffer call that would
// grow it past this flushes first, so a long drain cannot pin
// megabytes before its Flush.
const maxPending = 256 << 10

// Buffer encodes v as a frame into the connection's pending write
// buffer without touching the wire. The frame is not visible to the
// peer until Flush (or any Send/SendBulk, which drain pending frames
// first). An encoding error leaves the pending buffer unchanged.
func (c *Conn) Buffer(t MsgType, v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.pend.Len() > maxPending {
		if err := c.flushLocked(); err != nil {
			return err
		}
	}
	start := c.pend.Len()
	if err := encodeFrame(&c.pend, t, v); err != nil {
		c.pend.Truncate(start)
		return err
	}
	return nil
}

// Flush writes every frame buffered since the last flush in one Write
// call. A no-op when nothing is pending.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

func (c *Conn) flushLocked() error {
	if c.pend.Len() == 0 {
		return nil
	}
	_, err := c.rw.Write(c.pend.Bytes())
	c.pend.Reset()
	if err != nil {
		return fmt.Errorf("proto: flushing frames: %w", err)
	}
	return nil
}

// SendBulk writes a bulk frame: the JSON-encoded header hdr followed
// by the raw payload bytes. The payload is written directly from the
// caller's slice — never base64-encoded, never copied into a staging
// buffer — so shipping a multi-MB object costs one small header
// allocation regardless of payload size.
//
// Wire layout inside the standard [length][type] frame:
//
//	[4B header length][header JSON][payload bytes]
func (c *Conn) SendBulk(t MsgType, hdr any, payload []byte) error {
	buf := getEncBuf()
	defer putEncBuf(buf)
	buf.Write([]byte{0, 0, 0, 0, byte(t), 0, 0, 0, 0})
	if err := json.NewEncoder(buf).Encode(hdr); err != nil {
		return fmt.Errorf("proto: encoding %v header: %w", t, err)
	}
	meta := buf.Bytes()
	hdrLen := len(meta) - 9
	total := 1 + 4 + hdrLen + len(payload)
	if total > MaxFrame {
		return fmt.Errorf("proto: frame too large (%d bytes)", total)
	}
	binary.BigEndian.PutUint32(meta[:4], uint32(total))
	binary.BigEndian.PutUint32(meta[5:9], uint32(hdrLen))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// Drain coalesced frames first: a bulk send must not overtake
	// frames already buffered on this connection.
	if err := c.flushLocked(); err != nil {
		return err
	}
	if _, err := c.rw.Write(meta); err != nil {
		return fmt.Errorf("proto: writing bulk frame header: %w", err)
	}
	if _, err := c.rw.Write(payload); err != nil {
		return fmt.Errorf("proto: writing bulk frame payload: %w", err)
	}
	return nil
}

// SplitBulk separates a received bulk frame body (as returned by Recv
// or RecvReuse) into its JSON header and raw payload. The payload
// aliases the frame's buffer, which a bulk frame never shares with
// another frame — the caller may retain it as the object's bytes.
func SplitBulk(raw []byte) (hdr json.RawMessage, payload []byte, err error) {
	if len(raw) < 4 {
		return nil, nil, fmt.Errorf("proto: bulk frame too short (%d bytes)", len(raw))
	}
	n := int(binary.BigEndian.Uint32(raw[:4]))
	if n < 0 || 4+n > len(raw) {
		return nil, nil, fmt.Errorf("proto: bad bulk header length %d in %d-byte frame", n, len(raw))
	}
	return json.RawMessage(raw[4 : 4+n]), raw[4+n:], nil
}

// DecodeBulk splits a bulk frame and unmarshals its header into T.
func DecodeBulk[T any](raw json.RawMessage) (T, []byte, error) {
	var v T
	hdr, payload, err := SplitBulk(raw)
	if err != nil {
		return v, nil, err
	}
	if err := json.Unmarshal(hdr, &v); err != nil {
		return v, nil, fmt.Errorf("proto: decoding bulk %T header: %w", v, err)
	}
	return v, payload, nil
}

// Recv reads the next frame, returning its type and raw payload in a
// fresh buffer the caller may retain.
func (c *Conn) Recv() (MsgType, json.RawMessage, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	buf, err := c.recvFrame(nil)
	if err != nil {
		return 0, nil, err
	}
	return MsgType(buf[0]), json.RawMessage(buf[1:]), nil
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
// from Recv — the object's bytes are allocated once, here.
func (c *Conn) RecvReuse() (MsgType, json.RawMessage, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	buf, err := c.recvFrame(c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	t := MsgType(buf[0])
	if !t.bulk() && cap(buf) <= maxPooledBuf {
		c.rbuf = buf
	}
	return t, json.RawMessage(buf[1:]), nil
}

// bulk reports whether frames of this type carry object bytes.
func (t MsgType) bulk() bool { return t == MsgPutFileBulk || t == MsgFileDataBulk }

// recvTrust bounds a frame buffer to this many times the body bytes that
// have really arrived. The first piece of a body is waited for in the
// read buffer, so a frame of up to recvTrust read buffers (4 MiB) is
// allocated exactly once at its exact size; a longer one grows in steps
// of the same factor.
const recvTrust = 64

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
	piece, err := c.br.Peek(min(n, c.br.Size()))
	if err != nil {
		return nil, fmt.Errorf("proto: reading frame body: %w", truncated(err))
	}
	var buf []byte
	for arrived := len(piece); len(buf) < n; arrived = len(buf) {
		grown := make([]byte, min(n, recvTrust*arrived))
		// Not make-then-copy back to back: the compiler would fuse the two
		// into an allocation that clears its tail by hand, where a plain
		// make of fresh pages clears nothing.
		if len(buf) > 0 {
			copy(grown, buf)
		}
		if _, err := io.ReadFull(c.br, grown[len(buf):]); err != nil {
			return nil, fmt.Errorf("proto: reading frame body: %w", err)
		}
		buf = grown
	}
	return buf, nil
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

// Decode unmarshals a payload into T.
func Decode[T any](raw json.RawMessage) (T, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("proto: decoding %T: %w", v, err)
	}
	return v, nil
}
