// Package worker implements the TaskVine worker as a layered runtime:
//
//   - This file is the control layer: connection lifecycle plus a
//     non-blocking message loop that only decodes frames and
//     dispatches. Nothing here performs network transfers or runs
//     user code, so one slow peer or long task can never stall the
//     message stream.
//   - internal/dataplane owns object staging: asynchronous peer
//     fetches on a bounded pool with single-flight dedup, the cache
//     state machine, and the concurrency-capped peer serve side.
//   - exec.go is the executor layer: tasks, invocations, and library
//     lifecycle, reaching staged objects only through the data
//     plane's Pin/Resolve.
//
// Together they implement the per-node process of §3.3-3.4: cache
// content-addressed data, execute stateless tasks in sandboxes, host
// library instances that retain function contexts, and serve the
// cache to peers for spanning-tree distribution.
package worker

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/modlib"
	"repro/internal/proto"
	"repro/internal/sharedfs"
)

// Config configures a worker.
type Config struct {
	ID        string
	Resources core.Resources
	// Cluster is the network-locality group name (Figure 3c).
	Cluster string
	// GFlops rates this machine's compute speed (Table 3).
	GFlops float64
	// CacheCapacity bounds the local cache in bytes (0 = unlimited).
	CacheCapacity int64
	// Registry supplies module implementations for task and library
	// interpreters. Nil means no modules are importable.
	Registry *modlib.Registry
	// SharedFS is the shared filesystem L1 tasks read from; nil
	// disables shared FS reads.
	SharedFS *sharedfs.Store
	// Out receives task print output (nil discards).
	Out io.Writer
	// StepLimit bounds interpreter steps per task/invocation (0 = the
	// default of 50M).
	StepLimit int64
	// PeerIOTimeout bounds idle time on peer data-plane connections:
	// a fetch or serve that makes no progress for this long is aborted
	// instead of wedging the transfer forever behind a hung peer. Zero
	// defaults to 30s.
	PeerIOTimeout time.Duration
	// FetchConcurrency bounds concurrent peer fetches on the data
	// plane (0 = the dataplane default). A stalled source costs one
	// pool slot; everything else keeps moving.
	FetchConcurrency int
	// ServeConcurrency bounds concurrent peer-serve connections
	// (0 = the dataplane default).
	ServeConcurrency int
	// WrapDataListener, when set, wraps the peer data listener before
	// serving — the hook fault-injection tests use to stall or cut
	// peer transfers.
	WrapDataListener func(net.Listener) net.Listener
}

const (
	defaultStepLimit     = 50_000_000
	defaultPeerIOTimeout = 30 * time.Second
	// managerDialTimeout bounds the initial dial to the manager so a
	// wrong address or partitioned manager fails fast instead of
	// hanging in the kernel's connect queue.
	managerDialTimeout = 10 * time.Second
)

// Stats is a snapshot of the worker's own counters.
type Stats struct {
	// ProtocolErrors counts manager frames that failed to decode (or
	// carried an unknown type). Non-zero means version skew or
	// corruption — each one is also reported to the manager as a log
	// line.
	ProtocolErrors int64
	// Data is the data plane's staging counters.
	Data dataplane.Stats
}

// Worker is a running worker.
type Worker struct {
	cfg   Config
	cache *content.Cache
	plane *dataplane.Plane
	exec  *executor
	conn  *proto.Conn

	dataLn   net.Listener
	dataAddr string

	mu     sync.Mutex
	closed bool

	// sendq feeds the single sender goroutine. Slot and task goroutines
	// finish work concurrently; funneling their results (and acks)
	// through one drain loop lets a burst of K frames coalesce into one
	// write syscall via the conn's Buffer/Flush pair instead of costing
	// K syscalls from K goroutines.
	sendq chan outFrame

	protoErrors atomic.Int64

	wg   sync.WaitGroup
	done chan struct{}
}

// outFrame is one queued control frame headed for the manager.
// Results — the once-per-invocation hot payload — travel in the typed
// res field instead of v: boxing each core.Result into an interface
// would cost one heap allocation per completion.
type outFrame struct {
	t      proto.MsgType
	v      any
	res    core.Result
	hasRes bool
}

// sendQueueSize bounds the outbound frame queue. Results are small and
// the sender drains in batches, so the queue only fills if the manager
// link itself has stalled — then enqueues block, which is the right
// backpressure.
const sendQueueSize = 1024

// New creates a worker (not yet connected).
func New(cfg Config) *Worker {
	if cfg.ID == "" {
		cfg.ID = "worker"
	}
	if cfg.Resources.Cores == 0 {
		cfg.Resources.Cores = 32
	}
	if cfg.Resources.MemoryMB == 0 {
		cfg.Resources.MemoryMB = 64 << 10
	}
	if cfg.Resources.DiskMB == 0 {
		cfg.Resources.DiskMB = 64 << 10
	}
	if cfg.StepLimit == 0 {
		cfg.StepLimit = defaultStepLimit
	}
	if cfg.PeerIOTimeout == 0 {
		cfg.PeerIOTimeout = defaultPeerIOTimeout
	}
	w := &Worker{
		cfg:   cfg,
		cache: content.NewCache(cfg.CacheCapacity),
		sendq: make(chan outFrame, sendQueueSize),
		done:  make(chan struct{}),
	}
	pcfg := dataplane.Config{
		Cache:            w.cache,
		FetchConcurrency: cfg.FetchConcurrency,
		ServeConcurrency: cfg.ServeConcurrency,
		IdleTimeout:      cfg.PeerIOTimeout,
	}
	// The shared filesystem doubles as the data plane's spill tier; the
	// explicit nil check keeps a nil *Store from becoming a non-nil
	// interface.
	if cfg.SharedFS != nil {
		pcfg.Shared = cfg.SharedFS
	}
	w.plane = dataplane.New(pcfg)
	w.exec = newExecutor(w)
	return w
}

// Cache exposes the worker's content cache (tests and metrics).
func (w *Worker) Cache() *content.Cache { return w.cache }

// Plane exposes the worker's data plane (tests and metrics).
func (w *Worker) Plane() *dataplane.Plane { return w.plane }

// ID returns the worker's identifier.
func (w *Worker) ID() string { return w.cfg.ID }

// DataAddr returns the address peers fetch cached objects from.
func (w *Worker) DataAddr() string { return w.dataAddr }

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() Stats {
	return Stats{
		ProtocolErrors: w.protoErrors.Load(),
		Data:           w.plane.Snapshot(),
	}
}

// Connect dials the manager, starts the peer data server, and begins
// serving messages. It returns once the hello has been sent; message
// processing continues in background goroutines until Shutdown or
// connection loss.
func (w *Worker) Connect(managerAddr string) error {
	conn, err := net.DialTimeout("tcp", managerAddr, managerDialTimeout)
	if err != nil {
		return fmt.Errorf("worker %s: dialing manager: %w", w.cfg.ID, err)
	}
	return w.Serve(conn)
}

// Serve runs the worker over an established manager connection.
func (w *Worker) Serve(nc net.Conn) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("worker %s: starting data server: %w", w.cfg.ID, err)
	}
	if w.cfg.WrapDataListener != nil {
		ln = w.cfg.WrapDataListener(ln)
	}
	w.dataLn = ln
	w.dataAddr = ln.Addr().String()
	// The manager control link is idle by design between work bursts
	// (a worker may legitimately sit minutes without a dispatch), so it
	// carries no idle deadline; liveness is the manager's job via its
	// per-worker send deadlines and gone-detection (§7).
	w.conn = proto.NewConn(nc) //vinelint:ignore ctxdeadline control link is idle-by-design; manager side owns liveness detection

	hello := proto.Hello{
		WorkerID:      w.cfg.ID,
		Resources:     w.cfg.Resources,
		Cluster:       w.cfg.Cluster,
		DataAddr:      w.dataAddr,
		MachineGFlops: w.cfg.GFlops,
	}
	if err := w.conn.Send(proto.MsgHello, hello); err != nil {
		return err
	}

	w.wg.Add(4)
	go func() {
		defer w.wg.Done()
		w.plane.Serve(ln)
	}()
	go func() {
		defer w.wg.Done()
		w.loop(nc)
	}()
	go func() {
		defer w.wg.Done()
		w.sendLoop()
	}()
	// Sever the manager link on Shutdown so the manager observes the
	// worker's departure immediately (and requeues its work) instead of
	// holding a half-dead connection open.
	go func() {
		defer w.wg.Done()
		<-w.done
		nc.Close()
	}()
	return nil
}

// Wait blocks until the worker has shut down and its background work
// (in-flight transfers, serve connections) has drained.
func (w *Worker) Wait() {
	w.wg.Wait()
	w.plane.Wait()
}

// Shutdown stops the worker.
func (w *Worker) Shutdown() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.exec.stop()
	if w.dataLn != nil {
		w.dataLn.Close()
	}
	w.plane.Close()
}

// loop is the control loop: it decodes manager frames and dispatches
// them, and must never block on network transfers or execution. Peer
// fetches go to the data plane's pool; a task or a library install runs
// on a goroutine of its own; an invocation is appended to its library's
// queue, which the library's own slot goroutines serve (exec.go), so
// nothing is started per invocation. Only in-memory work (puts, input
// claims, that append, library removal) runs inline, which makes frame
// order queue order: a direct library serves invocations in the order
// their frames arrived, and a removal frame divides them — every
// invocation before it is queued and will be answered, every one after
// it finds no library.
func (w *Worker) loop(nc net.Conn) {
	defer nc.Close()
	// strs interns the identifier strings every invocation repeats
	// (library, function) — used only by this loop goroutine.
	var strs proto.Interner
	for {
		// RecvReuse: every case below decodes (copying what it keeps)
		// before the next receive. A bulk frame's payload needs no copy:
		// it arrives in a buffer of its own and becomes the object's bytes.
		t, raw, err := w.conn.RecvReuse()
		if err != nil {
			w.Shutdown()
			return
		}
		switch t {
		case proto.MsgPutFileBulk:
			hdr, payload, err := proto.DecodeBulk[proto.PutFileHdr](raw)
			if err != nil {
				w.protocolError(t, err)
				continue
			}
			w.handlePutFileBulk(hdr, payload)
		case proto.MsgFetchFile:
			msg, err := proto.Decode[proto.FetchFile](raw)
			if err != nil {
				w.protocolError(t, err)
				continue
			}
			w.handleFetchFile(msg)
		case proto.MsgSpillObject:
			msg, err := proto.Decode[proto.SpillObject](raw)
			if err != nil {
				w.protocolError(t, err)
				continue
			}
			w.handleSpillObject(msg)
		case proto.MsgOwnObject:
			msg, err := proto.Decode[proto.OwnObject](raw)
			if err != nil {
				w.protocolError(t, err)
				continue
			}
			w.handleOwnObject(msg)
		case proto.MsgRunTask:
			msg, err := proto.DecodeTask(raw)
			if err != nil {
				w.protocolError(t, err)
				continue
			}
			w.exec.claimInputs(msg)
			w.spawn(func() { w.exec.runTask(msg) })
		case proto.MsgInstallLibrary:
			msg, err := proto.DecodeLibrary(raw)
			if err != nil {
				w.protocolError(t, err)
				continue
			}
			w.spawn(func() { w.exec.installLibrary(msg) })
		case proto.MsgRemoveLibrary:
			msg, err := proto.Decode[proto.RemoveLibrary](raw)
			if err != nil {
				w.protocolError(t, err)
				continue
			}
			w.exec.removeLibrary(msg.Library)
		case proto.MsgInvoke:
			msg, err := proto.DecodeInvocationInterned(raw, &strs)
			if err != nil {
				w.protocolError(t, err)
				continue
			}
			w.exec.invoke(msg)
		case proto.MsgShutdown:
			w.Shutdown()
			return
		default:
			w.protocolError(t, fmt.Errorf("unknown message type"))
		}
	}
}

// stopping reports whether Shutdown has begun.
func (w *Worker) stopping() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

func (w *Worker) spawn(f func()) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		f()
	}()
}

// protocolError counts an undecodable (or unknown) manager frame and
// surfaces it to the manager as a log line instead of dropping it
// silently: a frame we cannot decode means version skew or corruption,
// and the work it carried is lost — someone must find out.
func (w *Worker) protocolError(t proto.MsgType, err error) {
	w.protoErrors.Add(1)
	_ = w.conn.Send(proto.MsgLog, proto.LogMsg{
		Worker: w.cfg.ID,
		Text:   fmt.Sprintf("protocol error: %v frame: %v", t, err),
	})
}

// Staging-message handlers (PutFile, FetchFile, acks) live in
// staging.go; wire-format conversion helpers live in wire.go.

func (w *Worker) sendResult(res core.Result) {
	res.Metrics.WorkerID = w.cfg.ID
	select {
	case w.sendq <- outFrame{t: proto.MsgResult, res: res, hasRes: true}:
	case <-w.done:
	}
}

// sendMsg queues a result or ack for the manager unless the worker is
// shutting down. Once Shutdown has begun, execution aborts (PinResolve
// fails, libraries die) for reasons that are not the work's fault; the
// manager must learn of them from the connection closing — which
// requeues everything in flight — not from a racing "shutting down"
// failure result that would burn the spec's retry budget.
func (w *Worker) sendMsg(t proto.MsgType, v any) {
	select {
	case w.sendq <- outFrame{t: t, v: v}:
	case <-w.done:
	}
}

// sendLoop is the single writer on the manager link: it blocks for one
// frame, then drains everything already queued into the conn's pending
// buffer and flushes once, so a completion burst coalesces into a
// single write syscall. Its producers — a library's slot goroutines,
// one goroutine per task or install — give up on a full queue once the
// worker is shutting down, so none outlives Wait. Write errors are
// ignored here for the same reason sendMsg ignores shutdown: a broken
// manager link is reported by the read loop tearing the worker down.
func (w *Worker) sendLoop() {
	// scratch is one stable heap slot for unboxed result frames: Buffer
	// encodes synchronously, so the pointer never outlives the call and
	// every result frame reuses the same allocation.
	var scratch core.Result
	buffer := func(f outFrame) {
		if f.hasRes {
			scratch = f.res
			_ = w.conn.Buffer(f.t, &scratch)
			return
		}
		_ = w.conn.Buffer(f.t, f.v)
	}
	for {
		var f outFrame
		select {
		case f = <-w.sendq:
		case <-w.done:
			return
		}
		buffer(f)
		yielded := false
		for {
			select {
			case f = <-w.sendq:
				buffer(f)
				continue
			default:
			}
			// One cooperative yield before flushing lets same-core slot
			// goroutines finish results into the queue, so the
			// flush coalesces a completion burst into one write syscall.
			if !yielded {
				yielded = true
				runtime.Gosched()
				continue
			}
			break
		}
		_ = w.conn.Flush()
	}
}
