package dataplane

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/proto"
)

// raceDetector is set under -race (race_flag_test.go), where sync.Pool
// drops what it is given at random and a borrowed reader is sometimes
// new.
var raceDetector bool

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return nc, err
}

func listen(t *testing.T) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &countingListener{Listener: ln}
}

// servingPlane starts a plane holding objs and serving peers on a
// counting listener. Cleanup closes the listener and the plane and waits
// for both.
func servingPlane(t *testing.T, cfg Config, objs ...*content.Object) (*Plane, *countingListener) {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = content.NewCache(0)
	}
	p := New(cfg)
	for _, o := range objs {
		if err := p.Put(o, false); err != nil {
			t.Fatal(err)
		}
	}
	ln := listen(t)
	served := make(chan struct{})
	go func() {
		defer close(served)
		p.Serve(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		p.Close()
		p.Wait()
		<-served
	})
	return p, ln
}

// client is a plane that only fetches.
func client(t *testing.T, idle time.Duration) *Plane {
	t.Helper()
	p := New(Config{Cache: content.NewCache(0), IdleTimeout: idle})
	t.Cleanup(func() {
		p.Close()
		p.Wait()
	})
	return p
}

// fetchVia stages one object through the plane's Fetch, as the worker does.
func fetchVia(t *testing.T, p *Plane, addr, id string) error {
	t.Helper()
	done := make(chan error, 1)
	p.Fetch(Request{ID: id, Addr: addr}, func(err error) { done <- err })
	return waitDone(t, done, 1)[0]
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("waited 1 s for %s", what)
		}
	}
}

func (p *Plane) inboundLinks() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for l := p.inbound; l != nil; l = l.next {
		n++
	}
	return n
}

// TestPeerLinkIsReused: sequential fetches from one peer travel over one
// connection, kept idle between them.
func TestPeerLinkIsReused(t *testing.T) {
	obj := content.NewBlob("reused.bin", []byte("payload"))
	_, ln := servingPlane(t, Config{}, obj)
	c := client(t, 10*time.Second)
	for i := 0; i < 20; i++ {
		got, err := c.FetchPeer(ln.Addr().String(), obj.ID)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if got.ID != obj.ID {
			t.Fatalf("fetch %d got %s, want %s", i, got.ID, obj.ID)
		}
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Errorf("20 fetches opened %d connections, want 1", n)
	}
}

// TestStaleLinkRedials: a link the peer closed while it sat idle fails
// before any byte of the response arrives; the fetch is tried once more
// on a fresh dial and succeeds, counted neither as an alternate-source
// retry nor as an error.
func TestStaleLinkRedials(t *testing.T) {
	a := content.NewBlob("a.bin", []byte("first"))
	b := content.NewBlob("b.bin", []byte("second"))
	server, ln := servingPlane(t, Config{IdleTimeout: 50 * time.Millisecond}, a, b)
	c := client(t, 10*time.Second)
	addr := ln.Addr().String()
	if err := fetchVia(t, c, addr, a.ID); err != nil {
		t.Fatal(err)
	}
	// The server drops the idle link at its deadline.
	waitFor(t, "the server to drop the idle link", func() bool { return server.inboundLinks() == 0 })
	if err := fetchVia(t, c, addr, b.ID); err != nil {
		t.Fatalf("fetch over a stale link: %v", err)
	}
	st := c.Snapshot()
	if st.AltSourceRetries != 0 || st.FetchErrors != 0 {
		t.Errorf("AltSourceRetries = %d, FetchErrors = %d; want 0 and 0", st.AltSourceRetries, st.FetchErrors)
	}
	if n := ln.accepted.Load(); n != 2 {
		t.Errorf("accepted %d connections, want 2 (the stale link, then its redial)", n)
	}
}

// TestLinkWithTrailingBytesIsNotReused: a peer that writes anything after
// its answer leaves the link out of step, so the fetch keeps the object
// and drops the link; the next fetch dials afresh and reads a clean answer.
func TestLinkWithTrailingBytesIsNotReused(t *testing.T) {
	obj := content.NewBlob("trailing.bin", []byte("payload"))
	var answer bytes.Buffer
	if err := proto.NewConn(&answer).SendBulk(proto.MsgFileDataBulk, proto.HdrOf(obj), obj.Data); err != nil {
		t.Fatal(err)
	}
	answer.WriteString("junk")
	ln := listen(t)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				buf := make([]byte, 512)
				for {
					// One request per read: the fetch sends it in one write.
					if _, err := nc.Read(buf); err != nil {
						return
					}
					if _, err := nc.Write(answer.Bytes()); err != nil {
						return
					}
				}
			}()
		}
	}()
	c := client(t, 10*time.Second)
	for i := 0; i < 2; i++ {
		got, err := c.FetchPeer(ln.Addr().String(), obj.ID)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !bytes.Equal(got.Data, obj.Data) {
			t.Fatalf("fetch %d got %q", i, got.Data)
		}
	}
	if n := ln.accepted.Load(); n != 2 {
		t.Errorf("accepted %d connections, want 2 (a link with trailing bytes is dropped)", n)
	}
}

// TestSilentReusedLinkIsNotRetried: a reused link whose peer goes silent
// fails at the idle deadline like a fresh one — a silent peer is not a
// stale link, so the fetch neither redials nor waits a second deadline.
func TestSilentReusedLinkIsNotRetried(t *testing.T) {
	obj := content.NewBlob("silent.bin", []byte("payload"))
	var answer bytes.Buffer
	if err := proto.NewConn(&answer).SendBulk(proto.MsgFileDataBulk, proto.HdrOf(obj), obj.Data); err != nil {
		t.Fatal(err)
	}
	ln := listen(t)
	quit := make(chan struct{})
	t.Cleanup(func() {
		close(quit)
		ln.Close()
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				buf := make([]byte, 512)
				// Answer the first request, then read the next and say nothing.
				if _, err := nc.Read(buf); err != nil {
					return
				}
				if _, err := nc.Write(answer.Bytes()); err != nil {
					return
				}
				nc.Read(buf)
				<-quit
			}()
		}
	}()
	c := client(t, 100*time.Millisecond)
	addr := ln.Addr().String()
	if _, err := c.FetchPeer(addr, obj.ID); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.FetchPeer(addr, obj.ID); err == nil {
		t.Fatal("fetch from a silent peer succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("fetch took %v, want about one 100ms idle deadline", d)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Errorf("accepted %d connections, want 1 (a timeout on a reused link is not retried)", n)
	}
}

// TestIdleLinksHoldNoServeSlot: a serve slot is held per request, so two
// requesters that keep idle links to a one-slot server do not keep a
// third waiting.
func TestIdleLinksHoldNoServeSlot(t *testing.T) {
	obj := content.NewBlob("slot.bin", []byte("payload"))
	server, ln := servingPlane(t, Config{ServeConcurrency: 1, IdleTimeout: 30 * time.Second}, obj)
	addr := ln.Addr().String()
	for i := 0; i < 2; i++ {
		if _, err := client(t, 10*time.Second).FetchPeer(addr, obj.ID); err != nil {
			t.Fatalf("requester %d: %v", i, err)
		}
	}
	waitFor(t, "two idle inbound links", func() bool { return server.inboundLinks() == 2 })
	if _, err := client(t, 2*time.Second).FetchPeer(addr, obj.ID); err != nil {
		t.Fatalf("third requester beside two idle links: %v", err)
	}
}

// TestCloseWithIdleLinksReturns: Close closes a plane's idle outbound
// links and every inbound one, so Wait does not sit out a 30 s idle
// deadline, the peer's serve goroutine sees its link end, and no
// goroutine is left.
func TestCloseWithIdleLinksReturns(t *testing.T) {
	before := runtime.NumGoroutine()
	objA := content.NewBlob("a.bin", []byte("held by a"))
	objB := content.NewBlob("b.bin", []byte("held by b"))
	type end struct {
		p      *Plane
		ln     net.Listener
		served chan struct{}
	}
	start := func(obj *content.Object) end {
		e := end{p: New(Config{Cache: content.NewCache(0), IdleTimeout: 30 * time.Second}), ln: listen(t), served: make(chan struct{})}
		if err := e.p.Put(obj, false); err != nil {
			t.Fatal(err)
		}
		go func() {
			defer close(e.served)
			e.p.Serve(e.ln)
		}()
		return e
	}
	a, b := start(objA), start(objB)
	if _, err := a.p.FetchPeer(b.ln.Addr().String(), objB.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.p.FetchPeer(a.ln.Addr().String(), objA.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "an inbound link on each plane", func() bool { return a.p.inboundLinks() == 1 && b.p.inboundLinks() == 1 })

	stop := func(e end, name string) {
		t.Helper()
		began := time.Now()
		e.ln.Close()
		e.p.Close()
		drained := make(chan struct{})
		go func() {
			e.p.Wait()
			<-e.served
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(time.Second):
			t.Fatalf("plane %s: Close+Wait still waiting after 1 s", name)
		}
		if d := time.Since(began); d > time.Second {
			t.Errorf("plane %s: Close+Wait took %v", name, d)
		}
	}
	stop(a, "a")
	// a's idle link to b is closed too: b's serve goroutine sees it end.
	waitFor(t, "b to see a's outbound link close", func() bool { return b.p.inboundLinks() == 0 })
	stop(b, "b")
	waitFor(t, "every goroutine to end", func() bool { return runtime.NumGoroutine() <= before })
}

// TestReusedPeerFetchAllocs: a fetch over a reused link allocates only
// what it keeps — the object, its frame buffer and its two header
// strings. The peer here answers from bytes encoded once, so nothing it
// does is counted.
func TestReusedPeerFetchAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops its readers at random under -race")
	}
	obj := content.NewBlob("allocs.bin", bytes.Repeat([]byte("x"), 64<<10))
	var answer bytes.Buffer
	if err := proto.NewConn(&answer).SendBulk(proto.MsgFileDataBulk, proto.HdrOf(obj), obj.Data); err != nil {
		t.Fatal(err)
	}
	var request bytes.Buffer
	if err := proto.NewConn(&request).Send(proto.MsgGetFile, proto.GetFile{ID: obj.ID}); err != nil {
		t.Fatal(err)
	}
	ln := listen(t)
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		req := make([]byte, request.Len())
		for {
			if _, err := io.ReadFull(nc, req); err != nil {
				return
			}
			if _, err := nc.Write(answer.Bytes()); err != nil {
				return
			}
		}
	}()
	c := client(t, 10*time.Second)
	addr := ln.Addr().String()
	fetch := func() {
		got, err := c.FetchPeer(addr, obj.ID)
		if err != nil || got.ID != obj.ID {
			t.Fatalf("fetch = %v, %v", got, err)
		}
	}
	fetch() // dials the link the measured fetches reuse
	const runs = 200
	allocs := testing.AllocsPerRun(runs, fetch)
	// AllocsPerRun makes one warm-up call of its own.
	t.Logf("%.2f allocations per reused fetch call, %d calls in all", allocs, 1+1+runs) // scripts/allocs.sh reads both
	if allocs > reusedFetchAllocs {
		t.Errorf("a fetch over a reused link allocates %.2f times, want at most %d", allocs, reusedFetchAllocs)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Errorf("accepted %d connections, want 1", n)
	}
}

// reusedFetchAllocs pins TestReusedPeerFetchAllocs at its measured count
// plus one.
const reusedFetchAllocs = 5
