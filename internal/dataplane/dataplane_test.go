package dataplane

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/poncho"
)

// gate is an injectable FetchFn whose transfers block until released,
// counting how often and how concurrently the network is hit.
type gate struct {
	mu        sync.Mutex
	calls     int
	active    int
	maxActive int
	objs      map[string]*content.Object
	release   chan struct{}
	errs      map[string]error
}

func newGate(objs ...*content.Object) *gate {
	g := &gate{
		objs:    map[string]*content.Object{},
		release: make(chan struct{}),
		errs:    map[string]error{},
	}
	for _, o := range objs {
		g.objs[o.ID] = o
	}
	return g
}

func (g *gate) fetch(addr, id string) (*content.Object, error) {
	g.mu.Lock()
	g.calls++
	g.active++
	if g.active > g.maxActive {
		g.maxActive = g.active
	}
	g.mu.Unlock()
	<-g.release
	g.mu.Lock()
	g.active--
	err := g.errs[id]
	obj := g.objs[id]
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if obj == nil {
		return nil, fmt.Errorf("gate: no object %s", id)
	}
	return obj, nil
}

func (g *gate) stats() (calls, maxActive int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls, g.maxActive
}

func newPlane(t *testing.T, g *gate, fetchConc int) *Plane {
	t.Helper()
	p := New(Config{
		Cache:            content.NewCache(0),
		FetchConcurrency: fetchConc,
		Fetch:            g.fetch,
	})
	t.Cleanup(p.Close)
	return p
}

func waitDone(t *testing.T, done chan error, n int) []error {
	t.Helper()
	out := make([]error, 0, n)
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			out = append(out, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d fetch callbacks fired", i, n)
		}
	}
	return out
}

// TestFlightAcksBeforeWaiters holds a flight to its order: every
// request that rode it is acked — the queued one and one that joined
// after the transfer left the queue — while the flight is still in the
// table, so before its waiters are released and before a PinResolve
// could find the object cached without waiting. A worker's task queues
// its result once PinResolve returns, so an ack after that lets the
// result reach the manager ahead of the FileAck. Each ack checks,
// without blocking, that the flight is still registered and open.
func TestFlightAcksBeforeWaiters(t *testing.T) {
	obj := content.NewBlob("env.tar", []byte("environment"))
	started, release := make(chan struct{}), make(chan struct{})
	p := New(Config{Cache: content.NewCache(0), Fetch: func(addr, id string) (*content.Object, error) {
		close(started)
		<-release
		return obj, nil
	}})
	t.Cleanup(p.Close)

	var fl *flight
	acks := make(chan string, 2)
	ack := func(name string) func(error) {
		return func(err error) {
			if err != nil {
				t.Errorf("%s ack: %v", name, err)
			}
			p.mu.Lock()
			registered := p.flights[obj.ID] == fl
			p.mu.Unlock()
			select {
			case <-fl.done:
				acks <- name + " ack after the waiters' release"
			default:
				if !registered {
					acks <- name + " ack after the flight left the table"
				} else {
					acks <- ""
				}
			}
		}
	}
	p.Fetch(Request{ID: obj.ID, Addr: "peer:1"}, ack("queued"))
	p.mu.Lock()
	fl = p.flights[obj.ID]
	p.mu.Unlock()
	<-started // the transfer has left the queue
	p.Fetch(Request{ID: obj.ID, Addr: "peer:1"}, ack("late"))
	close(release)
	for i := 0; i < 2; i++ {
		if msg := <-acks; msg != "" {
			t.Error(msg)
		}
	}
	<-fl.done
	if _, err := p.PinResolve(obj.ID); err != nil {
		t.Fatalf("PinResolve after the flight: %v", err)
	}
	if err := p.Unpin(obj.ID); err != nil {
		t.Fatal(err)
	}
}

func TestSingleFlightDedup(t *testing.T) {
	// N concurrent requests for one object ID must hit the network
	// exactly once; every request still gets its own callback.
	obj := content.NewBlob("env.tar", []byte("environment"))
	g := newGate(obj)
	p := newPlane(t, g, 4)

	const n = 16
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		p.Fetch(Request{ID: obj.ID, Addr: "peer:1"}, func(err error) { done <- err })
	}
	// All requests are queued or joined before any transfer completes.
	close(g.release)
	for _, err := range waitDone(t, done, n) {
		if err != nil {
			t.Errorf("deduped fetch failed: %v", err)
		}
	}
	if calls, _ := g.stats(); calls != 1 {
		t.Errorf("network hit %d times for one object, want 1", calls)
	}
	st := p.Snapshot()
	if st.Fetches != 1 || st.Deduped != n-1 {
		t.Errorf("stats = %+v, want 1 fetch and %d deduped", st, n-1)
	}
	if !p.Cache().Has(obj.ID) {
		t.Errorf("object not cached after fetch")
	}
}

func TestFetchErrorReachesEveryRequest(t *testing.T) {
	obj := content.NewBlob("gone.bin", []byte("x"))
	g := newGate()
	g.errs[obj.ID] = fmt.Errorf("peer vanished")
	p := newPlane(t, g, 2)

	const n = 5
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		p.Fetch(Request{ID: obj.ID, Addr: "peer:1"}, func(err error) { done <- err })
	}
	close(g.release)
	for _, err := range waitDone(t, done, n) {
		if err == nil {
			t.Errorf("failed transfer reported success to a joined request")
		}
	}
	if calls, _ := g.stats(); calls != 1 {
		t.Errorf("network hit %d times, want 1", calls)
	}
	if st := p.Snapshot(); st.FetchErrors != 1 {
		t.Errorf("stats = %+v, want 1 fetch error", st)
	}
	// The flight is gone: a later request retries the network.
	g.mu.Lock()
	delete(g.errs, obj.ID)
	g.objs[obj.ID] = obj
	g.mu.Unlock()
	retry := make(chan error, 1)
	p.Fetch(Request{ID: obj.ID, Addr: "peer:1"}, func(err error) { retry <- err })
	if err := waitDone(t, retry, 1)[0]; err != nil {
		t.Errorf("retry after failed flight: %v", err)
	}
}

func TestBoundedFetchPool(t *testing.T) {
	// More queued transfers than pool slots: concurrency stays at the
	// cap, everything still completes.
	var objs []*content.Object
	for i := 0; i < 6; i++ {
		objs = append(objs, content.NewBlob(fmt.Sprintf("o%d", i), []byte(fmt.Sprintf("data-%d", i))))
	}
	g := newGate(objs...)
	p := newPlane(t, g, 2)

	done := make(chan error, len(objs))
	for _, o := range objs {
		p.Fetch(Request{ID: o.ID, Addr: "peer:1"}, func(err error) { done <- err })
	}
	// Give the pool a moment to start everything it is going to start.
	time.Sleep(20 * time.Millisecond)
	if _, max := g.stats(); max > 2 {
		t.Errorf("%d transfers ran concurrently, want <= 2", max)
	}
	close(g.release)
	for _, err := range waitDone(t, done, len(objs)) {
		if err != nil {
			t.Errorf("fetch failed: %v", err)
		}
	}
	if calls, max := g.stats(); calls != len(objs) || max > 2 {
		t.Errorf("calls=%d maxActive=%d, want %d and <=2", calls, max, len(objs))
	}
}

func TestFetchOfCachedObjectCompletesImmediately(t *testing.T) {
	obj := content.NewBlob("here.bin", []byte("resident"))
	g := newGate(obj)
	p := newPlane(t, g, 2)
	if err := p.Put(obj, false); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	p.Fetch(Request{ID: obj.ID, Addr: "peer:1"}, func(err error) { done <- err })
	if err := waitDone(t, done, 1)[0]; err != nil {
		t.Errorf("cached fetch: %v", err)
	}
	if calls, _ := g.stats(); calls != 0 {
		t.Errorf("cached object hit the network %d times", calls)
	}
}

func TestStateMachine(t *testing.T) {
	obj := content.NewBlob("sm.bin", []byte("state"))
	g := newGate(obj)
	p := newPlane(t, g, 1)

	if s := p.StateOf(obj.ID); s != Absent {
		t.Errorf("initial state = %v, want absent", s)
	}
	done := make(chan error, 1)
	p.Fetch(Request{ID: obj.ID, Addr: "peer:1"}, func(err error) { done <- err })
	if s := p.StateOf(obj.ID); s != Fetching {
		t.Errorf("state during transfer = %v, want fetching", s)
	}
	close(g.release)
	waitDone(t, done, 1)
	if s := p.StateOf(obj.ID); s != Cached {
		t.Errorf("state after transfer = %v, want cached", s)
	}
	if !p.Evict(obj.ID) {
		t.Errorf("evict of cached unpinned object refused")
	}
	if s := p.StateOf(obj.ID); s != Absent {
		t.Errorf("state after evict = %v, want absent", s)
	}
}

func TestStateString(t *testing.T) {
	for _, tc := range []struct {
		s    State
		want string
	}{
		{Absent, "absent"},
		{Fetching, "fetching"},
		{Cached, "cached"},
		{Owned, "owned"},
		{Spilled, "spilled"},
		{Spilled + 1, "State(5)"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("State(%d).String() = %q, want %q", int(tc.s), got, tc.want)
		}
	}
}

func TestPinResolveWaitsForFlight(t *testing.T) {
	// An executor resolving an input whose transfer is still in flight
	// must wait for the flight, not fail with "not staged".
	obj := content.NewBlob("inflight.bin", []byte("late bytes"))
	g := newGate(obj)
	p := newPlane(t, g, 1)

	ackDone := make(chan error, 1)
	p.Fetch(Request{ID: obj.ID, Addr: "peer:1"}, func(err error) { ackDone <- err })

	resolved := make(chan error, 1)
	go func() {
		got, err := p.PinResolve(obj.ID)
		if err == nil && string(got.Data) != "late bytes" {
			err = fmt.Errorf("wrong object: %q", got.Data)
		}
		resolved <- err
	}()
	select {
	case err := <-resolved:
		t.Fatalf("PinResolve returned before the transfer finished: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(g.release)
	select {
	case err := <-resolved:
		if err != nil {
			t.Fatalf("PinResolve after flight: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PinResolve never woke after the flight completed")
	}
	// The resolve pinned the object: eviction must refuse it.
	if p.Evict(obj.ID) {
		t.Errorf("pinned object was evicted")
	}
	if err := p.Unpin(obj.ID); err != nil {
		t.Fatal(err)
	}
	if !p.Evict(obj.ID) {
		t.Errorf("unpinned object not evictable")
	}
}

func TestPinResolveOfAbsentObjectFails(t *testing.T) {
	g := newGate()
	p := newPlane(t, g, 1)
	if _, err := p.PinResolve("no-such-object"); err == nil {
		t.Fatal("PinResolve of absent object should fail")
	}
}

func TestCloseFailsQueuedFetches(t *testing.T) {
	// One slot, one transfer blocking it, several queued behind: Close
	// must fail the queued ones promptly.
	blocker := content.NewBlob("blocker", []byte("b"))
	queued := content.NewBlob("queued", []byte("q"))
	g := newGate(blocker, queued)
	p := New(Config{Cache: content.NewCache(0), FetchConcurrency: 1, Fetch: g.fetch})

	first := make(chan error, 1)
	second := make(chan error, 1)
	p.Fetch(Request{ID: blocker.ID, Addr: "peer:1"}, func(err error) { first <- err })
	time.Sleep(10 * time.Millisecond) // let the blocker occupy the slot
	p.Fetch(Request{ID: queued.ID, Addr: "peer:1"}, func(err error) { second <- err })

	p.Close()
	select {
	case err := <-second:
		if err == nil {
			t.Errorf("queued fetch reported success after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued fetch never failed after Close")
	}
	close(g.release)
	<-first // the in-flight transfer drains on its own
	p.Wait()
}

func TestConcurrentPinResolveAndEvict(t *testing.T) {
	// Hammer the pin/evict race under -race: once PinResolve returns, a
	// concurrent Evict must never remove the object before Unpin.
	obj := content.NewBlob("contended.bin", []byte("contended"))
	g := newGate(obj)
	p := newPlane(t, g, 2)
	close(g.release)
	if err := p.Put(obj, false); err != nil {
		t.Fatal(err)
	}

	var wrong atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				o, err := p.PinResolve(obj.ID)
				if err != nil {
					// Evicted and not refetched: re-stage and go again.
					_ = p.Put(obj, false)
					continue
				}
				if !p.Cache().Has(o.ID) {
					wrong.Add(1)
				}
				_ = p.Unpin(o.ID)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Evict(obj.ID)
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Errorf("pinned object vanished under a concurrent evict %d times", n)
	}
}

// TestAltSourceRetry: a fetch whose primary source fails must retry
// the alternates in order inside the data plane — recovering without
// surfacing an error (which would cost a manager restage).
func TestAltSourceRetry(t *testing.T) {
	obj := content.NewBlob("env.tar", []byte("environment"))
	var tried []string
	fetch := func(addr, id string) (*content.Object, error) {
		tried = append(tried, addr)
		if addr == "alt:2" {
			return obj, nil
		}
		return nil, fmt.Errorf("peer %s is gone", addr)
	}
	p := New(Config{Cache: content.NewCache(0), Fetch: fetch})
	t.Cleanup(p.Close)

	done := make(chan error, 1)
	p.Fetch(Request{ID: obj.ID, Addr: "dead:1", AltAddrs: []string{"alt:1", "alt:2"}},
		func(err error) { done <- err })
	if err := waitDone(t, done, 1)[0]; err != nil {
		t.Fatalf("fetch failed despite a live alternate: %v", err)
	}
	want := []string{"dead:1", "alt:1", "alt:2"}
	if fmt.Sprint(tried) != fmt.Sprint(want) {
		t.Errorf("tried %v, want %v", tried, want)
	}
	if !p.Cache().Has(obj.ID) {
		t.Errorf("object not cached after alternate-source recovery")
	}
	st := p.Snapshot()
	if st.AltSourceRetries != 2 {
		t.Errorf("AltSourceRetries = %d, want 2", st.AltSourceRetries)
	}
	if st.FetchErrors != 0 {
		t.Errorf("FetchErrors = %d, want 0 (the transfer recovered)", st.FetchErrors)
	}
}

// TestAltSourceExhaustion: when every source fails the error surfaces
// once, after all alternates were attempted.
func TestAltSourceExhaustion(t *testing.T) {
	var calls int
	fetch := func(addr, id string) (*content.Object, error) {
		calls++
		return nil, fmt.Errorf("peer %s is gone", addr)
	}
	p := New(Config{Cache: content.NewCache(0), Fetch: fetch})
	t.Cleanup(p.Close)

	done := make(chan error, 1)
	p.Fetch(Request{ID: "obj", Addr: "dead:1", AltAddrs: []string{"dead:2", "dead:3"}},
		func(err error) { done <- err })
	if err := waitDone(t, done, 1)[0]; err == nil {
		t.Fatal("fetch succeeded with every source dead")
	}
	if calls != 3 {
		t.Errorf("tried %d sources, want 3", calls)
	}
	st := p.Snapshot()
	if st.FetchErrors != 1 {
		t.Errorf("FetchErrors = %d, want 1", st.FetchErrors)
	}
	if st.AltSourceRetries != 2 {
		t.Errorf("AltSourceRetries = %d, want 2", st.AltSourceRetries)
	}
}

// TestServeIdleTimeoutFreesStalledSlot: a requester that sends the first
// byte of a request and then nothing holds the plane's one serve slot
// only until the serve side's idle timeout, so the fetch queued behind it
// is answered and the stall counts as a serve error. Without that
// deadline the stall keeps the slot, and the fetch fails at its own 10 s
// idle bound.
func TestServeIdleTimeoutFreesStalledSlot(t *testing.T) {
	obj := content.NewBlob("served.bin", []byte("payload"))
	p, ln := servingPlane(t, Config{ServeConcurrency: 1, IdleTimeout: 50 * time.Millisecond}, obj)
	stall, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stall.Close() })
	if _, err := stall.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	// A request has begun: the stall takes the slot.
	waitFor(t, "the stalled request to take the slot", func() bool { return len(p.serve) == 1 })
	got, err := client(t, 10*time.Second).FetchPeer(ln.Addr().String(), obj.ID)
	if err != nil {
		t.Fatalf("fetch behind a stalled requester: %v", err)
	}
	if got.ID != obj.ID {
		t.Errorf("fetched %s, want %s", got.ID, obj.ID)
	}
	if n := p.Snapshot().ServeErrors; n != 1 {
		t.Errorf("ServeErrors = %d, want 1 (the stall)", n)
	}
}

// TestCorruptManifestIsAnError: a tarball whose manifest does not decode
// is refused by ParseModules and left packed by MarkUnpacked, with an
// error that names it — never taken for an environment installing
// nothing.
func TestCorruptManifestIsAnError(t *testing.T) {
	p := New(Config{Cache: content.NewCache(0)})
	t.Cleanup(p.Close)
	env := content.NewTarball("bad-env.tar.gz", []byte("not a manifest"), 1, 1)
	if mods, err := ParseModules(env); mods != nil || !errors.Is(err, poncho.ErrManifest) || !strings.Contains(err.Error(), env.Name) {
		t.Errorf("ParseModules = %v, %v; want an ErrManifest naming %s", mods, err, env.Name)
	}
	if err := p.Put(env, true); !errors.Is(err, poncho.ErrManifest) {
		t.Errorf("Put with unpack = %v, want an ErrManifest", err)
	}
	if first, err := p.MarkUnpacked(env); first || !errors.Is(err, poncho.ErrManifest) {
		t.Errorf("MarkUnpacked = %v, %v; want an ErrManifest", first, err)
	}
	if mods, ok := p.UnpackedModules(env.ID); ok || p.Cache().IsUnpacked(env.ID) {
		t.Errorf("a corrupt environment counts as unpacked, installing %v", mods)
	}
}
