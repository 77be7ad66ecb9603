package taskvine

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/modlib"
	"repro/internal/proto"
	"repro/internal/worker"
)

// TestConnectedWorkerFootprint holds what an idle connection costs each
// side of the link, in bytes allocated per joined worker. Each side keeps
// its framed reader's 4 KiB buffer and a little bookkeeping; neither
// reserves room for frames it has not been asked to send or receive. (A
// manager used to reserve sendQueueSize(32) = 4 096 slots, 224 KiB, per
// 32-core worker, and a worker 1 024 slots, 168 KiB, before either carried
// a frame; then each kept a 64 KiB read buffer sized for long frames,
// which now wait for their first piece in a pooled chunk.)
func TestConnectedWorkerFootprint(t *testing.T) {
	const n, budget = 64, 24 << 10
	res := core.Resources{Cores: 32, MemoryMB: 64 << 10, DiskMB: 64 << 10}

	t.Run("manager", func(t *testing.T) {
		m := manager.New(manager.Options{})
		addr, err := m.Listen()
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown()
		// Encode every Hello before measuring: the peers here are bare
		// sockets, so all that is counted is the dial and the manager.
		hellos := make([][]byte, n)
		for i := range hellos {
			var b bytes.Buffer
			if err := proto.NewConn(&b).Send(proto.MsgHello, proto.Hello{WorkerID: fmt.Sprintf("w%03d", i), Resources: res}); err != nil {
				t.Fatal(err)
			}
			hellos[i] = b.Bytes()
		}
		conns := make([]net.Conn, 0, n)
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		per := allocatedPer(n, func() {
			for _, h := range hellos {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				conns = append(conns, c)
				if _, err := c.Write(h); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.WaitForWorkers(n, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("manager: %d KiB per joined worker", per>>10)
		if per > budget {
			t.Errorf("manager allocates %d KiB per joined worker, want under %d KiB", per>>10, budget>>10)
		}
	})

	t.Run("worker", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		accepted := make(chan net.Conn, n)
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				accepted <- c
			}
		}()
		ws := make([]*worker.Worker, 0, n)
		peers := make([]net.Conn, 0, n)
		defer func() {
			for _, w := range ws {
				w.Shutdown()
				w.Wait()
			}
			for _, c := range peers {
				c.Close()
			}
		}()
		reg := modlib.Standard()
		per := allocatedPer(n, func() {
			for i := 0; i < n; i++ {
				w := worker.New(worker.Config{ID: fmt.Sprintf("w%03d", i), Resources: res, Registry: reg})
				if err := w.Connect(ln.Addr().String()); err != nil {
					t.Fatal(err)
				}
				ws = append(ws, w)
			}
			for i := 0; i < n; i++ {
				peers = append(peers, <-accepted)
			}
		})
		t.Logf("worker: %d KiB per joined worker", per>>10)
		if per > budget {
			t.Errorf("a worker allocates %d KiB to join, want under %d KiB", per>>10, budget>>10)
		}
	})
}

// allocatedPer returns the heap bytes join allocates, divided by n.
func allocatedPer(n int, join func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	join()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}
