package worker

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/proto"
)

// stallingPeer accepts data-server connections, reads the request, and
// never answers — the pathological source that used to wedge the
// worker's whole message loop.
func stallingPeer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				buf := make([]byte, 256)
				nc.Read(buf)
				<-done
			}()
		}
	}()
	var once bool
	return ln.Addr().String(), func() {
		if !once {
			once = true
			close(done)
			ln.Close()
		}
	}
}

func TestStalledFetchDoesNotBlockExecution(t *testing.T) {
	// The tentpole acceptance test: a peer fetch hanging on a stalled
	// source must not stop the worker from running unrelated work. With
	// the old inline handleFetchFile, the control loop sat inside the
	// fetch for the full PeerIOTimeout and the task below never started.
	addr, stop := stallingPeer(t)
	defer stop()

	fm := newFakeManager(t)
	_, _ = startWorker(t, fm, Config{ID: "w", PeerIOTimeout: 10 * time.Second})

	if err := fm.conn.Send(proto.MsgFetchFile, proto.FetchFile{
		ID: "deadbeef", Name: "stuck.bin", FromAddr: addr, Cache: true,
	}); err != nil {
		t.Fatal(err)
	}
	spec := core.TaskSpec{
		ID:        1,
		Script:    "import vine_runtime\nvine_runtime.store_result(41 + 1)\n",
		Resources: core.Resources{Cores: 1},
	}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}

	// The result must arrive while the fetch is still hanging — well
	// inside the 10s idle timeout the fetch is budgeted.
	type frame struct {
		t   proto.MsgType
		raw []byte
	}
	got := make(chan frame, 1)
	go func() {
		typ, raw, err := fm.conn.Recv()
		if err == nil {
			got <- frame{typ, raw}
		}
	}()
	select {
	case f := <-got:
		if f.t != proto.MsgResult {
			t.Fatalf("expected the task result first, got %v", f.t)
		}
		res, _ := proto.DecodeResultInterned(f.raw, nil)
		if !res.Ok {
			t.Fatalf("task failed: %s", res.Err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("task blocked behind a stalled peer fetch")
	}

	// Release the stall; the fetch fails (connection cut mid-request)
	// and its FileAck arrives — completing, not wedging.
	stop()
	ack, _ := proto.DecodeFileAck(fm.expect(t, proto.MsgFileAck))
	if ack.ID != "deadbeef" || ack.Ok {
		t.Errorf("stalled fetch ack = %+v, want a failure for deadbeef", ack)
	}
}

func TestDuplicateFetchesShareOneWireTransfer(t *testing.T) {
	// Wire-level single flight: several FetchFile frames for one object
	// cost one data-server connection; each still gets its own FileAck.
	obj := content.NewBlob("shared.bin", []byte("once over the wire"))
	var accepts atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer nc.Close()
				pc := proto.NewConn(nc)
				typ, raw, err := pc.Recv()
				if err != nil || typ != proto.MsgGetFile {
					return
				}
				if id, _ := proto.DecodeString(raw); id != obj.ID {
					return
				}
				// Linger before answering so the duplicates pile up on the
				// in-flight transfer instead of finding the object cached.
				time.Sleep(100 * time.Millisecond)
				_ = pc.SendBulk(proto.MsgFileDataBulk, proto.FileHdr{
					ID: obj.ID, Name: obj.Name, Kind: int(obj.Kind), LogicalSize: obj.LogicalSize,
				}, obj.Data)
			}()
		}
	}()

	fm := newFakeManager(t)
	w, _ := startWorker(t, fm, Config{ID: "w"})
	const n = 3
	for i := 0; i < n; i++ {
		if err := fm.conn.Send(proto.MsgFetchFile, proto.FetchFile{
			ID: obj.ID, Name: obj.Name, FromAddr: ln.Addr().String(), Cache: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ack, _ := proto.DecodeFileAck(fm.expect(t, proto.MsgFileAck))
		if !ack.Ok {
			t.Fatalf("fetch %d failed: %s", i, ack.Err)
		}
	}
	if got := accepts.Load(); got != 1 {
		t.Errorf("%d wire transfers for %d duplicate fetches, want 1", got, n)
	}
	if st := w.Stats(); st.Data.Fetches != 1 || st.Data.Deduped != n-1 {
		t.Errorf("data plane stats = %+v, want 1 fetch and %d deduped", st.Data, n-1)
	}
}

func TestUndecodableFrameIsCountedAndReported(t *testing.T) {
	// Satellite bugfix: a frame that fails to decode must not vanish
	// silently — the worker counts it and tells the manager via MsgLog,
	// and the control loop keeps serving afterwards.
	fm := newFakeManager(t)
	w, _ := startWorker(t, fm, Config{ID: "w"})

	// A MsgRunTask frame whose body is truncated: a well-formed frame
	// around the first half of a real task's bytes.
	var enc bytes.Buffer
	if err := proto.NewConn(&enc).Send(proto.MsgRunTask, core.TaskSpec{
		ID:     6,
		Script: "import vine_runtime\nvine_runtime.store_result(0)\n",
		Inputs: []core.FileSpec{{Object: content.NewBlob("args", []byte("x"))}},
	}); err != nil {
		t.Fatal(err)
	}
	frame := enc.Bytes()[:enc.Len()/2]
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	if _, err := fm.nc.Write(frame); err != nil {
		t.Fatal(err)
	}

	lm, _ := proto.DecodeLog(fm.expect(t, proto.MsgLog))
	if lm.Worker != "w" || !strings.Contains(lm.Text, "protocol error") || !strings.Contains(lm.Text, "truncated") {
		t.Errorf("log message = %+v", lm)
	}
	if got := w.Stats().ProtocolErrors; got != 1 {
		t.Errorf("ProtocolErrors = %d, want 1", got)
	}

	// An unknown message type is a protocol error too.
	unknown := []byte{0, 0, 0, 1, 0xEE}
	if _, err := fm.nc.Write(unknown); err != nil {
		t.Fatal(err)
	}
	lm2, _ := proto.DecodeLog(fm.expect(t, proto.MsgLog))
	if !strings.Contains(lm2.Text, "unknown") {
		t.Errorf("unknown-type log = %+v", lm2)
	}
	if got := w.Stats().ProtocolErrors; got != 2 {
		t.Errorf("ProtocolErrors = %d, want 2", got)
	}

	// The loop survived: a valid task still runs.
	spec := core.TaskSpec{
		ID:        7,
		Script:    "import vine_runtime\nvine_runtime.store_result(3)\n",
		Resources: core.Resources{Cores: 1},
	}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res, _ := proto.DecodeResultInterned(fm.expect(t, proto.MsgResult), nil)
	if !res.Ok {
		t.Errorf("task after protocol errors failed: %s", res.Err)
	}
}

// TestJSONFetchFileIsAProtocolError: a FetchFile with the JSON body a
// manager of an older build sends is refused by the decoder — counted
// and reported — and never reaches the fetch handler.
func TestJSONFetchFileIsAProtocolError(t *testing.T) {
	fm := newFakeManager(t)
	w, _ := startWorker(t, fm, Config{ID: "w"})

	body := `{"id":"5feceb66","name":"env.tar.gz","from_addr":"127.0.0.1:1","cache":true}`
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(body)))
	frame = append(append(frame, byte(proto.MsgFetchFile)), body...)
	if _, err := fm.nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	lm, _ := proto.DecodeLog(fm.expect(t, proto.MsgLog))
	if !strings.Contains(lm.Text, "protocol error: fetch-file frame") {
		t.Errorf("log message = %+v", lm)
	}
	st := w.Stats()
	if st.ProtocolErrors != 1 || st.Data.Fetches != 0 || st.Data.FetchErrors != 0 {
		t.Errorf("ProtocolErrors = %d, Fetches = %d, FetchErrors = %d; want 1, 0, 0",
			st.ProtocolErrors, st.Data.Fetches, st.Data.FetchErrors)
	}
}
