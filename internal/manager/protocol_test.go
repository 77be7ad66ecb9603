package manager

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
)

// rawFrame is one frame around an arbitrary body, as a peer that does
// not speak this build's codec would write it.
func rawFrame(t proto.MsgType, body []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(body)))
	return append(append(frame, byte(t)), body...)
}

// TestUndecodableWorkerFrameDropsTheWorker: a FileAck the manager
// cannot decode closes that worker's connection instead of vanishing —
// the dispatch it answered is requeued and completes on another worker.
func TestUndecodableWorkerFrameDropsTheWorker(t *testing.T) {
	h := newHarness(t, 0, Options{})
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fake := proto.NewConn(nc)
	if err := fake.Send(proto.MsgHello, proto.Hello{
		WorkerID: "fake", Resources: core.Resources{Cores: 4, MemoryMB: 1 << 10, DiskMB: 1 << 10},
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	id := h.m.Submit(simpleTask("survives"))
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if mt, _, err := fake.Recv(); err != nil || mt != proto.MsgRunTask {
		t.Fatalf("fake worker got %v, %v; want a run-task dispatch", mt, err)
	}
	var ack bytes.Buffer
	if err := proto.NewConn(&ack).Send(proto.MsgFileAck, proto.FileAck{ID: "5feceb66", Ok: true, Cache: true}); err != nil {
		t.Fatal(err)
	}
	body := ack.Bytes()[5 : ack.Len()-1] // the frame's body, short its last byte
	if _, err := nc.Write(rawFrame(proto.MsgFileAck, body)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := fake.Recv(); err != nil {
			break // the manager closed the connection
		}
	}

	h.addWorker(t, "real")
	results, err := h.m.Collect(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID != id || decodeStr(t, results[0]) != "survives" || results[0].Metrics.WorkerID != "real" {
		t.Errorf("result = %+v", results[0])
	}
	if st := h.m.Stats(); st.ProtocolErrors != 1 || st.Requeued != 1 {
		t.Errorf("ProtocolErrors = %d, Requeued = %d; want 1, 1", st.ProtocolErrors, st.Requeued)
	}
}

// TestJSONHelloIsRefused: a worker of an older build announces itself
// with a JSON Hello; the manager refuses it on that first frame and
// never registers it.
func TestJSONHelloIsRefused(t *testing.T) {
	h := newHarness(t, 0, Options{})
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := `{"worker_id":"old","resources":{"Cores":4,"MemoryMB":1024,"DiskMB":1024}}`
	if _, err := nc.Write(rawFrame(proto.MsgHello, []byte(hello))); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("the manager answered a JSON hello instead of closing")
	}
	if n := h.m.WorkersConnected(); n != 0 {
		t.Errorf("WorkersConnected = %d, want 0", n)
	}
	if st := h.m.Stats(); st.ProtocolErrors != 1 {
		t.Errorf("ProtocolErrors = %d, want 1", st.ProtocolErrors)
	}
}
