package manager

import (
	"bytes"
	"encoding/binary"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// rawFrame is one frame around an arbitrary body, as a peer that does
// not speak this build's codec would write it.
func rawFrame(t proto.MsgType, body []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(body)))
	return append(append(frame, byte(t)), body...)
}

// joinFake connects a worker that is only a socket, named id: the test
// writes its frames and reads what the manager sends it.
func joinFake(t *testing.T, h *harness, id string) (net.Conn, *proto.Conn) {
	t.Helper()
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	fake := proto.NewConn(nc)
	if err := fake.Send(proto.MsgHello, proto.Hello{
		WorkerID: id, Resources: core.Resources{Cores: 4, MemoryMB: 1 << 10, DiskMB: 1 << 10},
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	return nc, fake
}

// expectRunTask reads the fake worker's next frame, which must dispatch
// task id.
func expectRunTask(t *testing.T, fake *proto.Conn, id int64) {
	t.Helper()
	mt, raw, err := fake.Recv()
	if err != nil || mt != proto.MsgRunTask {
		t.Fatalf("fake worker got %v, %v; want a run-task dispatch", mt, err)
	}
	if task, err := proto.DecodeTask(raw); err != nil || task.ID != id {
		t.Fatalf("fake worker was sent task %d (%v), want %d", task.ID, err, id)
	}
}

// TestUndecodableWorkerFrameDropsTheWorker: a FileAck the manager
// cannot decode closes that worker's connection instead of vanishing —
// the dispatch it answered is requeued and completes on another worker.
func TestUndecodableWorkerFrameDropsTheWorker(t *testing.T) {
	h := newHarness(t, 0, Options{})
	nc, fake := joinFake(t, h, "fake")

	id := h.m.Submit(simpleTask("survives"))
	expectRunTask(t, fake, id)
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

// TestStaleAndDuplicateResultsCountOnce: a worker that answers a by-ref
// task twice, then sends a Result for a spec it was never given, gets one
// delivery out of the manager, one quota unit back for the tenant and one
// ownership transfer in the ref stream; the rest is dropped.
func TestStaleAndDuplicateResultsCountOnce(t *testing.T) {
	h := newHarness(t, 0, Options{Tenants: []core.TenantSpec{{Name: "a"}}, DecisionTrace: true})
	_, fake := joinFake(t, h, "fake")

	task := simpleTask("by-ref")
	task.TenantID, task.ResultByRef = "a", true
	id := h.m.Submit(task)
	expectRunTask(t, fake, id)
	res := core.Result{ID: id, Ok: true, Ref: &core.ObjectRef{ID: "ref-1", Name: "r1.out", Size: 64}}
	stale := core.Result{ID: id + 100, Ok: true, Ref: &core.ObjectRef{ID: "ref-2", Name: "r2.out", Size: 64}}
	for _, r := range []core.Result{res, res, stale} {
		if err := fake.Send(proto.MsgResult, r); err != nil {
			t.Fatal(err)
		}
	}
	// One worker's frames are handled in order: once the next task's
	// result is delivered, so is everything the three above produced.
	next := h.m.Submit(simpleTask("next"))
	expectRunTask(t, fake, next)
	if err := fake.Send(proto.MsgResult, core.Result{ID: next, Ok: true}); err != nil {
		t.Fatal(err)
	}
	got, err := h.m.Collect(2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != id || got[1].ID != next {
		t.Fatalf("delivered specs %d, %d; want %d, %d", got[0].ID, got[1].ID, id, next)
	}
	select {
	case r := <-h.m.Results():
		t.Fatalf("a second delivery: %+v", r)
	default:
	}
	if st := h.m.TenantStats(); len(st) != 1 || st[0].Done != 1 || st[0].InFlight != 0 {
		t.Errorf("tenant stats %+v; want Done 1, InFlight 0", st)
	}
	owns := 0
	for _, d := range h.m.Trace().Refs {
		if d.Kind == policy.KindOwn {
			owns++
		}
	}
	if owns != 1 {
		t.Errorf("%d ownership transfers in the ref stream, want 1:\n%s", owns, policy.Dump(h.m.Trace().Refs))
	}
	if err := h.m.CheckQuiescence(); err != nil {
		t.Error(err)
	}
}

// TestLostRefFailsEachConsumerOnItsBudget: the owner of a by-ref
// result dies with no other holder, no spill and no catalog copy. Two
// consumers of the ref then reach one worker in one pass: each stages
// the ref, resolves it lost and is dispatched without it. The worker
// fails each with a retryable "not staged", and each spends its retry
// budget to a final failure that says so.
func TestLostRefFailsEachConsumerOnItsBudget(t *testing.T) {
	const budget = 2
	h := newHarness(t, 0, Options{Shards: 1, DecisionTrace: true, MaxRetries: budget,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: time.Millisecond})
	owner, fake := joinFake(t, h, "owner")

	task := simpleTask("producer")
	task.ResultByRef = true
	id := h.m.Submit(task)
	expectRunTask(t, fake, id)
	ref := core.ObjectRef{ID: "ref-1", Name: "r1.out", Size: 64}
	if err := fake.Send(proto.MsgResult, core.Result{ID: id, Ok: true, Ref: &ref}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.m.Collect(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	owner.Close()
	lost := policy.Decision{Kind: policy.KindRehome, Obj: ref.ID, Mode: policy.ResolveLost.String()}
	for deadline := time.Now().Add(10 * time.Second); h.m.WorkersConnected() != 0 || !slices.Contains(h.m.Trace().Refs, lost); {
		if time.Now().After(deadline) {
			t.Fatalf("the owner's death never lost the ref:\n%s", policy.Dump(h.m.Trace().Refs))
		}
		time.Sleep(time.Millisecond)
	}

	var ids []int64
	for range 2 {
		ids = append(ids, h.m.Submit(&core.TaskSpec{Script: "1", Inputs: []core.FileSpec{core.RefSpec(&ref)}, Resources: core.Resources{Cores: 1}}))
	}
	_, fake = joinFake(t, h, "consumer")
	for n := 0; n < len(ids)*(budget+1); n++ {
		mt, raw, err := fake.Recv()
		if err != nil || mt != proto.MsgRunTask {
			t.Fatalf("dispatch %d: fake worker got %v, %v; want a run-task", n, mt, err)
		}
		run, err := proto.DecodeTask(raw)
		if err != nil {
			t.Fatal(err)
		}
		res := core.Result{ID: run.ID, Retryable: true, Err: `input "r1.out" not staged on worker`}
		if err := fake.Send(proto.MsgResult, res); err != nil {
			t.Fatal(err)
		}
	}
	got, err := h.m.Collect(len(ids), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range got {
		if res.Ok || !slices.Contains(ids, res.ID) || !strings.Contains(res.Err, "not staged") {
			t.Errorf("final result %+v; want a failed consumer that names the unstaged input", res)
		}
	}
	if st := h.m.Stats(); st.Retries != int64(len(ids)*budget) {
		t.Errorf("Retries = %d, want %d", st.Retries, len(ids)*budget)
	}

	// Both first placements were one pass, and the second staged the ref
	// too. A retryable failure notes no replica — "not staged" means the
	// input is not there — so every retry stages the ref again and
	// resolves it lost again: six placements, six lost resolves.
	var stages []int
	for _, d := range h.m.Trace().All() {
		if d.Kind == policy.KindTask && d.Worker == "consumer" {
			stages = append(stages, d.Stages)
		}
	}
	resolves := 0
	for _, d := range h.m.Trace().Refs {
		if d == (policy.Decision{Kind: policy.KindResolve, Obj: ref.ID, Dst: "consumer", Mode: policy.ResolveLost.String()}) {
			resolves++
		}
	}
	if want := []int{1, 1, 1, 1, 1, 1}; !slices.Equal(stages, want) || resolves != len(want) {
		t.Errorf("consumer placements staged %v with %d lost resolves; want %v and %d:\n%s", stages, resolves, want, len(want), policy.Dump(h.m.Trace().All()))
	}
	if err := h.m.CheckQuiescence(); err != nil {
		t.Error(err)
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
