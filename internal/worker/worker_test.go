package worker

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/modlib"
	"repro/internal/poncho"
	"repro/internal/proto"

	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/pkgindex"
)

// fakeManager accepts one worker connection and exposes the framed
// conn for driving the worker directly.
type fakeManager struct {
	ln   net.Listener
	conn *proto.Conn
	nc   net.Conn
}

func newFakeManager(t *testing.T) *fakeManager {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fm := &fakeManager{ln: ln}
	t.Cleanup(func() {
		ln.Close()
		if fm.nc != nil {
			fm.nc.Close()
		}
	})
	return fm
}

func (fm *fakeManager) accept(t *testing.T) proto.Hello {
	t.Helper()
	nc, err := fm.ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	fm.nc = nc
	fm.conn = proto.NewConn(nc)
	typ, raw, err := fm.conn.Recv()
	if err != nil || typ != proto.MsgHello {
		t.Fatalf("expected hello, got %v %v", typ, err)
	}
	hello, err := proto.Decode[proto.Hello](raw)
	if err != nil {
		t.Fatal(err)
	}
	return hello
}

func (fm *fakeManager) expect(t *testing.T, want proto.MsgType) []byte {
	t.Helper()
	typ, raw, err := fm.conn.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if typ != want {
		t.Fatalf("got %v, want %v", typ, want)
	}
	return raw
}

// put stages obj on the worker the way the manager does — one bulk
// frame — and returns the worker's ack.
func (fm *fakeManager) put(t *testing.T, obj *content.Object, cache, unpack bool) proto.FileAck {
	t.Helper()
	hdr := proto.PutFileHdr{File: proto.FileHdr{
		ID: obj.ID, Name: obj.Name, Kind: int(obj.Kind),
		LogicalSize: obj.LogicalSize, UnpackedSize: obj.UnpackedSize,
	}, Cache: cache, Unpack: unpack}
	if err := fm.conn.SendBulk(proto.MsgPutFileBulk, hdr, obj.Data); err != nil {
		t.Fatal(err)
	}
	ack, err := proto.Decode[proto.FileAck](fm.expect(t, proto.MsgFileAck))
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func startWorker(t *testing.T, fm *fakeManager, cfg Config) (*Worker, proto.Hello) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = modlib.Standard()
	}
	w := New(cfg)
	if err := w.Connect(fm.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Shutdown)
	hello := fm.accept(t)
	return w, hello
}

func TestHelloAnnouncesResources(t *testing.T) {
	fm := newFakeManager(t)
	_, hello := startWorker(t, fm, Config{
		ID:        "w-test",
		Resources: core.Resources{Cores: 8, MemoryMB: 1024, DiskMB: 2048},
		Cluster:   "rack1",
		GFlops:    4.4,
	})
	if hello.WorkerID != "w-test" || hello.Resources.Cores != 8 ||
		hello.Cluster != "rack1" || hello.MachineGFlops != 4.4 {
		t.Errorf("hello = %+v", hello)
	}
	if hello.DataAddr == "" {
		t.Errorf("no data server address announced")
	}
}

func TestPutFileValidatesContent(t *testing.T) {
	fm := newFakeManager(t)
	w, _ := startWorker(t, fm, Config{ID: "w"})
	good := content.NewBlob("ok.bin", []byte("data"))
	ack := fm.put(t, good, true, false)
	if !ack.Ok || !ack.Cache {
		t.Fatalf("ack = %+v", ack)
	}
	if !w.Cache().Has(good.ID) {
		t.Errorf("object not cached")
	}

	// Corrupt content: ID does not match data.
	ack2 := fm.put(t, &content.Object{ID: good.ID, Name: "bad", Data: []byte("tampered"), LogicalSize: 8}, false, false)
	if ack2.Ok || !strings.Contains(ack2.Err, "corrupt") {
		t.Errorf("corrupt put accepted: %+v", ack2)
	}
}

func TestPeerDataServer(t *testing.T) {
	fm := newFakeManager(t)
	w, hello := startWorker(t, fm, Config{ID: "src"})
	obj := content.NewBlob("shared.bin", []byte("hello peers"))
	if err := w.Cache().Put(obj); err != nil {
		t.Fatal(err)
	}
	got, err := dataplane.FetchPeer(hello.DataAddr, obj.ID, defaultPeerIOTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "hello peers" {
		t.Errorf("peer fetch data = %q", got.Data)
	}
	if _, err := dataplane.FetchPeer(hello.DataAddr, "nonexistent", defaultPeerIOTimeout); err == nil {
		t.Errorf("fetch of uncached object should fail")
	}
	if _, err := dataplane.FetchPeer("127.0.0.1:1", obj.ID, defaultPeerIOTimeout); err == nil {
		t.Errorf("fetch from dead peer should fail")
	}
}

func TestFetchFileChainsWorkers(t *testing.T) {
	// Worker B fetches from worker A on instruction — a spanning tree
	// edge.
	fmA := newFakeManager(t)
	wA, helloA := startWorker(t, fmA, Config{ID: "a"})
	fmB := newFakeManager(t)
	wB, _ := startWorker(t, fmB, Config{ID: "b"})

	obj := content.NewBlob("env.tar", []byte("environment bytes"))
	if err := wA.Cache().Put(obj); err != nil {
		t.Fatal(err)
	}
	if err := fmB.conn.Send(proto.MsgFetchFile, proto.FetchFile{
		ID: obj.ID, Name: obj.Name, FromAddr: helloA.DataAddr, Cache: true,
	}); err != nil {
		t.Fatal(err)
	}
	ack, _ := proto.Decode[proto.FileAck](fmB.expect(t, proto.MsgFileAck))
	if !ack.Ok {
		t.Fatalf("fetch failed: %s", ack.Err)
	}
	if !wB.Cache().Has(obj.ID) {
		t.Errorf("fetched object not cached on B")
	}
}

func TestTaskNeedsStagedInputs(t *testing.T) {
	fm := newFakeManager(t)
	_, _ = startWorker(t, fm, Config{ID: "w"})
	missing := content.NewBlob("gone.bin", []byte("z"))
	spec := core.TaskSpec{
		ID:        1,
		Script:    "import vine_runtime\nvine_runtime.store_result(1)\n",
		Inputs:    []core.FileSpec{{Object: missing}},
		Resources: core.Resources{Cores: 1},
	}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res, _ := proto.DecodeResult(fm.expect(t, proto.MsgResult))
	if res.Ok || !strings.Contains(res.Err, "not staged") {
		t.Errorf("task with missing input: %+v", res)
	}
}

func TestTaskModuleIsolation(t *testing.T) {
	// A task may import only what its staged environments install.
	fm := newFakeManager(t)
	_, _ = startWorker(t, fm, Config{ID: "w"})

	spec := core.TaskSpec{
		ID:        2,
		Script:    "import mathx\nimport vine_runtime\nvine_runtime.store_result(mathx.sqrt(4.0))\n",
		Resources: core.Resources{Cores: 1},
	}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res, _ := proto.DecodeResult(fm.expect(t, proto.MsgResult))
	if res.Ok || !strings.Contains(res.Err, "no module named 'mathx'") {
		t.Errorf("import without environment should fail: %+v", res)
	}

	// Now stage an environment that installs mathx and retry.
	envSpec, err := poncho.Resolve(pkgindex.StandardIndex(), []string{"mathx"})
	if err != nil {
		t.Fatal(err)
	}
	tarball, err := envSpec.Pack("env.tar.gz")
	if err != nil {
		t.Fatal(err)
	}
	fm.put(t, tarball, true, true)
	spec.ID = 3
	spec.Inputs = []core.FileSpec{{Object: tarball, Cache: true, Unpack: true}}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res2, _ := proto.DecodeResult(fm.expect(t, proto.MsgResult))
	if !res2.Ok {
		t.Errorf("task with environment failed: %s", res2.Err)
	}
}

func TestResourceEnforcement(t *testing.T) {
	fm := newFakeManager(t)
	_, _ = startWorker(t, fm, Config{ID: "w", Resources: core.Resources{Cores: 2, MemoryMB: 100, DiskMB: 100}})
	spec := core.TaskSpec{
		ID:        9,
		Script:    "import vine_runtime\nvine_runtime.store_result(0)\n",
		Resources: core.Resources{Cores: 64},
	}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res, _ := proto.DecodeResult(fm.expect(t, proto.MsgResult))
	if res.Ok || !strings.Contains(res.Err, "insufficient resources") {
		t.Errorf("oversized task accepted: %+v", res)
	}
}

func TestStepLimitStopsRunawayTask(t *testing.T) {
	fm := newFakeManager(t)
	_, _ = startWorker(t, fm, Config{ID: "w", StepLimit: 10000})
	spec := core.TaskSpec{
		ID:        4,
		Script:    "while True:\n    pass\n",
		Resources: core.Resources{Cores: 1},
	}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res, _ := proto.DecodeResult(fm.expect(t, proto.MsgResult))
	if res.Ok || !strings.Contains(res.Err, "step limit") {
		t.Errorf("runaway task not stopped: %+v", res)
	}
}

func TestLibraryInstallAndRemove(t *testing.T) {
	fm := newFakeManager(t)
	w, _ := startWorker(t, fm, Config{ID: "w"})
	spec := core.LibrarySpec{
		Name:      "lib",
		Functions: []core.FunctionSpec{{Name: "f", Source: "def f(x):\n    return x + 1\n"}},
		Resources: core.Resources{Cores: 1, MemoryMB: 64, DiskMB: 64},
	}
	if err := fm.conn.Send(proto.MsgInstallLibrary, spec); err != nil {
		t.Fatal(err)
	}
	ack, _ := proto.Decode[proto.LibraryAck](fm.expect(t, proto.MsgLibraryAck))
	if !ack.Ok || ack.Library != "lib" || ack.Instance == "" {
		t.Fatalf("install ack = %+v", ack)
	}
	if len(w.Libraries()) != 1 {
		t.Errorf("libraries = %v", w.Libraries())
	}
	// Duplicate install fails.
	if err := fm.conn.Send(proto.MsgInstallLibrary, spec); err != nil {
		t.Fatal(err)
	}
	dup, _ := proto.Decode[proto.LibraryAck](fm.expect(t, proto.MsgLibraryAck))
	if dup.Ok {
		t.Errorf("duplicate install accepted")
	}
	// Remove frees it; share value resets to "not installed".
	if err := fm.conn.Send(proto.MsgRemoveLibrary, proto.RemoveLibrary{Library: "lib"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(w.Libraries()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("library not removed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w.LibraryShare("lib") != -1 {
		t.Errorf("share of removed library should be -1")
	}
}

func TestWrapperScriptRunsPickledFunction(t *testing.T) {
	// The L1/L2 wrapper: deserialize func+args from inputs and run.
	fm := newFakeManager(t)
	_, _ = startWorker(t, fm, Config{ID: "w"})

	funcBlob, argsBlob := buildWrappedPayload(t)
	for _, obj := range []*content.Object{funcBlob, argsBlob} {
		fm.put(t, obj, false, false)
	}
	spec := core.TaskSpec{
		ID:     5,
		Script: WrapperScript,
		Inputs: []core.FileSpec{
			{Object: funcBlob},
			{Object: argsBlob},
		},
		Resources: core.Resources{Cores: 1},
	}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res, _ := proto.DecodeResult(fm.expect(t, proto.MsgResult))
	if !res.Ok {
		t.Fatalf("wrapper task failed: %s", res.Err)
	}
	// The sandbox lists its staged inputs sorted by name, whatever order
	// the spec gave them in.
	spec.ID, spec.Script = 6, "import vine_runtime\nvine_runtime.store_result(vine_runtime.input_names())\n"
	for _, obj := range []*content.Object{funcBlob, argsBlob} {
		fm.put(t, obj, false, false)
	}
	if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
		t.Fatal(err)
	}
	res, _ = proto.DecodeResult(fm.expect(t, proto.MsgResult))
	if names, err := pickle.Unmarshal(res.Value, minipy.NewInterp(nil)); !res.Ok || err != nil || names.Repr() != `["args", "func"]` {
		t.Fatalf("input_names() = %v (%v), result %+v", names, err, res)
	}
}

// TestIdenticalUncachedInputsAcrossTasks: two dispatches whose uncached
// inputs are the same bytes share one content ID on the worker. The
// first task ending, after the second dispatch's staging but before its
// task frame, must not take the object with it (it used to evict by ID);
// the last one ending must.
func TestIdenticalUncachedInputsAcrossTasks(t *testing.T) {
	fm := newFakeManager(t)
	w, _ := startWorker(t, fm, Config{ID: "w"})
	_, args := buildWrappedPayload(t)
	task := func(id int64, spin int) core.TaskSpec {
		return core.TaskSpec{
			ID: id,
			Script: fmt.Sprintf("import vine_runtime\nargs = vine_runtime.load_pickle(\"args\")\n"+
				"i = 0\nwhile i < %d:\n    i = i + 1\nvine_runtime.store_result(args)\n", spin),
			Inputs:    []core.FileSpec{{Object: args}},
			Resources: core.Resources{Cores: 1},
		}
	}
	run := func(spec core.TaskSpec) {
		t.Helper()
		if err := fm.conn.Send(proto.MsgRunTask, spec); err != nil {
			t.Fatal(err)
		}
	}
	result := func(id int64) {
		t.Helper()
		res, _ := proto.DecodeResult(fm.expect(t, proto.MsgResult))
		if res.ID != id || !res.Ok {
			t.Fatalf("task %d: %+v", id, res)
		}
	}

	fm.put(t, args, false, false)
	run(task(1, 200000)) // long enough to still be running two frames on
	// The second dispatch's staging lands while the first task runs (its
	// ack is read before the first result, or expect fails) ...
	fm.put(t, args, false, false)
	result(1)
	// ... and its task frame only after the first task has ended.
	run(task(2, 0))
	result(2)

	deadline := time.Now().Add(5 * time.Second)
	for w.Cache().Has(args.ID) {
		if time.Now().After(deadline) {
			t.Fatal("uncached input still on the worker after its last task ended")
		}
		time.Sleep(time.Millisecond)
	}
}

// buildWrappedPayload pickles a trivial function and args into the
// "func"/"args" input blobs the wrapper script expects.
func buildWrappedPayload(t *testing.T) (fn, args *content.Object) {
	t.Helper()
	ip := minipy.NewInterp(nil)
	env, err := ip.RunModule("def add(a, b):\n    return a + b\n", "m")
	if err != nil {
		t.Fatal(err)
	}
	fv, _ := env.Get("add")
	funcData, err := pickle.Marshal(fv)
	if err != nil {
		t.Fatal(err)
	}
	argsData, err := pickle.Marshal(minipy.NewTuple(minipy.Int(1), minipy.Int(2)))
	if err != nil {
		t.Fatal(err)
	}
	return content.NewBlob("func", funcData), content.NewBlob("args", argsData)
}

func TestFetchFromPeerTimesOutOnSilentServer(t *testing.T) {
	// A peer that accepts the connection but never answers must cost a
	// bounded wait, not wedge the worker's message loop forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		// Read the request, then go silent.
		buf := make([]byte, 1024)
		nc.Read(buf)
		time.Sleep(5 * time.Second)
	}()

	start := time.Now()
	_, err = dataplane.FetchPeer(ln.Addr().String(), "some-object", 100*time.Millisecond)
	if err == nil {
		t.Fatal("fetch from a silent peer should fail")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("fetch took %v, want ~100ms idle timeout", d)
	}
}

func TestFetchFromPeerTimesOutMidStream(t *testing.T) {
	// A peer that starts answering and then stalls mid-frame must also
	// be cut by the idle deadline.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		buf := make([]byte, 1024)
		nc.Read(buf)
		// A frame header promising a large body, then silence.
		nc.Write([]byte{0x00, 0x10, 0x00, 0x00})
		time.Sleep(5 * time.Second)
	}()

	start := time.Now()
	_, err = dataplane.FetchPeer(ln.Addr().String(), "some-object", 100*time.Millisecond)
	if err == nil {
		t.Fatal("fetch from a stalling peer should fail")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("fetch took %v, want ~100ms idle timeout", d)
	}
}
