package proto_test

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/pkgindex"
	"repro/internal/poncho"
	"repro/internal/proto"
	"repro/internal/worker"
)

// lnniSource is the paper's LNNI application (Figure 5), as
// taskvine's tests define it.
const lnniSource = `
def context_setup():
    global model
    import resnet
    model = resnet.load_model("resnet50")

def classify(seed, n):
    import imageproc
    global model
    batch = imageproc.generate_batch(seed, n)
    return model.infer_batch(batch)

def classify_task(seed, n):
    import resnet
    import imageproc
    model = resnet.load_model("resnet50")
    batch = imageproc.generate_batch(seed, n)
    return model.infer_batch(batch)
`

// lnniSpecs builds what the manager sends for LNNI: the L2 wrapped call
// of classify_task (pickled function, its environment, its arguments)
// and the L3 library (context_setup + classify with the same
// environment), each with one more cached input of inputBytes.
func lnniSpecs(t testing.TB, inputBytes int) (core.TaskSpec, core.LibrarySpec) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ip := minipy.NewInterp(nil)
	env, err := ip.RunModule(lnniSource, "lnni")
	must(err)
	fn := func(name string) *minipy.Func {
		v, ok := env.Get(name)
		if !ok {
			t.Fatalf("no %s in the LNNI source", name)
		}
		return v.(*minipy.Func)
	}
	pickled := func(v minipy.Value) []byte {
		data, err := pickle.Marshal(v)
		must(err)
		return data
	}
	task := fn("classify_task")
	envSpec, err := poncho.Resolve(pkgindex.StandardIndex(), poncho.ScanFunction(task))
	must(err)
	tarball, err := envSpec.Pack("wrapped-env.tar.gz")
	must(err)
	dataset := content.NewBlob("dataset", bytes.Repeat([]byte{0xD5}, inputBytes))
	args := content.NewBlob("args", pickled(minipy.NewTuple(minipy.Int(7), minipy.Int(2))))

	ts := core.TaskSpec{
		ID:     41,
		Script: worker.WrapperScript,
		Inputs: []core.FileSpec{
			{Object: content.NewBlob("func", pickled(task)), Cache: true, PeerTransfer: true},
			{Object: tarball, Cache: true, PeerTransfer: true, Unpack: true},
			{Object: dataset, Cache: true, PeerTransfer: true},
			{Object: args},
		},
		Resources: core.Resources{Cores: 2},
	}
	ls := core.LibrarySpec{
		Name:         "lnni",
		Functions:    []core.FunctionSpec{{Name: "classify", Source: "def classify(seed, n):\n    import imageproc\n    global model\n    batch = imageproc.generate_batch(seed, n)\n    return model.infer_batch(batch)\n"}},
		ContextSetup: pickled(fn("context_setup")),
		ContextArgs:  pickled(minipy.NewTuple()),
		Env:          &core.FileSpec{Object: tarball, Cache: true, PeerTransfer: true, Unpack: true},
		Inputs:       []core.FileSpec{{Object: dataset, Cache: true, PeerTransfer: true}},
		Slots:        16,
		Mode:         core.ExecFork,
		Resources:    core.Resources{Cores: 16, MemoryMB: 32 << 10, DiskMB: 8 << 10},
	}
	return ts, ls
}

// body sends v as a frame of type mt and returns the body a receiver
// would hand its decoder.
func body(t testing.TB, mt proto.MsgType, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := proto.NewConn(&buf)
	if err := c.Send(mt, v); err != nil {
		t.Fatal(err)
	}
	got, raw, err := c.Recv()
	if err != nil || got != mt {
		t.Fatalf("recv: %v %v", got, err)
	}
	return raw
}

// hdr is an object as a control frame names it: everything but Data.
func hdr(id, name string, kind content.Kind, logical, unpacked int64) *content.Object {
	return &content.Object{ID: id, Name: name, Kind: kind, LogicalSize: logical, UnpackedSize: unpacked}
}

var specTasks = []core.TaskSpec{
	{},
	{
		ID:     1<<62 + 3,
		Script: "import vine_runtime\nvine_runtime.store_result('λ')\n",
		Inputs: []core.FileSpec{
			{Object: hdr("aa", "func", content.Blob, 10, 0), Cache: true, PeerTransfer: true},
			{Object: hdr("bb", "env.tar.gz", content.Tarball, 572<<20, 3<<30), Cache: true, PeerTransfer: true, Unpack: true},
			{Object: hdr("cc", "task-9.out", content.Blob, 2<<20, 0), Cache: true, PeerTransfer: true, ByRef: true},
			{Object: hdr("dd", "args", content.Blob, 1, 0)},
		},
		SharedFSReads: []core.FileSpec{{Object: hdr("ee", "model", content.Dataset, 1<<40, 0)}},
		Resources:     core.Resources{Cores: 2, MemoryMB: 1 << 33, DiskMB: 7},
		TenantID:      "tenant-β",
		ResultByRef:   true,
	},
	{ID: -5, Inputs: []core.FileSpec{{Object: hdr("", "", -1, -1, -1), Unpack: true}}, Resources: core.Resources{Cores: -1, MemoryMB: -2, DiskMB: -3}},
}

var specLibraries = []core.LibrarySpec{
	{},
	{
		Name: "lib",
		Functions: []core.FunctionSpec{
			{Name: "f", Source: "def f(x):\n    return x\n"},
			{Name: "λ", Pickled: []byte{0, 1, 2, 0xFF}},
		},
		ContextSetup: []byte("setup"),
		ContextArgs:  []byte("args"),
		Env:          &core.FileSpec{Object: hdr("env", "env.tar.gz", content.Tarball, 100, 900), Cache: true, PeerTransfer: true, Unpack: true},
		Inputs: []core.FileSpec{
			{Object: hdr("d1", "dataset", content.Dataset, 64<<20, 0), Cache: true},
			{Object: hdr("d2", "ref", content.Blob, 5, 0), Cache: true, PeerTransfer: true, ByRef: true},
		},
		Slots:     16,
		Mode:      core.ExecFork,
		Resources: core.Resources{Cores: 4, MemoryMB: 4 << 10, DiskMB: 1 << 20},
	},
	{Name: "bare", Functions: []core.FunctionSpec{{}}, Slots: -1, Mode: core.ExecMode(-7)},
}

func TestSpecCodecRoundTrip(t *testing.T) {
	for _, want := range specTasks {
		// By value and by pointer take the same path.
		for _, v := range []any{want, &want} {
			got, err := proto.DecodeTask(body(t, proto.MsgRunTask, v))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("task round trip:\n got %+v\nwant %+v", got, want)
			}
		}
	}
	for _, want := range specLibraries {
		for _, v := range []any{want, &want} {
			got, err := proto.DecodeLibrary(body(t, proto.MsgInstallLibrary, v))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("library round trip:\n got %+v\nwant %+v", got, want)
			}
		}
	}
}

// TestSpecCodecNamesObjectsOnly: a spec whose objects hold their bytes —
// the one the manager has — decodes to the same spec with headers for
// objects.
func TestSpecCodecNamesObjectsOnly(t *testing.T) {
	ts, ls := lnniSpecs(t, 4096)
	check := func(what string, got, sent core.FileSpec) {
		t.Helper()
		want := *sent.Object
		if len(want.Data) == 0 {
			t.Fatalf("%s %q: the sent object has no bytes to leave out", what, want.Name)
		}
		want.Data = nil
		if !reflect.DeepEqual(*got.Object, want) {
			t.Errorf("%s %q decoded to %+v, want the header %+v", what, want.Name, *got.Object, want)
		}
		got.Object, sent.Object = nil, nil
		if got != sent {
			t.Errorf("%s %q flags: got %+v, sent %+v", what, want.Name, got, sent)
		}
	}
	gotT, err := proto.DecodeTask(body(t, proto.MsgRunTask, &ts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts.Inputs {
		check("task input", gotT.Inputs[i], ts.Inputs[i])
	}
	gotL, err := proto.DecodeLibrary(body(t, proto.MsgInstallLibrary, &ls))
	if err != nil {
		t.Fatal(err)
	}
	check("library env", *gotL.Env, *ls.Env)
	for i := range ls.Inputs {
		check("library input", gotL.Inputs[i], ls.Inputs[i])
	}
	if !bytes.Equal(gotL.ContextSetup, ls.ContextSetup) || !reflect.DeepEqual(gotL.Functions, ls.Functions) {
		t.Errorf("library code changed in transit")
	}
}

// TestSpecCodecRejectsDamage: every proper prefix of a body, a body with
// bytes after its last field, a length not in its shortest form, and a
// body of another encoding all error.
func TestSpecCodecRejectsDamage(t *testing.T) {
	ts, ls := lnniSpecs(t, 16)
	cases := []struct {
		name   string
		raw    []byte
		decode func([]byte) error
		lenAt  int // where the first length is: after the ID and flags, or the flags
	}{
		{"task", body(t, proto.MsgRunTask, &ts), func(b []byte) error { _, err := proto.DecodeTask(b); return err }, 10},
		{"library", body(t, proto.MsgInstallLibrary, &ls), func(b []byte) error { _, err := proto.DecodeLibrary(b); return err }, 2},
	}
	for _, c := range cases {
		if err := c.decode(c.raw); err != nil {
			t.Fatalf("%s: intact body: %v", c.name, err)
		}
		if err := c.decode(stretched(c.raw, c.lenAt)); err == nil || !strings.Contains(err.Error(), "shortest form") {
			t.Errorf("%s: a length not in its shortest form: %v", c.name, err)
		}
		for n := 0; n < len(c.raw); n++ {
			if c.decode(c.raw[:n]) == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded without error", c.name, n, len(c.raw))
			}
		}
		if c.decode(append(append([]byte(nil), c.raw...), 0)) == nil {
			t.Errorf("%s: a trailing byte decoded without error", c.name)
		}
		if c.decode([]byte(`{"ID":1,"Script":"x","Name":"lib"}`)) == nil {
			t.Errorf("%s: a JSON body decoded without error", c.name)
		}
		// An element count the body cannot hold must fail before it sizes
		// anything: marker, then 0xFF… where a count or length is read.
		huge := append([]byte{c.raw[0]}, bytes.Repeat([]byte{0xFF}, 64)...)
		if c.decode(huge) == nil {
			t.Errorf("%s: an impossible count decoded without error", c.name)
		}
	}
}

// TestSpecFramesCarryNoObjectBytes is the wire-size contract: a control
// frame naming a 1 MB object costs a header, whatever the object holds.
// What is left to grow with the application is its own code.
func TestSpecFramesCarryNoObjectBytes(t *testing.T) {
	const budget = 4 << 10
	ts, ls := lnniSpecs(t, 1<<20)
	if got, limit := len(body(t, proto.MsgRunTask, &ts)), budget+len(ts.Script); got > limit {
		t.Errorf("L2 RunTask with a 1 MB cached input is %d bytes on the wire, want at most %d", got, limit)
	}
	code := len(ls.ContextSetup) + len(ls.ContextArgs)
	for _, f := range ls.Functions {
		code += len(f.Source) + len(f.Pickled)
	}
	if got, limit := len(body(t, proto.MsgInstallLibrary, &ls)), budget+code; got > limit {
		t.Errorf("InstallLibrary with a 1 MB input is %d bytes on the wire, want at most %d", got, limit)
	}
}

// fuzzDecode is the contract every decoder is fuzzed against: no
// panic; memory allocated stays within a constant factor of the input,
// so no length or count field can size an allocation on its own; and
// what decodes re-encodes to bytes that decode and re-encode to
// themselves.
func fuzzDecode[T any](t *testing.T, mt proto.MsgType, decode func([]byte) (T, error), raw []byte) {
	// TotalAlloc counts the whole process, the fuzzing engine's own
	// goroutines included; they only ever add, so the least of three
	// readings is the decoder's.
	var spec T
	var err error
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec, err = decode(raw)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	if limit := uint64(64*len(raw) + 4096); least > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), least, limit)
	}
	if err != nil {
		return
	}
	once := body(t, mt, spec)
	again, err := decode(once)
	if err != nil {
		t.Fatalf("re-encoded body does not decode: %v", err)
	}
	if twice := body(t, mt, again); !bytes.Equal(once, twice) {
		t.Fatalf("encoding is not stable:\n once  %x\n twice %x", once, twice)
	}
}

// TestDecodeTaskInternedAllocatesOnlyTheTask: a warm L2 wrapped call's
// task frame, decoded through the worker loop's Interner, allocates one
// block holding the input list and its header objects, and the
// arguments' ID — a transient input's ID is new on every frame, so it is
// copied, not interned. The script and every other ID and name are the
// table's; the plain decode copies those eight strings.
func TestDecodeTaskInternedAllocatesOnlyTheTask(t *testing.T) {
	ts := core.TaskSpec{
		ID:       7,
		TenantID: "tenant",
		Script:   worker.WrapperScript,
		Inputs: []core.FileSpec{
			{Object: content.NewBlob("func", []byte("pickled function")), Cache: true, PeerTransfer: true},
			{Object: content.NewBlob("wrapped-env.tar.gz", []byte("environment")), Cache: true, PeerTransfer: true, Unpack: true},
			{Object: content.NewBlob("args", []byte("arguments"))},
		},
		Resources: core.Resources{Cores: 2},
	}
	raw := body(t, proto.MsgRunTask, &ts)
	var in proto.Interner
	decode := func(in *proto.Interner) {
		if _, err := proto.DecodeTaskInterned(raw, in); err != nil {
			t.Fatal(err)
		}
	}
	decode(&in)
	for _, c := range []struct {
		name string
		in   *proto.Interner
		want float64
	}{{"interned", &in, 2}, {"plain", nil, 9}} {
		if got := testing.AllocsPerRun(100, func() { decode(c.in) }); got != c.want {
			t.Errorf("%s decode of a wrapped-call task allocates %v times, want %v", c.name, got, c.want)
		}
	}
}

// FuzzDecodeTask drives both task decodes: the plain one and the
// worker's, through one Interner across every input as its receive loop
// keeps it. The interned decode is the plain one, error and value.
func FuzzDecodeTask(f *testing.F) {
	ts, _ := lnniSpecs(f, 64)
	f.Add(body(f, proto.MsgRunTask, &ts))
	for i := range specTasks {
		f.Add(body(f, proto.MsgRunTask, &specTasks[i]))
	}
	var in proto.Interner
	interned := func(raw []byte) (core.TaskSpec, error) { return proto.DecodeTaskInterned(raw, &in) }
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzDecode(t, proto.MsgRunTask, proto.DecodeTask, raw)
		fuzzDecode(t, proto.MsgRunTask, interned, raw)
		plain, perr := proto.DecodeTask(raw)
		got, err := interned(raw)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("interned decode: %v, plain: %v", err, perr)
		}
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("interned decode\n%+v\nplain\n%+v", got, plain)
		}
	})
}

func FuzzDecodeLibrary(f *testing.F) {
	_, ls := lnniSpecs(f, 64)
	f.Add(body(f, proto.MsgInstallLibrary, &ls))
	for i := range specLibraries {
		f.Add(body(f, proto.MsgInstallLibrary, &specLibraries[i]))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzDecode(t, proto.MsgInstallLibrary, proto.DecodeLibrary, raw)
	})
}

// The per-invocation frames, as LNNI at L3 sends them: classify(7, 2)
// on its way out, and the three ways a result comes back — a pickled
// value with its phase times, a retryable failure, and a by-ref result
// that names the object the worker kept.
var (
	fuzzInvocations = []core.InvocationSpec{
		{},
		{ID: 41, Library: "lnni", Function: "classify", Args: []byte("\x80\x04\x95(K\x07K\x02t.")},
	}
	fuzzResults = []core.Result{
		{},
		{ID: 41, Ok: true, Value: []byte("\x80\x04]\x94(K\x01K\x02e."), Metrics: core.InvocationMetrics{
			TransferTime: 0.25, WorkerTime: 1e-3, SetupTime: 3.5, ExecTime: 0.5,
			WorkerID: "w0017", LibraryInstance: "lnni#2",
		}},
		{ID: 42, Err: "worker w0017 has no library lnni", Retryable: true},
		{ID: 43, Ok: true, Ref: &core.ObjectRef{ID: "sha256:ab12", Name: "result-43", Size: 2 << 20, Owner: "w0017", Tier: 1}},
	}
)

// The worker and the manager decode these two frames through a receive
// loop's Interner, and so do their fuzzers: one Interner across every
// input, so a repeated name takes the hit path and a long run fills the
// table to its cap.
//
// The worker's decode hands out Args as a view of the frame, not a copy:
// the fuzzer also holds it to that, so a decode that started copying, or
// that pointed Args anywhere but into its input, fails here.
func FuzzDecodeInvocation(f *testing.F) {
	for i := range fuzzInvocations {
		f.Add(body(f, proto.MsgInvoke, &fuzzInvocations[i]))
	}
	var in proto.Interner
	decode := func(raw []byte) (core.InvocationSpec, error) { return proto.DecodeInvocationInterned(raw, &in) }
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzDecode(t, proto.MsgInvoke, decode, raw)
		inv, err := decode(raw)
		if err != nil || len(inv.Args) == 0 {
			return
		}
		if !aliases(raw, inv.Args) {
			t.Fatalf("Args %x is a copy, not a view of the frame", inv.Args)
		}
	})
}

// aliases reports whether sub is a subslice of b.
func aliases(b, sub []byte) bool {
	for i := 0; i+len(sub) <= len(b); i++ {
		if &b[i] == &sub[0] {
			return true
		}
	}
	return false
}

func FuzzDecodeResult(f *testing.F) {
	for i := range fuzzResults {
		f.Add(body(f, proto.MsgResult, &fuzzResults[i]))
	}
	var in proto.Interner
	decode := func(raw []byte) (core.Result, error) { return proto.DecodeResultInterned(raw, &in) }
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzDecode(t, proto.MsgResult, decode, raw)
	})
}
