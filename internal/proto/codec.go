// Binary bodies for every frame: one encoder and one decoder per
// message type, built from the same few primitives — varint-prefixed
// strings and raw byte slices, varints, fixed-width floats and flag
// bytes — with no reflection and no base64.
//
// A body leads with binMarker and holds exactly its fields; a decoder
// refuses a body that does not start with the marker or has bytes left
// over after its last field. A bulk frame's body is its header followed
// by the object bytes: the header delimits itself, and the payload is
// whatever follows it.
//
// MsgRunTask and MsgInstallLibrary are where "what a FileSpec looks
// like on the wire" is decided: its object's header (ID, name, kind,
// sizes) and its flag bits, never the object's bytes. Those move once,
// in a bulk frame (MsgPutFileBulk, MsgFileDataBulk); a control frame
// names an object, it does not carry it (DESIGN.md §13).
package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
)

// binMarker is the first byte of every body. Control frames were JSON
// once, and a JSON body starts with '{': a peer on such a build is
// refused cleanly by the first byte of its first frame instead of
// being misparsed.
const binMarker = 0xB1

// writeBody appends v's body to buf, refusing a value that has no
// encoding or is not a body of t.
func writeBody(buf *bytes.Buffer, t MsgType, v any) error {
	body, mt := appendBody(buf.AvailableBuffer(), v)
	if mt != t {
		return fmt.Errorf("proto: no %v encoding for %T", t, v)
	}
	buf.Write(body)
	return nil
}

// appendBody appends v's body to b and reports the frame type it is the
// body of, or 0 when v has no encoding.
func appendBody(b []byte, v any) ([]byte, MsgType) {
	switch m := v.(type) {
	case *core.InvocationSpec:
		return appendInvocation(b, m), MsgInvoke
	case core.InvocationSpec:
		return appendInvocation(b, &m), MsgInvoke
	case *core.Result:
		return appendResult(b, m), MsgResult
	case core.Result:
		return appendResult(b, &m), MsgResult
	case *core.TaskSpec:
		return appendTask(b, m), MsgRunTask
	case core.TaskSpec:
		return appendTask(b, &m), MsgRunTask
	case *core.LibrarySpec:
		return appendLibrary(b, m), MsgInstallLibrary
	case core.LibrarySpec:
		return appendLibrary(b, &m), MsgInstallLibrary
	case Hello:
		b = append(b, binMarker)
		b = appendStr(b, m.WorkerID)
		b = appendResources(b, m.Resources)
		b = appendStr(b, m.Cluster)
		b = appendStr(b, m.DataAddr)
		return appendFloat(b, m.MachineGFlops), MsgHello
	case FetchFile:
		return appendFetchFile(b, &m), MsgFetchFile
	case FileAck:
		b = append(b, binMarker, flagBits(m.Ok, m.Cache))
		b = appendStr(b, m.ID)
		b = appendStr(b, m.Source)
		return appendStr(b, m.Err), MsgFileAck
	case LibraryAck:
		b = append(b, binMarker, flagBits(m.Ok, m.Retryable))
		b = appendStr(b, m.Library)
		b = appendStr(b, m.Instance)
		b = appendStr(b, m.Err)
		return appendFloat(b, m.SetupTime), MsgLibraryAck
	case LogMsg:
		b = appendStr(append(b, binMarker), m.Worker)
		return appendStr(b, m.Text), MsgLog
	case RemoveLibrary:
		return appendStr(append(b, binMarker), m.Library), MsgRemoveLibrary
	case SpillObject:
		return appendStr(append(b, binMarker), m.ID), MsgSpillObject
	case OwnObject:
		return appendStr(append(b, binMarker), m.ID), MsgOwnObject
	case GetFile:
		return appendStr(append(b, binMarker), m.ID), MsgGetFile
	case ErrorMsg:
		return appendStr(append(b, binMarker), m.Err), MsgError
	case Shutdown:
		return append(b, binMarker), MsgShutdown
	case PutFileHdr:
		return appendFileHdr(append(b, binMarker, flagBits(m.Cache, m.Unpack)), m.File), MsgPutFileBulk
	case FileHdr:
		return appendFileHdr(append(b, binMarker), m), MsgFileDataBulk
	}
	return b, 0
}

// flagBits packs bools into a flag byte, the first argument in bit 0.
func flagBits(bits ...bool) byte {
	var flags byte
	for i, set := range bits {
		if set {
			flags |= 1 << i
		}
	}
	return flags
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func appendInvocation(b []byte, inv *core.InvocationSpec) []byte {
	b = append(b, binMarker)
	b = binary.BigEndian.AppendUint64(b, uint64(inv.ID))
	b = appendStr(b, inv.Library)
	b = appendStr(b, inv.Function)
	return appendBytes(b, inv.Args)
}

func appendResult(b []byte, r *core.Result) []byte {
	b = append(b, binMarker)
	b = binary.BigEndian.AppendUint64(b, uint64(r.ID))
	b = append(b, flagBits(r.Ok, r.Retryable, r.Ref != nil))
	b = appendStr(b, r.Err)
	b = appendBytes(b, r.Value)
	if r.Ref != nil {
		b = appendStr(b, r.Ref.ID)
		b = appendStr(b, r.Ref.Name)
		b = binary.BigEndian.AppendUint64(b, uint64(r.Ref.Size))
		b = appendStr(b, r.Ref.Owner)
		b = append(b, byte(r.Ref.Tier))
	}
	b = appendFloat(b, r.Metrics.TransferTime)
	b = appendFloat(b, r.Metrics.WorkerTime)
	b = appendFloat(b, r.Metrics.SetupTime)
	b = appendFloat(b, r.Metrics.ExecTime)
	b = appendStr(b, r.Metrics.WorkerID)
	return appendStr(b, r.Metrics.LibraryInstance)
}

// appendFileSpec writes an input binding as the object's header and the
// binding's flag bits. Object.Data has no place here: the bytes reach
// the worker in a bulk frame, before the frame that names them.
func appendFileSpec(b []byte, fs *core.FileSpec) []byte {
	b = append(b, flagBits(fs.Cache, fs.PeerTransfer, fs.Unpack, fs.ByRef))
	if fs.Object == nil {
		return appendFileHdr(b, FileHdr{})
	}
	return appendFileHdr(b, HdrOf(fs.Object))
}

// appendFileHdr writes an object's header: what a control frame names
// it by, and what travels in front of its bytes in a bulk frame.
func appendFileHdr(b []byte, h FileHdr) []byte {
	b = appendStr(b, h.ID)
	b = appendStr(b, h.Name)
	b = binary.AppendVarint(b, int64(h.Kind))
	b = binary.AppendVarint(b, h.LogicalSize)
	return binary.AppendVarint(b, h.UnpackedSize)
}

func appendFetchFile(b []byte, f *FetchFile) []byte {
	b = append(b, binMarker, flagBits(f.Cache, f.Unpack, f.Shared, f.Own))
	b = appendStr(b, f.ID)
	b = appendStr(b, f.Name)
	b = appendStr(b, f.FromAddr)
	b = binary.AppendUvarint(b, uint64(len(f.AltAddrs)))
	for _, addr := range f.AltAddrs {
		b = appendStr(b, addr)
	}
	b = appendStr(b, f.Source)
	return binary.AppendVarint(b, f.Size)
}

func appendFileSpecs(b []byte, specs []core.FileSpec) []byte {
	b = binary.AppendUvarint(b, uint64(len(specs)))
	for i := range specs {
		b = appendFileSpec(b, &specs[i])
	}
	return b
}

func appendResources(b []byte, r core.Resources) []byte {
	b = binary.AppendVarint(b, int64(r.Cores))
	b = binary.AppendVarint(b, r.MemoryMB)
	return binary.AppendVarint(b, r.DiskMB)
}

func appendTask(b []byte, t *core.TaskSpec) []byte {
	b = append(b, binMarker)
	b = binary.BigEndian.AppendUint64(b, uint64(t.ID))
	b = append(b, flagBits(t.ResultByRef))
	b = appendStr(b, t.TenantID)
	b = appendStr(b, t.Script)
	b = appendFileSpecs(b, t.Inputs)
	b = appendFileSpecs(b, t.SharedFSReads)
	return appendResources(b, t.Resources)
}

func appendLibrary(b []byte, l *core.LibrarySpec) []byte {
	b = append(b, binMarker, flagBits(l.Env != nil))
	b = appendStr(b, l.Name)
	b = binary.AppendUvarint(b, uint64(len(l.Functions)))
	for i := range l.Functions {
		f := &l.Functions[i]
		b = appendStr(b, f.Name)
		b = appendStr(b, f.Source)
		b = appendBytes(b, f.Pickled)
	}
	b = appendBytes(b, l.ContextSetup)
	b = appendBytes(b, l.ContextArgs)
	if l.Env != nil {
		b = appendFileSpec(b, l.Env)
	}
	b = appendFileSpecs(b, l.Inputs)
	b = binary.AppendVarint(b, int64(l.Slots))
	b = binary.AppendVarint(b, int64(l.Mode))
	return appendResources(b, l.Resources)
}

// Interner deduplicates the dispatch plane's small identifier
// vocabulary (worker IDs, library and function names, instance IDs):
// a receive loop keeps one, and a repeated identifier decodes to the
// same string instead of costing a fresh allocation per frame. Not
// safe for concurrent use — one Interner per receive loop. A nil
// *Interner is valid and interns nothing.
type Interner struct {
	m map[string]string
}

// maxInternerEntries bounds the table so a pathological vocabulary
// (say, per-invocation instance IDs) cannot pin unbounded memory;
// past the cap, lookups still hit but misses fall back to plain
// copies.
const maxInternerEntries = 4096

func (in *Interner) intern(b []byte) string {
	if in == nil || len(b) == 0 {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok { // compiler elides the conversion
		return s
	}
	if in.m == nil {
		in.m = make(map[string]string)
	}
	if len(in.m) >= maxInternerEntries {
		return string(b)
	}
	s := string(b)
	in.m[s] = s
	return s
}

// binReader is a bounds-checked cursor over a binary body. Errors
// stick: after the first failure every read returns zero values, so
// decoders check err once at the end.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("proto: truncated binary frame at %s (offset %d of %d)", what, r.off, len(r.b))
	}
}

func (r *binReader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *binReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) bytes(what string) []byte {
	if r.err != nil {
		return nil
	}
	n, w := binary.Uvarint(r.b[r.off:])
	if w <= 0 || n > uint64(len(r.b)-r.off-w) {
		r.fail(what)
		return nil
	}
	r.off += w
	v := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}

func (r *binReader) str(what string) string {
	return string(r.bytes(what))
}

func (r *binReader) float(what string) float64 {
	return math.Float64frombits(r.u64(what))
}

func (r *binReader) int(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Varint(r.b[r.off:])
	if w <= 0 {
		r.fail(what)
		return 0
	}
	r.off += w
	return v
}

// count reads an element count and refuses one the rest of the body
// cannot hold at minSize encoded bytes per element, so a corrupt count
// fails here instead of sizing an allocation.
func (r *binReader) count(what string, minSize int) int {
	if r.err != nil {
		return 0
	}
	n, w := binary.Uvarint(r.b[r.off:])
	if w <= 0 || n > uint64(len(r.b)-r.off-w)/uint64(minSize) {
		r.fail(what)
		return 0
	}
	r.off += w
	return int(n)
}

// rest is the bulk payload: every byte after the header.
func (r *binReader) rest() []byte {
	if r.err != nil {
		return nil
	}
	p := r.b[r.off:]
	r.off = len(r.b)
	return p
}

// copied is bytes for a value that outlives the receive buffer the
// cursor aliases; empty decodes to nil.
func (r *binReader) copied(what string) []byte {
	if b := r.bytes(what); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// DecodeInvocation decodes a MsgInvoke body.
func DecodeInvocation(raw []byte) (core.InvocationSpec, error) {
	return DecodeInvocationInterned(raw, nil)
}

// DecodeInvocationInterned is DecodeInvocation with identifier strings
// (library, function) interned through in — the worker's receive loop
// sees the same few names tens of thousands of times per second.
func DecodeInvocationInterned(raw []byte, in *Interner) (core.InvocationSpec, error) {
	var inv core.InvocationSpec
	r := &binReader{b: raw}
	r.marker()
	inv.ID = int64(r.u64("id"))
	inv.Library = in.intern(r.bytes("library"))
	inv.Function = in.intern(r.bytes("function"))
	inv.Args = r.copied("args")
	return inv, r.done()
}

// DecodeResult decodes a MsgResult body.
func DecodeResult(raw []byte) (core.Result, error) {
	return DecodeResultInterned(raw, nil)
}

// DecodeResultInterned is DecodeResult with identifier strings (worker
// ID, library instance) interned through in — the manager's per-worker
// receive loop sees the same identifiers on every completion.
func DecodeResultInterned(raw []byte, in *Interner) (core.Result, error) {
	var res core.Result
	r := &binReader{b: raw}
	r.marker()
	res.ID = int64(r.u64("id"))
	flags := r.byte("flags")
	res.Ok = flags&1 != 0
	res.Retryable = flags&2 != 0
	res.Err = r.str("err")
	res.Value = r.copied("value")
	if flags&4 != 0 {
		ref := &core.ObjectRef{}
		ref.ID = r.str("ref_id")
		ref.Name = r.str("ref_name")
		ref.Size = int64(r.u64("ref_size"))
		ref.Owner = in.intern(r.bytes("ref_owner"))
		ref.Tier = int(r.byte("ref_tier"))
		res.Ref = ref
	}
	res.Metrics.TransferTime = r.float("transfer_time")
	res.Metrics.WorkerTime = r.float("worker_time")
	res.Metrics.SetupTime = r.float("setup_time")
	res.Metrics.ExecTime = r.float("exec_time")
	res.Metrics.WorkerID = in.intern(r.bytes("worker_id"))
	res.Metrics.LibraryInstance = in.intern(r.bytes("library_instance"))
	return res, r.done()
}

// Smallest encodings of the repeated elements, for binReader.count.
const (
	minFileSpecSize = 6 // flags, two empty strings, three one-byte ints
	minFunctionSize = 3 // three empty fields
)

func (r *binReader) fileSpec() core.FileSpec {
	flags := r.byte("file flags")
	return core.FileSpec{
		Object:       r.fileHdr().Object(nil),
		Cache:        flags&1 != 0,
		PeerTransfer: flags&2 != 0,
		Unpack:       flags&4 != 0,
		ByRef:        flags&8 != 0,
	}
}

func (r *binReader) fileHdr() FileHdr {
	return FileHdr{
		ID:           r.str("object id"),
		Name:         r.str("object name"),
		Kind:         int(r.int("object kind")),
		LogicalSize:  r.int("object logical size"),
		UnpackedSize: r.int("object unpacked size"),
	}
}

func (r *binReader) fileSpecs(what string) []core.FileSpec {
	n := r.count(what, minFileSpecSize)
	if n == 0 {
		return nil
	}
	specs := make([]core.FileSpec, n)
	for i := range specs {
		specs[i] = r.fileSpec()
	}
	return specs
}

func (r *binReader) resources() core.Resources {
	return core.Resources{
		Cores:    int(r.int("cores")),
		MemoryMB: r.int("memory"),
		DiskMB:   r.int("disk"),
	}
}

// done reports the cursor's sticky error, or bytes left over after the
// last field: a body is exactly its fields.
func (r *binReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("proto: %d trailing bytes after binary frame", len(r.b)-r.off)
	}
	return r.err
}

func (r *binReader) marker() {
	if r.byte("marker") != binMarker && r.err == nil {
		r.err = fmt.Errorf("proto: body is not binary-encoded")
	}
}

// DecodeTask decodes a MsgRunTask body. Every input's Object is a
// header — Data is nil; the worker resolves the bytes by ID through its
// data plane.
func DecodeTask(raw []byte) (core.TaskSpec, error) {
	var t core.TaskSpec
	r := &binReader{b: raw}
	r.marker()
	t.ID = int64(r.u64("id"))
	t.ResultByRef = r.byte("flags")&1 != 0
	t.TenantID = r.str("tenant")
	t.Script = r.str("script")
	t.Inputs = r.fileSpecs("inputs")
	t.SharedFSReads = r.fileSpecs("shared fs reads")
	t.Resources = r.resources()
	return t, r.done()
}

// DecodeLibrary decodes a MsgInstallLibrary body; as with DecodeTask,
// the environment and inputs come back as headers.
func DecodeLibrary(raw []byte) (core.LibrarySpec, error) {
	var l core.LibrarySpec
	r := &binReader{b: raw}
	r.marker()
	flags := r.byte("flags")
	l.Name = r.str("name")
	if n := r.count("functions", minFunctionSize); n > 0 {
		l.Functions = make([]core.FunctionSpec, n)
		for i := range l.Functions {
			f := &l.Functions[i]
			f.Name = r.str("function name")
			f.Source = r.str("function source")
			f.Pickled = r.copied("pickled function")
		}
	}
	l.ContextSetup = r.copied("context setup")
	l.ContextArgs = r.copied("context args")
	if flags&1 != 0 {
		env := r.fileSpec()
		l.Env = &env
	}
	l.Inputs = r.fileSpecs("inputs")
	l.Slots = int(r.int("slots"))
	l.Mode = core.ExecMode(r.int("mode"))
	l.Resources = r.resources()
	return l, r.done()
}

// DecodeHello decodes a MsgHello body.
func DecodeHello(raw []byte) (Hello, error) {
	var h Hello
	r := &binReader{b: raw}
	r.marker()
	h.WorkerID = r.str("worker id")
	h.Resources = r.resources()
	h.Cluster = r.str("cluster")
	h.DataAddr = r.str("data addr")
	h.MachineGFlops = r.float("gflops")
	return h, r.done()
}

// DecodeFetchFile decodes a MsgFetchFile body.
func DecodeFetchFile(raw []byte) (FetchFile, error) {
	var f FetchFile
	r := &binReader{b: raw}
	r.marker()
	flags := r.byte("flags")
	f.Cache, f.Unpack, f.Shared, f.Own = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	f.ID = r.str("id")
	f.Name = r.str("name")
	f.FromAddr = r.str("from addr")
	if n := r.count("alt addrs", 1); n > 0 {
		f.AltAddrs = make([]string, n)
		for i := range f.AltAddrs {
			f.AltAddrs[i] = r.str("alt addr")
		}
	}
	f.Source = r.str("source")
	f.Size = r.int("size")
	return f, r.done()
}

// DecodeFileAck decodes a MsgFileAck body.
func DecodeFileAck(raw []byte) (FileAck, error) {
	var a FileAck
	r := &binReader{b: raw}
	r.marker()
	flags := r.byte("flags")
	a.Ok, a.Cache = flags&1 != 0, flags&2 != 0
	a.ID = r.str("id")
	a.Source = r.str("source")
	a.Err = r.str("err")
	return a, r.done()
}

// DecodeLibraryAck decodes a MsgLibraryAck body.
func DecodeLibraryAck(raw []byte) (LibraryAck, error) {
	var a LibraryAck
	r := &binReader{b: raw}
	r.marker()
	flags := r.byte("flags")
	a.Ok, a.Retryable = flags&1 != 0, flags&2 != 0
	a.Library = r.str("library")
	a.Instance = r.str("instance")
	a.Err = r.str("err")
	a.SetupTime = r.float("setup time")
	return a, r.done()
}

// DecodeLog decodes a MsgLog body.
func DecodeLog(raw []byte) (LogMsg, error) {
	var m LogMsg
	r := &binReader{b: raw}
	r.marker()
	m.Worker = r.str("worker")
	m.Text = r.str("text")
	return m, r.done()
}

// DecodeString decodes the body of a one-string message: the library of
// a MsgRemoveLibrary, the object ID of a MsgSpillObject, MsgOwnObject or
// MsgGetFile, the text of a MsgError.
func DecodeString(raw []byte) (string, error) {
	r := &binReader{b: raw}
	r.marker()
	s := r.str("string")
	return s, r.done()
}

// DecodeShutdown checks a MsgShutdown body, which is the marker alone.
func DecodeShutdown(raw []byte) error {
	r := &binReader{b: raw}
	r.marker()
	return r.done()
}

// DecodePutFile decodes a MsgPutFileBulk body into its header and the
// object bytes after it. The payload aliases raw, which a bulk frame
// never shares with another frame: the caller may keep it as the
// object's bytes.
func DecodePutFile(raw []byte) (PutFileHdr, []byte, error) {
	var h PutFileHdr
	r := &binReader{b: raw}
	r.marker()
	flags := r.byte("flags")
	h.Cache, h.Unpack = flags&1 != 0, flags&2 != 0
	h.File = r.fileHdr()
	payload := r.rest()
	return h, payload, r.done()
}

// DecodeFileData decodes a MsgFileDataBulk body like DecodePutFile.
func DecodeFileData(raw []byte) (FileHdr, []byte, error) {
	r := &binReader{b: raw}
	r.marker()
	h := r.fileHdr()
	payload := r.rest()
	return h, payload, r.done()
}
