// Binary bodies for every frame: one encoder and one decoder per
// message type, written and read with internal/bincode, whose reader
// holds the rules for bytes a peer sends.
//
// A body leads with binMarker. A bulk frame's body is its header
// followed by the object bytes: the header delimits itself, and the
// payload is whatever follows it.
//
// MsgRunTask and MsgInstallLibrary are where "what a FileSpec looks
// like on the wire" is decided: its object's header (ID, name, kind,
// sizes) and its flag bits, never the object's bytes. Those move once,
// in a bulk frame (MsgPutFileBulk, MsgFileDataBulk); a control frame
// names an object, it does not carry it (DESIGN.md §13).
package proto

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/bincode"
	"repro/internal/content"
	"repro/internal/core"
)

// binMarker is the first byte of every body. Control frames were JSON
// once, and a JSON body starts with '{': a peer on such a build is
// refused cleanly by the first byte of its first frame instead of
// being misparsed.
const binMarker = 0xB1

// writeBody appends v's body to buf, refusing a value that has no
// encoding or is not a body of t. Its error names v's type, not v, so v
// does not escape: a value a producer boxes to send or queue it stays on
// its stack.
func writeBody(buf *bytes.Buffer, t MsgType, v any) error {
	body, mt := appendBody(buf.AvailableBuffer(), v)
	if mt != t {
		return fmt.Errorf("proto: no %v encoding for %v", t, reflect.TypeOf(v))
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
		b = bincode.AppendString(append(b, binMarker), m.WorkerID)
		b = appendResources(b, m.Resources)
		b = bincode.AppendString(b, m.Cluster)
		b = bincode.AppendString(b, m.DataAddr)
		return bincode.AppendFloat64BE(b, m.MachineGFlops), MsgHello
	case FetchFile:
		return appendFetchFile(b, &m), MsgFetchFile
	case FileAck:
		b = append(b, binMarker, bincode.Flags(m.Ok, m.Cache))
		b = bincode.AppendString(b, m.ID)
		b = bincode.AppendString(b, m.Source)
		return bincode.AppendString(b, m.Err), MsgFileAck
	case LibraryAck:
		b = append(b, binMarker, bincode.Flags(m.Ok, m.Retryable))
		b = bincode.AppendString(b, m.Library)
		b = bincode.AppendString(b, m.Instance)
		b = bincode.AppendString(b, m.Err)
		return bincode.AppendFloat64BE(b, m.SetupTime), MsgLibraryAck
	case LogMsg:
		b = bincode.AppendString(append(b, binMarker), m.Worker)
		return bincode.AppendString(b, m.Text), MsgLog
	case RemoveLibrary:
		return bincode.AppendString(append(b, binMarker), m.Library), MsgRemoveLibrary
	case SpillObject:
		return bincode.AppendString(append(b, binMarker), m.ID), MsgSpillObject
	case OwnObject:
		return bincode.AppendString(append(b, binMarker), m.ID), MsgOwnObject
	case GetFile:
		return bincode.AppendString(append(b, binMarker), m.ID), MsgGetFile
	case ErrorMsg:
		return bincode.AppendString(append(b, binMarker), m.Err), MsgError
	case Shutdown:
		return append(b, binMarker), MsgShutdown
	case PutFileHdr:
		return appendFileHdr(append(b, binMarker, bincode.Flags(m.Cache, m.Unpack)), m.File), MsgPutFileBulk
	case FileHdr:
		return appendFileHdr(append(b, binMarker), m), MsgFileDataBulk
	}
	return b, 0
}

func appendInvocation(b []byte, inv *core.InvocationSpec) []byte {
	b = bincode.AppendUint64BE(append(b, binMarker), uint64(inv.ID))
	b = bincode.AppendString(b, inv.Library)
	b = bincode.AppendString(b, inv.Function)
	return bincode.AppendBytes(b, inv.Args)
}

func appendResult(b []byte, r *core.Result) []byte {
	b = bincode.AppendUint64BE(append(b, binMarker), uint64(r.ID))
	b = append(b, bincode.Flags(r.Ok, r.Retryable, r.Ref != nil))
	b = bincode.AppendString(b, r.Err)
	b = bincode.AppendBytes(b, r.Value)
	if r.Ref != nil {
		b = bincode.AppendString(b, r.Ref.ID)
		b = bincode.AppendString(b, r.Ref.Name)
		b = bincode.AppendUint64BE(b, uint64(r.Ref.Size))
		b = bincode.AppendString(b, r.Ref.Owner)
		b = append(b, byte(r.Ref.Tier))
	}
	b = bincode.AppendFloat64BE(b, r.Metrics.TransferTime)
	b = bincode.AppendFloat64BE(b, r.Metrics.WorkerTime)
	b = bincode.AppendFloat64BE(b, r.Metrics.SetupTime)
	b = bincode.AppendFloat64BE(b, r.Metrics.ExecTime)
	b = bincode.AppendString(b, r.Metrics.WorkerID)
	return bincode.AppendString(b, r.Metrics.LibraryInstance)
}

// appendFileSpec writes an input binding as the object's header and the
// binding's flag bits. Object.Data has no place here: the bytes reach
// the worker in a bulk frame, before the frame that names them.
func appendFileSpec(b []byte, fs *core.FileSpec) []byte {
	b = append(b, bincode.Flags(fs.Cache, fs.PeerTransfer, fs.Unpack, fs.ByRef))
	if fs.Object == nil {
		return appendFileHdr(b, FileHdr{})
	}
	return appendFileHdr(b, HdrOf(fs.Object))
}

// appendFileHdr writes an object's header: what a control frame names
// it by, and what travels in front of its bytes in a bulk frame.
func appendFileHdr(b []byte, h FileHdr) []byte {
	b = bincode.AppendString(b, h.ID)
	b = bincode.AppendString(b, h.Name)
	b = bincode.AppendVarint(b, int64(h.Kind))
	b = bincode.AppendVarint(b, h.LogicalSize)
	return bincode.AppendVarint(b, h.UnpackedSize)
}

func appendFetchFile(b []byte, f *FetchFile) []byte {
	b = append(b, binMarker, bincode.Flags(f.Cache, f.Unpack, f.Shared, f.Own))
	b = bincode.AppendString(b, f.ID)
	b = bincode.AppendString(b, f.Name)
	b = bincode.AppendString(b, f.FromAddr)
	b = bincode.AppendUvarint(b, uint64(len(f.AltAddrs)))
	for _, addr := range f.AltAddrs {
		b = bincode.AppendString(b, addr)
	}
	b = bincode.AppendString(b, f.Source)
	return bincode.AppendVarint(b, f.Size)
}

func appendFileSpecs(b []byte, specs []core.FileSpec) []byte {
	b = bincode.AppendUvarint(b, uint64(len(specs)))
	for i := range specs {
		b = appendFileSpec(b, &specs[i])
	}
	return b
}

func appendResources(b []byte, r core.Resources) []byte {
	b = bincode.AppendVarint(b, int64(r.Cores))
	b = bincode.AppendVarint(b, r.MemoryMB)
	return bincode.AppendVarint(b, r.DiskMB)
}

func appendTask(b []byte, t *core.TaskSpec) []byte {
	b = bincode.AppendUint64BE(append(b, binMarker), uint64(t.ID))
	b = append(b, bincode.Flags(t.ResultByRef))
	b = bincode.AppendString(b, t.TenantID)
	b = bincode.AppendString(b, t.Script)
	b = appendFileSpecs(b, t.Inputs)
	b = appendFileSpecs(b, t.SharedFSReads)
	return appendResources(b, t.Resources)
}

func appendLibrary(b []byte, l *core.LibrarySpec) []byte {
	b = append(b, binMarker, bincode.Flags(l.Env != nil))
	b = bincode.AppendString(b, l.Name)
	b = bincode.AppendUvarint(b, uint64(len(l.Functions)))
	for i := range l.Functions {
		f := &l.Functions[i]
		b = bincode.AppendString(b, f.Name)
		b = bincode.AppendString(b, f.Source)
		b = bincode.AppendBytes(b, f.Pickled)
	}
	b = bincode.AppendBytes(b, l.ContextSetup)
	b = bincode.AppendBytes(b, l.ContextArgs)
	if l.Env != nil {
		b = appendFileSpec(b, l.Env)
	}
	b = appendFileSpecs(b, l.Inputs)
	b = bincode.AppendVarint(b, int64(l.Slots))
	b = bincode.AppendVarint(b, int64(l.Mode))
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

// open returns a reader over raw, past its marker.
func open(raw []byte) bincode.Reader {
	r := bincode.NewReader(raw)
	if r.Byte() != binMarker {
		r.Fail(errNotBinary)
	}
	return r
}

var errNotBinary = errors.New("body is not binary-encoded")

// done is the decoders' one error: the reader's, in proto's words.
func done(r *bincode.Reader) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("proto: binary frame: %w", err)
	}
	return nil
}

// copied is bytes for a value that outlives the receive buffer the
// reader aliases; empty decodes to nil.
func copied(r *bincode.Reader) []byte {
	if b := r.Bytes(); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// DecodeInvocationInterned decodes a MsgInvoke body, interning its
// identifier strings (library, function) through in — the worker's
// receive loop sees the same few names tens of thousands of times per
// second. Args is not copied: it aliases raw, and a caller that keeps it
// past the next receive copies it (the worker does, into its library's
// queue).
func DecodeInvocationInterned(raw []byte, in *Interner) (core.InvocationSpec, error) {
	var inv core.InvocationSpec
	r := open(raw)
	inv.ID = int64(r.Uint64BE())
	inv.Library = in.intern(r.Bytes())
	inv.Function = in.intern(r.Bytes())
	if args := r.Bytes(); len(args) > 0 {
		inv.Args = args
	}
	return inv, done(&r)
}

// DecodeResultInterned decodes a MsgResult body, interning its
// identifier strings (worker ID, library instance) through in — the
// manager's per-worker receive loop sees the same identifiers on every
// completion.
func DecodeResultInterned(raw []byte, in *Interner) (core.Result, error) {
	var res core.Result
	r := open(raw)
	res.ID = int64(r.Uint64BE())
	flags := r.Byte()
	res.Ok = flags&1 != 0
	res.Retryable = flags&2 != 0
	res.Err = r.Str()
	res.Value = copied(&r)
	if flags&4 != 0 {
		ref := &core.ObjectRef{}
		ref.ID = r.Str()
		ref.Name = r.Str()
		ref.Size = int64(r.Uint64BE())
		ref.Owner = in.intern(r.Bytes())
		ref.Tier = int(r.Byte())
		res.Ref = ref
	}
	res.Metrics.TransferTime = r.Float64BE()
	res.Metrics.WorkerTime = r.Float64BE()
	res.Metrics.SetupTime = r.Float64BE()
	res.Metrics.ExecTime = r.Float64BE()
	res.Metrics.WorkerID = in.intern(r.Bytes())
	res.Metrics.LibraryInstance = in.intern(r.Bytes())
	return res, done(&r)
}

// Smallest encodings of the repeated elements, for Reader.Count.
const (
	minFileSpecSize = 6 // flags, two empty strings, three one-byte ints
	minFunctionSize = 3 // three empty fields
)

// readFileSpec reads one FileSpec, its object's header into hdr,
// interning the header's strings through in. A task's transient input
// (Cache false: its pickled arguments) has an ID no later frame repeats,
// so with transient set that ID is copied rather than interned: it would
// only fill the table.
func readFileSpec(r *bincode.Reader, in *Interner, transient bool, hdr *content.Object) core.FileSpec {
	flags := r.Byte()
	ids := in
	if transient && flags&1 == 0 {
		ids = nil
	}
	*hdr = readFileHdr(r, ids, in).object(nil)
	return core.FileSpec{
		Object:       hdr,
		Cache:        flags&1 != 0,
		PeerTransfer: flags&2 != 0,
		Unpack:       flags&4 != 0,
		ByRef:        flags&8 != 0,
	}
}

func readFileHdr(r *bincode.Reader, ids, names *Interner) FileHdr {
	return FileHdr{
		ID:           ids.intern(r.Bytes()),
		Name:         names.intern(r.Bytes()),
		Kind:         int(r.Varint()),
		LogicalSize:  r.Varint(),
		UnpackedSize: r.Varint(),
	}
}

// readFileSpecs reads a list of FileSpecs. A list of up to three — a
// wrapped call's task frame names at most three files — is one block
// that holds the specs and their objects' headers, each list cut with
// cap == len; a longer one is two.
func readFileSpecs(r *bincode.Reader, in *Interner, transient bool) []core.FileSpec {
	var specs []core.FileSpec
	var hdrs []content.Object
	switch n := r.Count(minFileSpecSize); n {
	case 0:
		return nil
	case 1:
		b := new(struct {
			specs [1]core.FileSpec
			hdrs  [1]content.Object
		})
		specs, hdrs = b.specs[:], b.hdrs[:]
	case 2:
		b := new(struct {
			specs [2]core.FileSpec
			hdrs  [2]content.Object
		})
		specs, hdrs = b.specs[:], b.hdrs[:]
	case 3:
		b := new(struct {
			specs [3]core.FileSpec
			hdrs  [3]content.Object
		})
		specs, hdrs = b.specs[:], b.hdrs[:]
	default:
		specs, hdrs = make([]core.FileSpec, n), make([]content.Object, n)
	}
	for i := range specs {
		specs[i] = readFileSpec(r, in, transient, &hdrs[i])
	}
	return specs
}

func readResources(r *bincode.Reader) core.Resources {
	return core.Resources{
		Cores:    int(r.Varint()),
		MemoryMB: r.Varint(),
		DiskMB:   r.Varint(),
	}
}

// DecodeTask decodes a MsgRunTask body. Every input's Object is a
// header — Data is nil; the worker resolves the bytes by ID through its
// data plane.
func DecodeTask(raw []byte) (core.TaskSpec, error) {
	return DecodeTaskInterned(raw, nil)
}

// DecodeTaskInterned is DecodeTask interning its strings through in:
// the script, the tenant, every input's name and the ID of every input
// but a transient one. A worker running wrapped calls sees the same
// wrapper script, function and environment on every task frame; only
// the arguments are new each time.
func DecodeTaskInterned(raw []byte, in *Interner) (core.TaskSpec, error) {
	var t core.TaskSpec
	r := open(raw)
	t.ID = int64(r.Uint64BE())
	t.ResultByRef = r.Byte()&1 != 0
	t.TenantID = in.intern(r.Bytes())
	t.Script = in.intern(r.Bytes())
	t.Inputs = readFileSpecs(&r, in, true)
	t.SharedFSReads = readFileSpecs(&r, in, false)
	t.Resources = readResources(&r)
	return t, done(&r)
}

// DecodeLibrary decodes a MsgInstallLibrary body; as with DecodeTask,
// the environment and inputs come back as headers.
func DecodeLibrary(raw []byte) (core.LibrarySpec, error) {
	var l core.LibrarySpec
	r := open(raw)
	flags := r.Byte()
	l.Name = r.Str()
	if n := r.Count(minFunctionSize); n > 0 {
		l.Functions = make([]core.FunctionSpec, n)
		for i := range l.Functions {
			f := &l.Functions[i]
			f.Name = r.Str()
			f.Source = r.Str()
			f.Pickled = copied(&r)
		}
	}
	l.ContextSetup = copied(&r)
	l.ContextArgs = copied(&r)
	if flags&1 != 0 {
		env := readFileSpec(&r, nil, false, new(content.Object))
		l.Env = &env
	}
	l.Inputs = readFileSpecs(&r, nil, false)
	l.Slots = int(r.Varint())
	l.Mode = core.ExecMode(r.Varint())
	l.Resources = readResources(&r)
	return l, done(&r)
}

// DecodeHello decodes a MsgHello body.
func DecodeHello(raw []byte) (Hello, error) {
	var h Hello
	r := open(raw)
	h.WorkerID = r.Str()
	h.Resources = readResources(&r)
	h.Cluster = r.Str()
	h.DataAddr = r.Str()
	h.MachineGFlops = r.Float64BE()
	return h, done(&r)
}

// DecodeFetchFile decodes a MsgFetchFile body.
func DecodeFetchFile(raw []byte) (FetchFile, error) {
	var f FetchFile
	r := open(raw)
	flags := r.Byte()
	f.Cache, f.Unpack, f.Shared, f.Own = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
	f.ID = r.Str()
	f.Name = r.Str()
	f.FromAddr = r.Str()
	if n := r.Count(1); n > 0 {
		f.AltAddrs = make([]string, n)
		for i := range f.AltAddrs {
			f.AltAddrs[i] = r.Str()
		}
	}
	f.Source = r.Str()
	f.Size = r.Varint()
	return f, done(&r)
}

// DecodeFileAck decodes a MsgFileAck body.
func DecodeFileAck(raw []byte) (FileAck, error) {
	var a FileAck
	r := open(raw)
	flags := r.Byte()
	a.Ok, a.Cache = flags&1 != 0, flags&2 != 0
	a.ID = r.Str()
	a.Source = r.Str()
	a.Err = r.Str()
	return a, done(&r)
}

// DecodeLibraryAck decodes a MsgLibraryAck body.
func DecodeLibraryAck(raw []byte) (LibraryAck, error) {
	var a LibraryAck
	r := open(raw)
	flags := r.Byte()
	a.Ok, a.Retryable = flags&1 != 0, flags&2 != 0
	a.Library = r.Str()
	a.Instance = r.Str()
	a.Err = r.Str()
	a.SetupTime = r.Float64BE()
	return a, done(&r)
}

// DecodeLog decodes a MsgLog body.
func DecodeLog(raw []byte) (LogMsg, error) {
	var m LogMsg
	r := open(raw)
	m.Worker = r.Str()
	m.Text = r.Str()
	return m, done(&r)
}

// DecodeString decodes the body of a one-string message: the library of
// a MsgRemoveLibrary, the object ID of a MsgSpillObject, MsgOwnObject or
// MsgGetFile, the text of a MsgError.
func DecodeString(raw []byte) (string, error) {
	r := open(raw)
	s := r.Str()
	return s, done(&r)
}

// DecodeShutdown checks a MsgShutdown body, which is the marker alone.
func DecodeShutdown(raw []byte) error {
	r := open(raw)
	return done(&r)
}

// DecodePutFile decodes a MsgPutFileBulk body into its header and the
// object bytes after it. The payload aliases raw, which a bulk frame
// never shares with another frame: the caller may keep it as the
// object's bytes.
func DecodePutFile(raw []byte) (PutFileHdr, []byte, error) {
	var h PutFileHdr
	r := open(raw)
	flags := r.Byte()
	h.Cache, h.Unpack = flags&1 != 0, flags&2 != 0
	h.File = readFileHdr(&r, nil, nil)
	payload := r.Rest()
	return h, payload, done(&r)
}

// DecodeFileData decodes a MsgFileDataBulk body like DecodePutFile.
func DecodeFileData(raw []byte) (FileHdr, []byte, error) {
	r := open(raw)
	h := readFileHdr(&r, nil, nil)
	payload := r.Rest()
	return h, payload, done(&r)
}
