// Package pickle serializes MiniPy values — including function objects
// with their code, closures, captured globals, and parameter defaults —
// into a compact self-describing binary format, and reconstructs them
// in another interpreter. It plays the role cloudpickle plays in the
// paper: the Discover mechanism uses it whenever a function's code
// cannot be shipped as plain source, and FunctionCall arguments and
// results travel through it between manager, worker, and library.
//
// Function code is serialized by walking the AST: the printer renders
// the code object to canonical source, which the remote side re-parses.
// Closure cells and referenced module globals are pickled by value;
// module references are pickled by name and re-imported on the remote
// side, which is exactly what makes the software-dependency part of a
// function context matter (an import that is not installed in the
// worker's environment fails at unpickle time).
//
// Shared and cyclic structure is preserved through a memo table, so
// self-recursive functions and aliased containers round-trip correctly.
package pickle

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bincode"
	"repro/internal/minipy"
)

// Format tags. The format starts with a magic byte and version.
const (
	magic   = 0xD4
	version = 1
)

const (
	tagNone byte = iota
	tagTrue
	tagFalse
	tagInt
	tagFloat
	tagStr
	tagList
	tagTuple
	tagDict
	tagFunc
	tagBuiltin
	tagModule
	tagObject
	tagRef
)

// encoderPool recycles encoders (buffer plus memo table): arguments
// and results are pickled once per invocation, so at dispatch rates a
// fresh encoder per call is measurable allocation churn.
var encoderPool = sync.Pool{New: func() any { return &encoder{memo: map[any]int{}} }}

// maxPooledEncoder bounds what goes back in the pool, so one giant
// value graph cannot pin its buffer forever.
const maxPooledEncoder = 1 << 20

// Marshal serializes a MiniPy value graph to bytes.
func Marshal(v minipy.Value) ([]byte, error) { return Append(nil, v) }

// Append is Marshal appending to dst: a caller that keeps a buffer with
// room for the bytes pickles into it without allocating.
func Append(dst []byte, v minipy.Value) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	if s, ok := v.(minipy.Str); ok && len(s) >= maxPooledEncoder {
		// A string root too large for the pool — a task result that is
		// megabytes of text — has a size known up front: one allocation of
		// it, not a doubling series, in a buffer the caller will keep. The
		// header is magic, version, tag and a uvarint length.
		e.buf = make([]byte, 0, len(s)+3+10)
	}
	e.buf = append(e.buf, magic, version)
	if err := e.encode(v); err != nil {
		e.release()
		return dst, err
	}
	return e.finish(dst), nil
}

// MarshalTuple writes exactly the bytes Marshal(minipy.NewTuple(vs...))
// writes, the tuple in memo slot 0, without building the tuple: an
// invocation's arguments cost only their bytes, and neither a tuple nor
// the caller's slice of them escapes.
func MarshalTuple(vs []minipy.Value) ([]byte, error) { return AppendTuple(nil, vs) }

// AppendTuple is MarshalTuple appending to dst.
func AppendTuple(dst []byte, vs []minipy.Value) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	e.buf = append(e.buf, magic, version)
	// The tuple is one level of value and takes the first memo slot; no
	// element can refer to it, as none can reach a tuple that does not
	// exist.
	e.depth, e.next = 1, 1
	err := e.encodeSeq(tagTuple, vs)
	e.depth = 0
	if err != nil {
		e.release()
		return dst, err
	}
	return e.finish(dst), nil
}

// finish appends the encoded bytes to dst and releases e. The copy is
// the only allocation, and only when dst has no room for them.
func (e *encoder) finish(dst []byte) []byte {
	var out []byte
	if cap(e.buf) > maxPooledEncoder && len(dst) == 0 && cap(dst) < len(e.buf) {
		// Too big to go back in the pool: the caller gets the buffer
		// itself rather than a copy of it.
		out, e.buf = e.buf, nil
	} else {
		out = append(dst, e.buf...)
	}
	e.release()
	return out
}

// release resets the encoder and returns it to the pool.
func (e *encoder) release() {
	if cap(e.buf) > maxPooledEncoder || len(e.memo) > 1024 {
		return
	}
	e.buf = e.buf[:0]
	clear(e.memo)
	e.next = 0
	encoderPool.Put(e)
}

// Unmarshal reconstructs a value graph in the context of the given
// interpreter. The interpreter supplies the builtins for rebuilt
// function globals and resolves module references through its host —
// so unpickling a function whose context imports an uninstalled module
// fails here, mirroring Python behaviour. The result shares no memory
// with data, which may be a receive buffer about to be overwritten.
func Unmarshal(data []byte, ip *minipy.Interp) (minipy.Value, error) {
	return unmarshal(data, ip, false)
}

// borrowFloor is the shortest string UnmarshalBorrow hands out as a view
// of its input: under it a copy is cheap, and a short string — a dict
// key, a label — must not keep megabytes of input reachable.
const borrowFloor = 4 << 10

// UnmarshalBorrow is Unmarshal for data that is never written again —
// the bytes of a content object. Strings of at least borrowFloor bytes
// in the result are views of data rather than copies, so unpickling a
// staged object costs no second copy of its text.
func UnmarshalBorrow(data []byte, ip *minipy.Interp) (minipy.Value, error) {
	return unmarshal(data, ip, true)
}

func unmarshal(data []byte, ip *minipy.Interp, borrow bool) (minipy.Value, error) {
	d := newDecoder(data, ip, borrow)
	v := d.decode()
	if err := d.release(); err != nil {
		return nil, err
	}
	return v, nil
}

// errTupleRef stops UnmarshalTuple at a reference to the tuple it does
// not build.
var errTupleRef = errors.New("an element refers to its tuple")

// UnmarshalTuple is Unmarshal for what MarshalTuple writes: it appends
// the tuple's elements to dst and builds no tuple, so an invocation's
// arguments decode into a slice the caller keeps. A value that is not a
// tuple comes back as other, with dst unchanged. Elements and errors are
// Unmarshal's on every input: one whose elements refer back to the tuple
// decodes through Unmarshal.
func UnmarshalTuple(dst []minipy.Value, data []byte, ip *minipy.Interp) (elems []minipy.Value, other minipy.Value, err error) {
	if len(data) > 2 && data[2] == tagTuple {
		d := newDecoder(data, ip, false)
		elems = dst
		d.Byte() // the tag
		if d.Enter(maxDepth) {
			// The tag case of value, with the tuple's memo slot left nil.
			n := d.Count(1)
			d.remember(nil)
			d.open++
			d.fill(&elems, n)
			d.open--
			d.Leave()
		}
		if err = d.release(); err == nil {
			return elems, nil, nil
		}
		clear(elems[len(dst):])
		if !errors.Is(err, errTupleRef) {
			return dst, nil, err
		}
	}
	v, err := Unmarshal(data, ip)
	if tup, ok := v.(*minipy.Tuple); ok {
		return append(dst, tup.Elems...), nil, nil
	}
	return dst, v, err
}

// newDecoder takes a pooled decoder over data and reads the header.
func newDecoder(data []byte, ip *minipy.Interp, borrow bool) *decoder {
	d := decoderPool.Get().(*decoder)
	d.Reader, d.ip, d.borrow = bincode.NewReader(data), ip, borrow
	if d.Byte() != magic {
		d.Fail(errors.New("bad magic"))
	}
	if v := d.Byte(); v != version {
		d.Fail(fmt.Errorf("unsupported version %d", v))
	}
	return d
}

// release returns d to the pool and reports how its input ended.
func (d *decoder) release() error {
	err := d.Done()
	d.Reader, d.ip = bincode.Reader{}, nil
	// A pooled decoder keeps nothing it decoded. done holds only tuples
	// the memo does, so it is small whenever the memo is.
	if cap(d.memo) <= 1024 {
		clear(d.memo)
		d.memo = d.memo[:0]
		clear(d.done)
		decoderPool.Put(d)
	}
	if err != nil {
		return fmt.Errorf("pickle: %w", err)
	}
	return nil
}

// decoderPool recycles decoders (struct plus memo slice) — the decode
// counterpart of encoderPool.
var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

type encoder struct {
	buf  []byte
	memo map[any]int // pointer identity -> memo id
	next int
	// depth counts the values being encoded, outermost first.
	depth int
}

// seen writes a reference to ptr if it was encoded before, and reports
// whether it was; otherwise ptr is memoized and the caller encodes it.
func (e *encoder) seen(ptr any) bool {
	if id, ok := e.memo[ptr]; ok {
		e.buf = bincode.AppendUvarint(append(e.buf, tagRef), uint64(id))
		return true
	}
	e.memo[ptr] = e.next
	e.next++
	return false
}

// encode writes one value, at most maxDepth levels deep: whatever
// Marshal emits, Unmarshal accepts.
func (e *encoder) encode(v minipy.Value) error {
	if e.depth == maxDepth {
		return fmt.Errorf("pickle: value nested deeper than %d levels", maxDepth)
	}
	e.depth++
	err := e.value(v)
	e.depth--
	return err
}

// encodeSeq writes a list's or tuple's elements, counted, after tag.
func (e *encoder) encodeSeq(tag byte, vs []minipy.Value) error {
	e.buf = bincode.AppendUvarint(append(e.buf, tag), uint64(len(vs)))
	for _, v := range vs {
		if err := e.encode(v); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) value(v minipy.Value) error {
	switch x := v.(type) {
	case minipy.None:
		e.buf = append(e.buf, tagNone)
	case minipy.Bool:
		if x {
			e.buf = append(e.buf, tagTrue)
		} else {
			e.buf = append(e.buf, tagFalse)
		}
	case minipy.Int:
		e.buf = bincode.AppendVarint(append(e.buf, tagInt), int64(x))
	case minipy.Float:
		e.buf = bincode.AppendFloat64LE(append(e.buf, tagFloat), float64(x))
	case minipy.Str:
		e.buf = bincode.AppendString(append(e.buf, tagStr), string(x))
	case *minipy.List:
		if !e.seen(x) {
			return e.encodeSeq(tagList, x.Elems)
		}
	case *minipy.Tuple:
		if !e.seen(x) {
			return e.encodeSeq(tagTuple, x.Elems)
		}
	case *minipy.Dict:
		if e.seen(x) {
			return nil
		}
		e.buf = bincode.AppendUvarint(append(e.buf, tagDict), uint64(x.Len()))
		for i := range x.Len() {
			k, val := x.Item(i)
			if err := e.encode(k); err != nil {
				return err
			}
			if err := e.encode(val); err != nil {
				return err
			}
		}
	case *minipy.Func:
		return e.encodeFunc(x)
	case *minipy.Builtin:
		e.buf = bincode.AppendString(append(e.buf, tagBuiltin), x.Name)
	case *minipy.ModuleVal:
		e.buf = bincode.AppendString(append(e.buf, tagModule), x.Name)
	case *minipy.Object:
		if x.Host != nil {
			return fmt.Errorf("pickle: cannot serialize %s object holding a host resource handle", x.Class)
		}
		if e.seen(x) {
			return nil
		}
		e.buf = bincode.AppendString(append(e.buf, tagObject), x.Class)
		_, err := e.encodeStringMap(x.Attrs)
		return err
	case *minipy.BoundMethod:
		return fmt.Errorf("pickle: cannot serialize bound method %s of %s", x.Name, x.Recv.Type())
	default:
		return fmt.Errorf("pickle: cannot serialize value of type %s", v.Type())
	}
	return nil
}

func (e *encoder) encodeFunc(f *minipy.Func) error {
	if e.seen(f) {
		return nil
	}
	src, _, err := minipy.GetSource(f)
	if err != nil {
		return fmt.Errorf("pickle: function %q: %w", f.Name, err)
	}
	closure, globals, _ := minipy.ResolveFree(f)
	params := minipy.FuncParams(f)

	e.buf = bincode.AppendString(append(e.buf, tagFunc), f.Name)
	e.buf = bincode.AppendString(e.buf, f.Module)
	e.buf = bincode.AppendString(append(e.buf, bincode.Flags(f.Expr != nil)), src)
	e.buf = bincode.AppendUvarint(e.buf, uint64(len(params)))
	for _, p := range params {
		e.buf = append(bincode.AppendString(e.buf, p.Name), bincode.Flags(p.HasDefault))
		if p.HasDefault {
			if err := e.encode(p.Default); err != nil {
				return err
			}
		}
	}
	for _, m := range []map[string]minipy.Value{closure, globals} {
		if k, err := e.encodeStringMap(m); err != nil {
			return fmt.Errorf("pickle: capturing %q for function %q: %w", k, f.Name, err)
		}
	}
	return nil
}

// encodeStringMap writes m's entries sorted by key; on failure it
// reports the key whose value did not encode.
func (e *encoder) encodeStringMap(m map[string]minipy.Value) (string, error) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	e.buf = bincode.AppendUvarint(e.buf, uint64(len(names)))
	for _, k := range names {
		e.buf = bincode.AppendString(e.buf, k)
		if err := e.encode(m[k]); err != nil {
			return k, err
		}
	}
	return "", nil
}

type decoder struct {
	bincode.Reader
	ip   *minipy.Interp
	memo []minipy.Value
	// borrow lets string values alias data (UnmarshalBorrow).
	borrow bool
	// open counts the tuples being filled; done holds tuples found
	// finished, with all they reach (see unfinished).
	open int
	done map[*minipy.Tuple]bool
}

// maxDepth bounds how deep a value nests, encoded or decoded — both
// recurse once per level, and a hostile input nests as deep as it is
// long.
const maxDepth = minipy.MaxValueDepth

func (d *decoder) remember(v minipy.Value) {
	d.memo = append(d.memo, v)
}

// decode reads one value, at most maxDepth levels deep. After the
// reader fails it returns nil or a placeholder, never more work.
func (d *decoder) decode() minipy.Value {
	if !d.Enter(maxDepth) {
		return nil
	}
	v := d.value()
	d.Leave()
	return v
}

func (d *decoder) value() minipy.Value {
	switch tag := d.Byte(); tag {
	case tagNone:
		return minipy.NoneValue
	case tagTrue:
		return minipy.Bool(true)
	case tagFalse:
		return minipy.Bool(false)
	case tagInt:
		return minipy.Int(d.Varint())
	case tagFloat:
		return minipy.Float(d.Float64LE())
	case tagStr:
		b := d.Bytes()
		// A view of the input when borrowing and the string is worth it,
		// a copy otherwise.
		if d.borrow && len(b) >= borrowFloor {
			return minipy.BorrowStr(b)
		}
		return minipy.Str(b)
	case tagList:
		// Each element is at least its tag byte.
		n := d.Count(1)
		l := &minipy.List{Elems: make([]minipy.Value, 0, n)}
		d.remember(l)
		d.fill(&l.Elems, n)
		return l
	case tagTuple:
		n := d.Count(1)
		t := &minipy.Tuple{Elems: make([]minipy.Value, 0, n)}
		d.remember(t)
		d.open++
		d.fill(&t.Elems, n)
		d.open--
		return t
	case tagDict:
		dict := minipy.NewDict()
		d.remember(dict)
		for n := d.Count(2); n > 0; n-- {
			k, v := d.decode(), d.decode()
			if d.Err() != nil {
				break
			}
			if err := dict.Set(k, v); err != nil {
				d.Fail(err)
			} else if d.unfinished(k) {
				d.Fail(errors.New("a dict key refers to a tuple still being decoded"))
			}
		}
		return dict
	case tagFunc:
		return d.decodeFunc()
	case tagBuiltin:
		name := d.Str()
		v, ok := minipy.UniversalBuiltin(name)
		if !ok {
			d.Fail(fmt.Errorf("unknown builtin %q", name))
		}
		return v
	case tagModule:
		name := d.Str()
		if d.Err() != nil {
			return nil
		}
		mod, err := d.ip.Host().ResolveModule(d.ip, name)
		if err != nil {
			d.Fail(fmt.Errorf("resolving module reference: %w", err))
			return nil
		}
		return mod
	case tagObject:
		obj := minipy.NewObject(d.Str())
		d.remember(obj)
		d.stringMap(obj.Attrs)
		return obj
	case tagRef:
		switch id := d.Uvarint(); {
		case id >= uint64(len(d.memo)):
			d.Fail(fmt.Errorf("dangling memo reference %d", id))
		case d.memo[id] == nil:
			// UnmarshalTuple's unbuilt tuple: only a nil slot there.
			d.Fail(errTupleRef)
		default:
			return d.memo[id]
		}
	default:
		d.Fail(fmt.Errorf("unknown tag 0x%02x", tag))
	}
	return nil
}

// fill appends n decoded elements to the container's *vs, made with
// capacity n, one at a time: a reference back to the unfinished
// container sees only elements already decoded, never a nil slot, and
// until the last one it holds fewer elements than its capacity.
func (d *decoder) fill(vs *[]minipy.Value, n int) {
	for ; n > 0 && d.Err() == nil; n-- {
		*vs = append(*vs, d.decode())
	}
}

// unfinished reports whether a hashable value reaches a tuple fill has
// not finished. As a dict key, its hash would change once the tuple is
// filled and strand the entry. No value Marshal accepts does this: a key
// reaching a tuple that holds the dict would itself hold the dict. With
// no tuple open there is nothing to find, and a tuple found finished is
// remembered, so a key sharing subtuples costs its distinct tuples.
func (d *decoder) unfinished(v minipy.Value) bool {
	t, ok := v.(*minipy.Tuple)
	if !ok || d.open == 0 || d.done[t] {
		return false
	}
	if len(t.Elems) < cap(t.Elems) {
		return true
	}
	for _, e := range t.Elems {
		if d.unfinished(e) {
			return true
		}
	}
	if d.done == nil {
		d.done = map[*minipy.Tuple]bool{}
	}
	d.done[t] = true
	return false
}

// stringMap decodes counted (string, value) entries into m, each at
// least two bytes: a length and a tag. A nil m is made when there are
// entries, and stays nil when there are none.
func (d *decoder) stringMap(m map[string]minipy.Value) map[string]minipy.Value {
	n := d.Count(2)
	if m == nil && n > 0 {
		m = make(map[string]minipy.Value, n)
	}
	for ; n > 0; n-- {
		k := d.Str()
		m[k] = d.decode()
	}
	return m
}

func (d *decoder) decodeFunc() minipy.Value {
	spec := &minipy.RebuildSpec{
		Name:     d.Str(),
		Module:   d.Str(),
		IsLambda: d.Byte() == 1,
		// The worker's code cache holds the text of a function it has
		// rebuilt before: the rebuilt function shares it.
		Source: d.ip.Code.Source(d.Bytes()),
	}
	// Allocate the function shell and register it in the memo *before*
	// decoding its captures, so self-recursive and mutually recursive
	// references resolve to the final object.
	fn := &minipy.Func{}
	d.remember(fn)
	// A parameter is at least two bytes: its name's length and a flag.
	if n := d.Count(2); n > 0 {
		spec.Params = make([]minipy.ParamInfo, 0, n)
		for ; n > 0; n-- {
			info := minipy.ParamInfo{Name: d.Str()}
			if d.Byte() == 1 {
				info.HasDefault, info.Default = true, d.decode()
			}
			spec.Params = append(spec.Params, info)
		}
	}
	spec.Closure = d.stringMap(nil)
	spec.Globals = d.stringMap(nil)
	if d.Err() != nil {
		return nil
	}
	if err := minipy.RebuildFuncInto(d.ip, spec, fn); err != nil {
		d.Fail(err)
		return nil
	}
	return fn
}
