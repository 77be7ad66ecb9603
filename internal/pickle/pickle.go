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
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

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
func Marshal(v minipy.Value) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	if s, ok := v.(minipy.Str); ok && len(s) >= maxPooledEncoder {
		// A string root too large for the pool — a task result that is
		// megabytes of text — has a size known up front: one allocation of
		// it, not a doubling series, in a buffer the caller will keep.
		e.buf = *bytes.NewBuffer(make([]byte, 0, len(s)+3+binary.MaxVarintLen64))
	}
	e.buf.WriteByte(magic)
	e.buf.WriteByte(version)
	if err := e.encode(v); err != nil {
		e.release()
		return nil, err
	}
	out := e.buf.Bytes()
	if e.buf.Cap() > maxPooledEncoder {
		// Too big to go back in the pool: the caller gets the buffer
		// itself rather than a copy of it.
		e.buf = bytes.Buffer{}
	} else {
		out = append([]byte(nil), out...)
	}
	e.release()
	return out, nil
}

// release resets the encoder and returns it to the pool.
func (e *encoder) release() {
	if e.buf.Cap() > maxPooledEncoder || len(e.memo) > 1024 {
		return
	}
	e.buf.Reset()
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
	if len(data) < 2 || data[0] != magic {
		return nil, fmt.Errorf("pickle: bad magic")
	}
	if data[1] != version {
		return nil, fmt.Errorf("pickle: unsupported version %d", data[1])
	}
	d := decoderPool.Get().(*decoder)
	d.data, d.pos, d.ip, d.borrow, d.spare = data, 2, ip, borrow, len(data)
	v, err := d.decode()
	if err == nil && d.pos != len(d.data) {
		err = fmt.Errorf("pickle: %d trailing bytes", len(d.data)-d.pos)
	}
	d.data, d.ip, d.depth = nil, nil, 0
	if cap(d.memo) <= 1024 {
		clear(d.memo)
		d.memo = d.memo[:0]
		decoderPool.Put(d)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// decoderPool recycles decoders (struct plus memo slice) — the decode
// counterpart of encoderPool.
var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

type encoder struct {
	buf  bytes.Buffer
	memo map[any]int // pointer identity -> memo id
	next int
	// depth counts the values being encoded, outermost first.
	depth int
}

func (e *encoder) writeUvarint(n uint64) {
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], n)
	e.buf.Write(tmp[:k])
}

func (e *encoder) writeVarint(n int64) {
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutVarint(tmp[:], n)
	e.buf.Write(tmp[:k])
}

func (e *encoder) writeString(s string) {
	e.writeUvarint(uint64(len(s)))
	e.buf.WriteString(s)
}

// memoize registers ptr and returns (id, alreadySeen).
func (e *encoder) memoize(ptr any) (int, bool) {
	if id, ok := e.memo[ptr]; ok {
		return id, true
	}
	id := e.next
	e.next++
	e.memo[ptr] = id
	return id, false
}

func (e *encoder) emitRef(id int) {
	e.buf.WriteByte(tagRef)
	e.writeUvarint(uint64(id))
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

func (e *encoder) value(v minipy.Value) error {
	switch x := v.(type) {
	case minipy.None:
		e.buf.WriteByte(tagNone)
	case minipy.Bool:
		if x {
			e.buf.WriteByte(tagTrue)
		} else {
			e.buf.WriteByte(tagFalse)
		}
	case minipy.Int:
		e.buf.WriteByte(tagInt)
		e.writeVarint(int64(x))
	case minipy.Float:
		e.buf.WriteByte(tagFloat)
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(float64(x)))
		e.buf.Write(tmp[:])
	case minipy.Str:
		e.buf.WriteByte(tagStr)
		e.writeString(string(x))
	case *minipy.List:
		if id, seen := e.memoize(x); seen {
			e.emitRef(id)
			return nil
		}
		e.buf.WriteByte(tagList)
		e.writeUvarint(uint64(len(x.Elems)))
		for _, el := range x.Elems {
			if err := e.encode(el); err != nil {
				return err
			}
		}
	case *minipy.Tuple:
		if id, seen := e.memoize(x); seen {
			e.emitRef(id)
			return nil
		}
		e.buf.WriteByte(tagTuple)
		e.writeUvarint(uint64(len(x.Elems)))
		for _, el := range x.Elems {
			if err := e.encode(el); err != nil {
				return err
			}
		}
	case *minipy.Dict:
		if id, seen := e.memoize(x); seen {
			e.emitRef(id)
			return nil
		}
		e.buf.WriteByte(tagDict)
		keys := x.Keys()
		e.writeUvarint(uint64(len(keys)))
		for _, k := range keys {
			val, _ := x.Get(k)
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
		e.buf.WriteByte(tagBuiltin)
		e.writeString(x.Name)
	case *minipy.ModuleVal:
		e.buf.WriteByte(tagModule)
		e.writeString(x.Name)
	case *minipy.Object:
		if x.Host != nil {
			return fmt.Errorf("pickle: cannot serialize %s object holding a host resource handle", x.Class)
		}
		if id, seen := e.memoize(x); seen {
			e.emitRef(id)
			return nil
		}
		e.buf.WriteByte(tagObject)
		e.writeString(x.Class)
		names := make([]string, 0, len(x.Attrs))
		for k := range x.Attrs {
			names = append(names, k)
		}
		sort.Strings(names)
		e.writeUvarint(uint64(len(names)))
		for _, k := range names {
			e.writeString(k)
			if err := e.encode(x.Attrs[k]); err != nil {
				return err
			}
		}
	case *minipy.BoundMethod:
		return fmt.Errorf("pickle: cannot serialize bound method %s of %s", x.Name, x.Recv.Type())
	default:
		return fmt.Errorf("pickle: cannot serialize value of type %s", v.Type())
	}
	return nil
}

func (e *encoder) encodeFunc(f *minipy.Func) error {
	if id, seen := e.memoize(f); seen {
		e.emitRef(id)
		return nil
	}
	src, _, err := minipy.GetSource(f)
	if err != nil {
		return fmt.Errorf("pickle: function %q: %w", f.Name, err)
	}
	closure, globals, _ := minipy.ResolveFree(f)
	params := minipy.FuncParams(f)

	e.buf.WriteByte(tagFunc)
	e.writeString(f.Name)
	e.writeString(f.Module)
	if f.Expr != nil {
		e.buf.WriteByte(1) // lambda
	} else {
		e.buf.WriteByte(0)
	}
	e.writeString(src)
	e.writeUvarint(uint64(len(params)))
	for _, p := range params {
		e.writeString(p.Name)
		if p.HasDefault {
			e.buf.WriteByte(1)
			if err := e.encode(p.Default); err != nil {
				return err
			}
		} else {
			e.buf.WriteByte(0)
		}
	}
	if err := e.encodeStringMap(closure, f.Name); err != nil {
		return err
	}
	if err := e.encodeStringMap(globals, f.Name); err != nil {
		return err
	}
	return nil
}

func (e *encoder) encodeStringMap(m map[string]minipy.Value, fname string) error {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	e.writeUvarint(uint64(len(names)))
	for _, k := range names {
		e.writeString(k)
		if err := e.encode(m[k]); err != nil {
			return fmt.Errorf("pickle: capturing %q for function %q: %w", k, fname, err)
		}
	}
	return nil
}

type decoder struct {
	data []byte
	pos  int
	ip   *minipy.Interp
	memo []minipy.Value
	// borrow lets string values alias data (UnmarshalBorrow).
	borrow bool
	// depth counts the values being decoded, outermost first; spare is
	// the input bytes no container has yet reserved an element slot for.
	depth, spare int
}

// maxDepth bounds how deep a value nests, encoded or decoded — both
// recurse once per level, and a hostile input nests as deep as it is
// long.
const maxDepth = minipy.MaxValueDepth

func (d *decoder) readByte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, fmt.Errorf("pickle: truncated data")
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) readUvarint() (uint64, error) {
	n, k := binary.Uvarint(d.data[d.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("pickle: bad uvarint")
	}
	d.pos += k
	return n, nil
}

func (d *decoder) readVarint() (int64, error) {
	n, k := binary.Varint(d.data[d.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("pickle: bad varint")
	}
	d.pos += k
	return n, nil
}

// readBytes returns the next length-prefixed run of data, uncopied.
func (d *decoder) readBytes() ([]byte, error) {
	n, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)-d.pos) {
		return nil, fmt.Errorf("pickle: truncated string")
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

func (d *decoder) readString() (string, error) {
	b, err := d.readBytes()
	return string(b), err
}

func (d *decoder) remember(v minipy.Value) int {
	d.memo = append(d.memo, v)
	return len(d.memo) - 1
}

// elems reserves the capacity to give n decoded elements: n, up to the
// bytes left and those no enclosing container reserved — each element
// costs at least one byte — so no hostile length, nor a nest of them,
// sizes the allocation.
func (d *decoder) elems(n uint64) int {
	c := int(min(n, uint64(len(d.data)-d.pos), uint64(d.spare)))
	d.spare -= c
	return c
}

// decode reads one value, at most maxDepth levels deep.
func (d *decoder) decode() (minipy.Value, error) {
	if d.depth == maxDepth {
		return nil, fmt.Errorf("pickle: value nested deeper than %d levels", maxDepth)
	}
	d.depth++
	v, err := d.value()
	d.depth--
	return v, err
}

func (d *decoder) value() (minipy.Value, error) {
	tag, err := d.readByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNone:
		return minipy.NoneValue, nil
	case tagTrue:
		return minipy.Bool(true), nil
	case tagFalse:
		return minipy.Bool(false), nil
	case tagInt:
		n, err := d.readVarint()
		if err != nil {
			return nil, err
		}
		return minipy.Int(n), nil
	case tagFloat:
		if d.pos+8 > len(d.data) {
			return nil, fmt.Errorf("pickle: truncated float")
		}
		bits := binary.LittleEndian.Uint64(d.data[d.pos:])
		d.pos += 8
		return minipy.Float(math.Float64frombits(bits)), nil
	case tagStr:
		b, err := d.readBytes()
		if err != nil {
			return nil, err
		}
		// A view of the input when borrowing and the string is worth it,
		// a copy otherwise.
		if d.borrow && len(b) >= borrowFloor {
			return minipy.BorrowStr(b), nil
		}
		return minipy.Str(b), nil
	case tagList:
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		l := &minipy.List{Elems: make([]minipy.Value, 0, d.elems(n))}
		d.remember(l)
		for i := uint64(0); i < n; i++ {
			el, err := d.decode()
			if err != nil {
				return nil, err
			}
			l.Elems = append(l.Elems, el)
		}
		return l, nil
	case tagTuple:
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		t := &minipy.Tuple{Elems: make([]minipy.Value, 0, d.elems(n))}
		d.remember(t)
		for i := uint64(0); i < n; i++ {
			el, err := d.decode()
			if err != nil {
				return nil, err
			}
			t.Elems = append(t.Elems, el)
		}
		return t, nil
	case tagDict:
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		dict := minipy.NewDict()
		d.remember(dict)
		for i := uint64(0); i < n; i++ {
			k, err := d.decode()
			if err != nil {
				return nil, err
			}
			v, err := d.decode()
			if err != nil {
				return nil, err
			}
			if err := dict.Set(k, v); err != nil {
				return nil, fmt.Errorf("pickle: %w", err)
			}
		}
		return dict, nil
	case tagFunc:
		return d.decodeFunc()
	case tagBuiltin:
		name, err := d.readString()
		if err != nil {
			return nil, err
		}
		v, ok := minipy.UniversalBuiltin(name)
		if !ok {
			return nil, fmt.Errorf("pickle: unknown builtin %q", name)
		}
		return v, nil
	case tagModule:
		name, err := d.readString()
		if err != nil {
			return nil, err
		}
		mod, err := d.ip.Host().ResolveModule(d.ip, name)
		if err != nil {
			return nil, fmt.Errorf("pickle: resolving module reference: %w", err)
		}
		return mod, nil
	case tagObject:
		class, err := d.readString()
		if err != nil {
			return nil, err
		}
		obj := minipy.NewObject(class)
		d.remember(obj)
		n, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			k, err := d.readString()
			if err != nil {
				return nil, err
			}
			v, err := d.decode()
			if err != nil {
				return nil, err
			}
			obj.Attrs[k] = v
		}
		return obj, nil
	case tagRef:
		id, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if id >= uint64(len(d.memo)) {
			return nil, fmt.Errorf("pickle: dangling memo reference %d", id)
		}
		return d.memo[id], nil
	}
	return nil, fmt.Errorf("pickle: unknown tag 0x%02x", tag)
}

func (d *decoder) decodeFunc() (minipy.Value, error) {
	name, err := d.readString()
	if err != nil {
		return nil, err
	}
	module, err := d.readString()
	if err != nil {
		return nil, err
	}
	lambdaByte, err := d.readByte()
	if err != nil {
		return nil, err
	}
	src, err := d.readString()
	if err != nil {
		return nil, err
	}
	spec := &minipy.RebuildSpec{
		Name:     name,
		Module:   module,
		IsLambda: lambdaByte == 1,
		Source:   src,
		Closure:  map[string]minipy.Value{},
		Globals:  map[string]minipy.Value{},
	}
	// Allocate the function shell and register it in the memo *before*
	// decoding its captures, so self-recursive and mutually recursive
	// references resolve to the final object.
	fn := &minipy.Func{}
	d.remember(fn)

	np, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < np; i++ {
		pname, err := d.readString()
		if err != nil {
			return nil, err
		}
		hasDef, err := d.readByte()
		if err != nil {
			return nil, err
		}
		info := minipy.ParamInfo{Name: pname}
		if hasDef == 1 {
			def, err := d.decode()
			if err != nil {
				return nil, err
			}
			info.HasDefault = true
			info.Default = def
		}
		spec.Params = append(spec.Params, info)
	}
	readMap := func(dst map[string]minipy.Value) error {
		n, err := d.readUvarint()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			k, err := d.readString()
			if err != nil {
				return err
			}
			v, err := d.decode()
			if err != nil {
				return err
			}
			dst[k] = v
		}
		return nil
	}
	if err := readMap(spec.Closure); err != nil {
		return nil, err
	}
	if err := readMap(spec.Globals); err != nil {
		return nil, err
	}
	if err := minipy.RebuildFuncInto(d.ip, spec, fn); err != nil {
		return nil, err
	}
	return fn, nil
}
