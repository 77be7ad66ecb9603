package pickle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/minipy"
	"repro/internal/modlib"
)

// Hostile bytes: the unpickler decodes what a worker fetched from a peer
// it has not authenticated (library/objects.go) and every invocation's
// arguments (library.go), so no input may panic it, size an allocation,
// or recurse without bound.

// hostileLength is a list claiming 2⁶² elements in twelve bytes.
var hostileLength = binary.AppendUvarint([]byte{magic, version, tagList}, 1<<62)

// builtinFlood is a list of n references to len, five bytes each: one
// once cost a whole globals environment to resolve.
func builtinFlood(n int) []byte {
	return append(binary.AppendUvarint([]byte{magic, version, tagList}, uint64(n)), bytes.Repeat([]byte{tagBuiltin, 3, 'l', 'e', 'n'}, n)...)
}

// hostileDepth is n lists, each the only element of the one before.
func hostileDepth(n int) []byte {
	return append([]byte{magic, version}, bytes.Repeat([]byte{tagList, 1}, n)...)
}

func TestHostileLengthIsAnError(t *testing.T) {
	if _, err := Unmarshal(hostileLength, minipy.NewInterp(nil)); err == nil {
		t.Fatal("a list longer than its input decoded")
	}
}

// sharedKey is a dict whose one key is T_k, with T_0 = (None, None) and
// T_i = (T_{i-1}, <ref T_{i-1}>): 4k+9 bytes for 2^k tuples unshared. In
// a one-tuple, when inTuple is set.
func sharedKey(k int, inTuple bool) []byte {
	b, id := []byte{magic, version}, 1
	if inTuple {
		b, id = append(b, tagTuple, 1), 2
	}
	b = append(b, tagDict, 1)
	var tuple func(i int)
	tuple = func(i int) {
		if i == 0 {
			b = append(b, tagTuple, 2, tagNone, tagNone)
			return
		}
		b = append(b, tagTuple, 2)
		tuple(i - 1)
		b = append(b, tagRef, byte(id+k-i+1))
	}
	tuple(k)
	return append(b, tagNone)
}

// TestSharedTupleKeys: a key sharing its subtuples decodes, and
// re-encodes to its own bytes, at the cost of its distinct tuples — its
// hash once rendered the key unshared, 31 MB at k = 16. Inside a tuple
// still being filled, the check that the key does not reach that tuple
// costs the same.
func TestSharedTupleKeys(t *testing.T) {
	for _, inTuple := range []bool{false, true} {
		data := sharedKey(60, inTuple)
		v, err := Unmarshal(data, minipy.NewInterp(nil))
		if err != nil {
			t.Fatalf("in a tuple %v: %v", inTuple, err)
		}
		if again, err := Marshal(v); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("in a tuple %v: re-encoded to %x (%v), want %x", inTuple, again, err, data)
		}
	}
}

// nanKeys is a dict of n keys, ten or twelve bytes each: a NaN, or a
// one-tuple of a NaN, every NaN with its own payload bits.
func nanKeys(n int) []byte {
	b := binary.AppendUvarint([]byte{magic, version, tagDict}, uint64(n))
	for i := range n {
		if i%2 == 1 {
			b = append(b, tagTuple, 1)
		}
		b = binary.LittleEndian.AppendUint64(append(b, tagFloat), math.Float64bits(math.NaN())|uint64(i))
		b = append(b, tagNone)
	}
	return b
}

// TestNaNKeysAreOneKey: every NaN is one dict key, bare or in a tuple,
// whatever its payload bits. All NaNs hash alike, so were each a new key
// (NaN != NaN) they would chain, and decoding n of them would cost n²/2
// comparisons: 2·10⁸ here, 5·10⁹ for a megabyte.
func TestNaNKeysAreOneKey(t *testing.T) {
	const n = 20_000
	v, err := Unmarshal(nanKeys(n), minipy.NewInterp(nil))
	if err != nil {
		t.Fatal(err)
	}
	d := v.(*minipy.Dict)
	if d.Len() != 2 {
		t.Fatalf("%d NaN keys made %d entries, want 2", n, d.Len())
	}
	if got, want := d.Repr(), "{NaN: None, (NaN,): None}"; got != want {
		t.Fatalf("dict = %s, want %s", got, want)
	}
	if !minipy.Equal(d, d) {
		t.Error("a dict with NaN keys is not equal to itself")
	}
}

// TestPooledDecoderKeepsNothing: a decoder goes back to the pool holding
// nothing it decoded — no memoized value, no tuple a key was checked
// against — so the pool pins no value and no input a view borrows.
func TestPooledDecoderKeepsNothing(t *testing.T) {
	// (dict{(1,): None},): the key is checked while the outer tuple fills.
	dict := minipy.NewDict()
	if err := dict.Set(minipy.NewTuple(minipy.Int(1)), minipy.NoneValue); err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(minipy.NewTuple(dict))
	if err != nil {
		t.Fatal(err)
	}
	for range 10 {
		if _, err := Unmarshal(data, minipy.NewInterp(nil)); err != nil {
			t.Fatal(err)
		}
		d := decoderPool.Get().(*decoder)
		if len(d.done) > 0 || slices.ContainsFunc(d.memo[:cap(d.memo)], func(v minipy.Value) bool { return v != nil }) {
			t.Fatalf("a pooled decoder holds %d finished tuples and memo %v", len(d.done), d.memo[:cap(d.memo)])
		}
		decoderPool.Put(d)
	}
}

// nested is depth lists, each the only element of the one before: depth
// levels of value.
func nested(depth int) minipy.Value {
	v := minipy.Value(minipy.NewList())
	for i := 1; i < depth; i++ {
		v = minipy.NewList(v)
	}
	return v
}

// TestNestingDepthIsBounded: Marshal and Unmarshal share one bound, so
// whatever Marshal emits Unmarshal accepts. A value one level deeper —
// which a script builds with x = [x] in a loop — used to encode, and
// 10⁷ levels overflowed the worker's stack.
func TestNestingDepthIsBounded(t *testing.T) {
	data, err := Marshal(nested(maxDepth))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := Unmarshal(data, minipy.NewInterp(nil)); err != nil || !minipy.Equal(v, nested(maxDepth)) {
		t.Fatalf("%d levels: %v", maxDepth, err)
	}
	for _, depth := range []int{maxDepth + 1, 100_000} {
		if _, err := Marshal(nested(depth)); err == nil || !strings.Contains(err.Error(), "nested deeper than 1000 levels") {
			t.Fatalf("%d levels encoded past the bound: %v", depth, err)
		}
	}
	for _, depth := range []int{maxDepth + 1, 1_000_000} {
		if _, err := Unmarshal(hostileDepth(depth), minipy.NewInterp(nil)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Fatalf("%d levels decoded past the bound: %v", depth, err)
		}
	}
}

// funcPickle is a pickled function with no parameters or captures
// whose source is src: what a peer can send in place of a real one.
func funcPickle(lambda bool, src string) []byte {
	b := []byte{magic, version, tagFunc}
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	str("f")
	str("__main__")
	if lambda {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	str(src)
	return append(b, 0, 0, 0) // no parameters, closure cells or globals
}

// TestHostileSourceIsAnError: a pickled def or lambda whose source nests
// 3×10⁶ parentheses, or sums 3×10⁶ terms, is an unpickling error — it
// used to overflow the worker's stack, which no recover catches.
func TestHostileSourceIsAnError(t *testing.T) {
	parens := strings.Repeat("(", 3_000_000) + strings.Repeat(")", 3_000_000)
	chain := strings.Repeat("1+", 3_000_000) + "1"
	for _, body := range []string{parens, chain} {
		for _, data := range [][]byte{
			funcPickle(true, "lambda: "+body),
			funcPickle(false, "def f():\n    return "+body+"\n"),
		} {
			for _, unmarshal := range []func([]byte, *minipy.Interp) (minipy.Value, error){Unmarshal, UnmarshalBorrow} {
				if _, err := unmarshal(data, minipy.NewInterp(nil)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
					t.Errorf("%d-byte pickle: err = %v, want a nesting syntax error", len(data), err)
				}
			}
		}
	}
	// The same shapes, small, decode.
	for _, data := range [][]byte{funcPickle(true, "lambda: ((1+1))"), funcPickle(false, "def f():\n    return ((1+1))\n")} {
		if _, err := Unmarshal(data, minipy.NewInterp(nil)); err != nil {
			t.Errorf("a small function: %v", err)
		}
	}
}

// modHost resolves the modlib modules, each built once, so that after
// the first a module reference costs what its bytes do.
type modHost struct {
	reg  *modlib.Registry
	mods map[string]*minipy.ModuleVal
}

func (h *modHost) ResolveModule(_ *minipy.Interp, name string) (*minipy.ModuleVal, error) {
	if m := h.mods[name]; m != nil {
		return m, nil
	}
	m, err := h.reg.Build(name)
	if err != nil {
		return nil, err
	}
	h.mods[name] = m
	return m, nil
}

// The functions the round-trip tests pickle, as (source, name).
var fuzzFuncs = [][2]string{
	{"def add(a, b):\n    return a + b\n", "add"},
	{"base = 100\ndef f(a, b=base * 2, c=\"tag\"):\n    return (a + b, c)\n", "f"},
	{"factor = 7\noffset = 3\ndef scale(x):\n    return x * factor + offset\n", "scale"},
	{"def helper(x):\n    return x * x\ndef f(x):\n    return helper(x) + 1\n", "f"},
	{"def make_adder(n):\n    def add(x):\n        return x + n\n    return add\nadder = make_adder(42)\n", "adder"},
	{"k = 9\nf = lambda x, y=2: x * y + k\n", "f"},
	{"def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\n", "fib"},
	{"def is_even(n):\n    if n == 0:\n        return True\n    return is_odd(n - 1)\ndef is_odd(n):\n    if n == 0:\n        return False\n    return is_even(n - 1)\n", "is_even"},
	{"def f(x):\n    import mathx\n    return mathx.double(x)\n", "f"},
	{"import mathx\ndef f(x):\n    return mathx.double(x)\n", "f"},
}

// fuzzValues are the other values the round-trip tests pickle; the last
// two, a cyclic list and the builtin len, are not in the byte pins.
func fuzzValues() []minipy.Value {
	d := minipy.NewDict()
	_ = d.Set(minipy.Str("a"), minipy.Int(1))
	_ = d.Set(minipy.Int(2), minipy.NewList(minipy.Str("x"), minipy.NoneValue))
	_ = d.Set(minipy.NewTuple(minipy.Int(1), minipy.Str("k")), minipy.Float(2.5))
	shared := minipy.NewList(minipy.Int(1))
	cyclic := minipy.NewList(minipy.Int(1))
	cyclic.Elems = append(cyclic.Elems, cyclic)
	obj := minipy.NewObject("Config")
	obj.Attrs["name"] = minipy.Str("run-1")
	obj.Attrs["shape"] = minipy.NewTuple(minipy.Int(224), minipy.Int(224), minipy.Int(3))
	length, _ := minipy.NewInterp(nil).NewGlobals().Get("len")
	return []minipy.Value{
		minipy.NoneValue, minipy.Bool(true), minipy.Bool(false), minipy.Int(-12345678901234),
		minipy.Float(-0.0), minipy.Str(""), minipy.Str("hello\nworld\t\"quoted\""),
		minipy.Str(strings.Repeat("x", 5000)),
		minipy.NewList(d, minipy.NewTuple(), minipy.NewList()),
		minipy.NewList(shared, shared), obj, cyclic, length,
	}
}

// FuzzUnmarshal holds Unmarshal and UnmarshalBorrow to the properties of
// the wire fuzzers (internal/proto): no panic; allocation at most a
// constant times the input; and a decoded value re-encodes to bytes that
// decode and encode to themselves. UnmarshalTuple, which decodes every
// invocation's arguments, agrees with Unmarshal on every input.
func FuzzUnmarshal(f *testing.F) {
	ip := minipy.NewInterp(newHost())
	for _, fn := range fuzzFuncs {
		env, err := ip.RunModule(fn[0], "__main__")
		if err != nil {
			f.Fatal(err)
		}
		v, _ := env.Get(fn[1])
		data, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, v := range fuzzValues() {
		data, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(hostileLength)
	f.Add(hostileDepth(maxDepth + 1))
	f.Add(builtinFlood(100))
	f.Add(nanKeys(1000))
	f.Add(sharedKey(8, true))
	f.Add([]byte{magic, version, tagTuple, 2, tagInt, 2, tagRef, 0}) // (1, <itself>)
	ip = minipy.NewInterp(&modHost{reg: modlib.Standard(), mods: map[string]*minipy.ModuleVal{}})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, unmarshal := range []func([]byte, *minipy.Interp) (minipy.Value, error){Unmarshal, UnmarshalBorrow} {
			// TotalAlloc counts the whole process, the fuzzing engine's own
			// goroutines included; they only ever add, so the least of three
			// readings is the decoder's.
			var v minipy.Value
			var err error
			least := ^uint64(0)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				v, err = unmarshal(raw, ip)
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			// The constant is the wire fuzzers' 64 times four: a pickled
			// function's source is parsed, and the MiniPy parser builds up to
			// ~150 bytes of AST per byte of source.
			if limit := uint64(256*len(raw) + 4096); least > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), least, limit)
			}
			if err != nil {
				continue
			}
			once, err := Marshal(v)
			if err != nil && !strings.Contains(err.Error(), "nested deeper") {
				t.Fatalf("decoded value does not re-encode: %v", err)
			}
			if err != nil {
				// The encoder writes object attributes and captures in
				// sorted order, which the input need not: a shared value
				// can first appear deeper than it did in the input.
				continue
			}
			again, err := Unmarshal(once, ip)
			if err != nil {
				t.Fatalf("re-encoded value does not decode: %v", err)
			}
			if twice, err := Marshal(again); err != nil || !bytes.Equal(once, twice) {
				t.Fatalf("encoding is not stable (%v):\n once  %x\n twice %x", err, once, twice)
			}
		}
		// A slot's argument decoder agrees with Unmarshal: the same
		// elements, the same value that is not a tuple, or the same error.
		want, wantErr := Unmarshal(raw, ip)
		elems, other, err := UnmarshalTuple(nil, raw, ip)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("UnmarshalTuple error %v, Unmarshal's %v", err, wantErr)
		}
		if tup, ok := want.(*minipy.Tuple); ok {
			if other != nil || encoded(MarshalTuple(elems)) != encoded(MarshalTuple(tup.Elems)) {
				t.Fatalf("UnmarshalTuple decoded %v (other %v), Unmarshal %v", elems, other, tup.Elems)
			}
		} else if len(elems) != 0 || (other == nil) != (want == nil) || other != nil && encoded(Marshal(other)) != encoded(Marshal(want)) {
			t.Fatalf("UnmarshalTuple decoded %v (other %v), Unmarshal %v", elems, other, want)
		}
	})
}

// encoded renders a Marshal outcome for comparison.
func encoded(data []byte, err error) string { return fmt.Sprintf("%x %v", data, err) }
