package pickle

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
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

// nested is depth lists, each the only element of the one before: depth
// levels of value.
func nested(depth int) minipy.Value {
	v := minipy.Value(minipy.NewList())
	for i := 1; i < depth; i++ {
		v = minipy.NewList(v)
	}
	return v
}

func TestNestingDepthIsBounded(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		data, err := Marshal(nested(depth))
		if err != nil {
			t.Fatal(err)
		}
		v, err := Unmarshal(data, minipy.NewInterp(nil))
		if depth <= maxDepth && (err != nil || !minipy.Equal(v, nested(depth))) {
			t.Fatalf("%d levels: %v", depth, err)
		}
		if depth > maxDepth && (err == nil || !strings.Contains(err.Error(), "nested deeper")) {
			t.Fatalf("%d levels decoded past the bound: %v", depth, err)
		}
	}
	if _, err := Unmarshal(hostileDepth(1_000_000), minipy.NewInterp(nil)); err == nil {
		t.Fatal("a million levels decoded")
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

func (h *modHost) Stdout() io.Writer { return io.Discard }

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

// fuzzValues are the other values the round-trip tests pickle.
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
		minipy.NewList(shared, shared), cyclic, obj, length,
	}
}

// FuzzUnmarshal holds Unmarshal and UnmarshalBorrow to the properties of
// the wire fuzzers (internal/proto): no panic; allocation at most a
// constant times the input; and a decoded value re-encodes to bytes that
// decode and encode to themselves.
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
			if err != nil {
				t.Fatalf("decoded value does not re-encode: %v", err)
			}
			again, err := Unmarshal(once, ip)
			if err != nil {
				t.Fatalf("re-encoded value does not decode: %v", err)
			}
			if twice, err := Marshal(again); err != nil || !bytes.Equal(once, twice) {
				t.Fatalf("encoding is not stable (%v):\n once  %x\n twice %x", err, once, twice)
			}
		}
	})
}
