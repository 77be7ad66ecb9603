package minipy

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// MaxValueDepth bounds how deep Repr, Equal, Compare and HashKey — and
// pickle, both ways — follow nested containers. A script can nest a
// list 10^7 deep, or append a list to itself; a walk recursing once per
// level would die of a stack overflow, which no recover catches.
const MaxValueDepth = 1000

var errTooDeep = fmt.Errorf("value nested deeper than %d levels", MaxValueDepth)

// Value is a runtime MiniPy value. The concrete types are None, Bool,
// Int, Float, Str, *List, *Tuple, *Dict, *Func, *Builtin, *BoundMethod,
// *ModuleVal and *Object.
type Value interface {
	Type() string
	Repr() string
	Truth() bool
}

// None is the singleton null value.
type None struct{}

// NoneValue is the canonical None instance.
var NoneValue = None{}

func (None) Type() string { return "NoneType" }
func (None) Repr() string { return "None" }
func (None) Truth() bool  { return false }

// Bool is a boolean value.
type Bool bool

func (Bool) Type() string { return "bool" }
func (b Bool) Repr() string {
	if b {
		return "True"
	}
	return "False"
}
func (b Bool) Truth() bool { return bool(b) }

// Int is a 64-bit integer value.
type Int int64

func (Int) Type() string   { return "int" }
func (i Int) Repr() string { return strconv.FormatInt(int64(i), 10) }
func (i Int) Truth() bool  { return i != 0 }

// Float is a 64-bit floating point value.
type Float float64

func (Float) Type() string { return "float" }
func (f Float) Repr() string {
	s := strconv.FormatFloat(float64(f), 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") && !math.IsInf(float64(f), 0) && !math.IsNaN(float64(f)) {
		s += ".0"
	}
	return s
}
func (f Float) Truth() bool { return f != 0 }

// Str is a string value.
type Str string

func (Str) Type() string   { return "str" }
func (s Str) Repr() string { return quote(string(s)) }
func (s Str) Truth() bool  { return len(s) > 0 }

// List is a mutable sequence.
type List struct {
	Elems []Value
}

// NewList builds a List from elements.
func NewList(elems ...Value) *List { return &List{Elems: elems} }

func (*List) Type() string   { return "list" }
func (l *List) Repr() string { return shortRepr(l) }
func (l *List) Truth() bool  { return len(l.Elems) > 0 }

// Tuple is an immutable sequence.
type Tuple struct {
	Elems []Value
}

// NewTuple builds a Tuple from elements.
func NewTuple(elems ...Value) *Tuple { return &Tuple{Elems: elems} }

func (*Tuple) Type() string   { return "tuple" }
func (t *Tuple) Repr() string { return shortRepr(t) }
func (t *Tuple) Truth() bool  { return len(t.Elems) > 0 }

// Dict is a mutable hash map. Keys must be hashable (None, bool, int,
// float, str, tuple of hashables). Insertion order is preserved.
type Dict struct {
	entries []dictEntry    // in insertion order
	index   map[uint64]int // by HashKey: the first entry with that hash
}

// dictEntry is one key and its value. Entries whose keys hash alike
// chain through next and are told apart by Equal.
type dictEntry struct {
	key, value Value
	next       int // one more than the next such entry's index; 0 ends the chain
}

// NewDict creates an empty Dict.
func NewDict() *Dict { return &Dict{index: map[uint64]int{}} }

func (*Dict) Type() string   { return "dict" }
func (d *Dict) Repr() string { return shortRepr(d) }
func (d *Dict) Truth() bool  { return len(d.entries) > 0 }

// repr renders a value the way str() does a container, and fails past
// MaxValueDepth.
func repr(v Value) (string, error) {
	var sb strings.Builder
	err := writeRepr(&sb, v, 0)
	return sb.String(), err
}

// shortRepr is a container's Repr, cut short with "..." past
// MaxValueDepth.
func shortRepr(v Value) string {
	s, err := repr(v)
	if err != nil {
		s += "..."
	}
	return s
}

func writeRepr(sb *strings.Builder, v Value, depth int) error {
	if depth == MaxValueDepth {
		return errTooDeep
	}
	elems, open, close := []Value(nil), "[", "]"
	switch x := v.(type) {
	case *List:
		elems = x.Elems
	case *Tuple:
		elems, open, close = x.Elems, "(", ")"
		if len(elems) == 1 {
			close = ",)"
		}
	case *Dict:
		sb.WriteByte('{')
		for i, e := range x.entries {
			if i > 0 {
				sb.WriteString(", ")
			}
			if err := writeRepr(sb, e.key, depth+1); err != nil {
				return err
			}
			sb.WriteString(": ")
			if err := writeRepr(sb, e.value, depth+1); err != nil {
				return err
			}
		}
		sb.WriteByte('}')
		return nil
	default:
		sb.WriteString(v.Repr())
		return nil
	}
	sb.WriteString(open)
	for i, e := range elems {
		if i > 0 {
			sb.WriteString(", ")
		}
		if err := writeRepr(sb, e, depth+1); err != nil {
			return err
		}
	}
	sb.WriteString(close)
	return nil
}

// HashKey computes a hashable value's key hash, or an error for
// unhashable types and for a tuple nested past MaxValueDepth. Values that
// are one key hash alike (a bool or an integral float as the int it
// equals, every NaN as one). Each tuple inside the key is hashed once, so
// a key costs its distinct tuples however often it shares them.
func HashKey(v Value) (uint64, error) {
	var k keyHasher
	h, _, err := k.hash(v, 0)
	return h, err
}

// keySeed seeds every key hash. It is drawn per process, so no input can
// be built to make keys collide; nothing observable depends on it, since
// a Dict keeps insertion order.
var keySeed = maphash.MakeSeed()

// Tags keeping the hashes of different kinds of key apart.
const (
	hashNone = iota + 1
	hashInt
	hashFloat
	hashNaN
	hashTuple
)

// keyHasher hashes one key. seen, made when the key first nests a tuple,
// holds the hash and height of each nested tuple already hashed.
type keyHasher struct {
	seen map[*Tuple][2]uint64
}

// hash returns v's hash and its height (1 for a scalar, one more than
// its tallest element for a tuple), failing where v reaches
// MaxValueDepth levels below depth.
func (k *keyHasher) hash(v Value, depth int) (uint64, int, error) {
	if depth == MaxValueDepth {
		return 0, 0, errTooDeep
	}
	switch x := v.(type) {
	case None:
		return mix(hashNone, 0), 1, nil
	case Bool:
		if x {
			return mix(hashInt, 1), 1, nil
		}
		return mix(hashInt, 0), 1, nil
	case Int:
		return mix(hashInt, uint64(x)), 1, nil
	case Float:
		switch f := float64(x); {
		case f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64:
			return mix(hashInt, uint64(int64(f))), 1, nil
		case f != f:
			return mix(hashNaN, 0), 1, nil
		}
		return mix(hashFloat, math.Float64bits(float64(x))), 1, nil
	case Str:
		return maphash.String(keySeed, string(x)), 1, nil
	case *Tuple:
		if m, ok := k.seen[x]; ok {
			if depth+int(m[1]) > MaxValueDepth {
				return 0, 0, errTooDeep
			}
			return m[0], int(m[1]), nil
		}
		h, height := mix(hashTuple, uint64(len(x.Elems))), 1
		for _, e := range x.Elems {
			eh, eheight, err := k.hash(e, depth+1)
			if err != nil {
				return 0, 0, err
			}
			h, height = mix(h, eh), max(height, eheight+1)
		}
		// Only a nested tuple can be met again: a key cannot hold itself.
		if depth > 0 {
			if k.seen == nil {
				k.seen = map[*Tuple][2]uint64{}
			}
			k.seen[x] = [2]uint64{h, uint64(height)}
		}
		return h, height, nil
	}
	return 0, 0, fmt.Errorf("unhashable type: '%s'", v.Type())
}

// mix hashes two words.
func mix(a, b uint64) uint64 {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], a)
	binary.LittleEndian.PutUint64(buf[8:], b)
	return maphash.Bytes(keySeed, buf[:])
}

// Set inserts or updates a key.
func (d *Dict) Set(key, value Value) error {
	h, err := HashKey(key)
	if err != nil {
		return err
	}
	i, last := d.find(key, h)
	switch {
	case i >= 0:
		d.entries[i].value = value
		return nil
	case last >= 0:
		d.entries[last].next = len(d.entries) + 1
	default:
		d.index[h] = len(d.entries)
	}
	d.entries = append(d.entries, dictEntry{key: key, value: value})
	return nil
}

// Get looks up a key, reporting whether it was present.
func (d *Dict) Get(key Value) (Value, bool) {
	h, err := HashKey(key)
	if err != nil {
		return nil, false
	}
	if i, _ := d.find(key, h); i >= 0 {
		return d.entries[i].value, true
	}
	return nil, false
}

// find walks the entries whose keys hash to h. It returns the index of
// key's entry, or -1 and the last entry walked (-1 if there was none).
func (d *Dict) find(key Value, h uint64) (int, int) {
	i, ok := d.index[h]
	if !ok {
		return -1, -1
	}
	for {
		e := &d.entries[i]
		if sameKey(e.key, key) {
			return i, -1
		}
		if e.next == 0 {
			return -1, i
		}
		i = e.next - 1
	}
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.entries) }

// Item returns the i'th entry in insertion order.
func (d *Dict) Item(i int) (key, value Value) {
	e := &d.entries[i]
	return e.key, e.value
}

// Func is a user-defined function: a code object (the DefStmt or
// LambdaExpr AST), the globals environment of its defining module, and
// captured enclosing-scope cells.
type Func struct {
	Name    string
	Params  []Param
	Body    []Stmt // nil for lambdas
	Expr    Expr   // lambda body; nil for def functions
	Globals *Env   // module globals at definition site
	Closure *Env   // enclosing function scope, nil at module level
	Doc     string
	Module  string // name of defining module ("" for __main__)
	// Def points at the original definition for source extraction.
	// It is nil for lambdas and functions reconstructed from pickles
	// without source.
	Def *DefStmt
	// Source holds the original source text of the defining file, if
	// known, enabling inspect.getsource-style extraction.
	Source string
}

func (*Func) Type() string { return "function" }
func (f *Func) Repr() string {
	name := f.Name
	if name == "" {
		name = "<lambda>"
	}
	return fmt.Sprintf("<function %s>", name)
}
func (f *Func) Truth() bool { return true }

// Builtin is a function implemented in Go.
type Builtin struct {
	Name string
	Fn   func(ip *Interp, args []Value) (Value, error)
}

func (*Builtin) Type() string   { return "builtin" }
func (b *Builtin) Repr() string { return fmt.Sprintf("<builtin %s>", b.Name) }
func (b *Builtin) Truth() bool  { return true }

// BoundMethod pairs a receiver with a method implemented in Go.
type BoundMethod struct {
	Recv Value
	Name string
	Fn   func(recv Value, args []Value) (Value, error)
}

func (*BoundMethod) Type() string   { return "method" }
func (m *BoundMethod) Repr() string { return fmt.Sprintf("<method %s of %s>", m.Name, m.Recv.Type()) }
func (m *BoundMethod) Truth() bool  { return true }

// ModuleVal is an imported module: a named attribute namespace.
type ModuleVal struct {
	Name  string
	Attrs map[string]Value
}

func (*ModuleVal) Type() string   { return "module" }
func (m *ModuleVal) Repr() string { return fmt.Sprintf("<module %s>", m.Name) }
func (m *ModuleVal) Truth() bool  { return true }

// Object is a generic attribute bag used by host modules to expose
// stateful handles (e.g. a loaded model). Class tags let host code
// type-check objects it receives back, and Host lets it attach opaque
// Go-side state that survives only in-process (it is deliberately not
// serializable, like a GPU handle).
type Object struct {
	Class string
	Attrs map[string]Value
	Host  any
}

// NewObject creates an Object of the given class.
func NewObject(class string) *Object {
	return &Object{Class: class, Attrs: map[string]Value{}}
}

func (o *Object) Type() string { return o.Class }
func (o *Object) Repr() string {
	return fmt.Sprintf("<%s object with %d attrs>", o.Class, len(o.Attrs))
}
func (o *Object) Truth() bool { return true }

// Equal reports deep value equality between two MiniPy values, with
// numeric int/float cross-comparison like Python's ==. Values nested
// past MaxValueDepth compare unequal; == fails on them instead (equal).
func Equal(a, b Value) bool {
	eq, _ := equal(a, b, 0) // false with the error
	return eq
}

func equal(a, b Value, depth int) (bool, error) {
	if depth == MaxValueDepth {
		return false, errTooDeep
	}
	switch x := a.(type) {
	case None:
		_, ok := b.(None)
		return ok, nil
	case Bool:
		if y, ok := b.(Bool); ok {
			return x == y, nil
		}
		y, ok := numAsFloat(b)
		return ok && boolToFloat(bool(x)) == y, nil
	case Int:
		if y, ok := b.(Int); ok {
			return x == y, nil
		}
		y, ok := numAsFloat(b)
		return ok && float64(x) == y, nil
	case Float:
		y, ok := numAsFloat(b)
		return ok && float64(x) == y, nil
	case Str:
		y, ok := b.(Str)
		return ok && x == y, nil
	case *Tuple:
		y, ok := b.(*Tuple)
		if !ok {
			return false, nil
		}
		return equalTuples(x, y, depth, false, nil)
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false, nil
		}
		for i := range x.Elems {
			if eq, err := equal(x.Elems[i], y.Elems[i], depth+1); !eq || err != nil {
				return false, err
			}
		}
		return true, nil
	case *Dict:
		y, ok := b.(*Dict)
		if !ok || x.Len() != y.Len() {
			return false, nil
		}
		for _, e := range x.entries {
			yv, present := y.Get(e.key)
			if !present {
				return false, nil
			}
			if eq, err := equal(e.value, yv, depth+1); !eq || err != nil {
				return false, err
			}
		}
		return true, nil
	}
	return a == b, nil
}

// sameKey reports whether two hashable values are one dict key: whether
// they are Equal, except that every NaN is one key, as it hashes. By
// Equal alone NaN != NaN, so each NaN key would be a new entry chained
// behind all the others, and n of them would cost n² comparisons.
func sameKey(a, b Value) bool {
	x, xok := a.(*Tuple)
	y, yok := b.(*Tuple)
	if xok && yok {
		eq, _ := equalTuples(x, y, 0, true, nil) // false with the error
		return eq
	}
	return bothNaN(a, b) || Equal(a, b)
}

func bothNaN(a, b Value) bool {
	x, xok := a.(Float)
	y, yok := b.(Float)
	return xok && yok && x != x && y != y
}

// equalTuples compares two tuples, as keys (NaN equal to NaN) when keys
// is set. Identical tuples are equal at once, and a pair of nested tuples
// found equal is not compared again (seen, made on first need), so keys
// sharing subtuples compare in time linear in their distinct tuples, not
// in their size unshared.
func equalTuples(x, y *Tuple, depth int, keys bool, seen map[[2]*Tuple]bool) (bool, error) {
	if x == y || seen[[2]*Tuple{x, y}] {
		return true, nil
	}
	if depth == MaxValueDepth {
		return false, errTooDeep
	}
	if len(x.Elems) != len(y.Elems) {
		return false, nil
	}
	for i, xe := range x.Elems {
		ye := y.Elems[i]
		xt, xok := xe.(*Tuple)
		yt, yok := ye.(*Tuple)
		eq, err := true, error(nil)
		switch {
		case xok && yok && xt != yt:
			if seen == nil {
				seen = map[[2]*Tuple]bool{}
			}
			eq, err = equalTuples(xt, yt, depth+1, keys, seen)
		case !keys || !bothNaN(xe, ye):
			eq, err = equal(xe, ye, depth+1)
		}
		if !eq || err != nil {
			return false, err
		}
	}
	if seen != nil {
		seen[[2]*Tuple{x, y}] = true
	}
	return true, nil
}

func numAsFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case Int:
		return float64(x), true
	case Float:
		return float64(x), true
	case Bool:
		return boolToFloat(bool(x)), true
	}
	return 0, false
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Compare orders two values, returning -1, 0, or 1, or an error for
// unorderable types and for sequences nested past MaxValueDepth.
func Compare(a, b Value) (int, error) { return compare(a, b, 0) }

func compare(a, b Value, depth int) (int, error) {
	if depth == MaxValueDepth {
		return 0, errTooDeep
	}
	if x, ok := numAsFloat(a); ok {
		if y, ok := numAsFloat(b); ok {
			switch {
			case x < y:
				return -1, nil
			case x > y:
				return 1, nil
			}
			return 0, nil
		}
	}
	if x, ok := a.(Str); ok {
		if y, ok := b.(Str); ok {
			return strings.Compare(string(x), string(y)), nil
		}
	}
	xl, xok := sequenceElems(a)
	yl, yok := sequenceElems(b)
	if xok && yok && a.Type() == b.Type() {
		for i := 0; i < len(xl) && i < len(yl); i++ {
			c, err := compare(xl[i], yl[i], depth+1)
			if err != nil {
				return 0, err
			}
			if c != 0 {
				return c, nil
			}
		}
		switch {
		case len(xl) < len(yl):
			return -1, nil
		case len(xl) > len(yl):
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("'<' not supported between instances of '%s' and '%s'", a.Type(), b.Type())
}

func sequenceElems(v Value) ([]Value, bool) {
	switch x := v.(type) {
	case *List:
		return x.Elems, true
	case *Tuple:
		return x.Elems, true
	}
	return nil, false
}

// ToStr returns the str() form of a value (unquoted strings, Repr for the
// rest).
func ToStr(v Value) string {
	if s, ok := v.(Str); ok {
		return string(s)
	}
	return v.Repr()
}
