package minipy

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

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

func (*List) Type() string { return "list" }
func (l *List) Repr() string {
	parts := make([]string, len(l.Elems))
	for i, e := range l.Elems {
		parts[i] = e.Repr()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
func (l *List) Truth() bool { return len(l.Elems) > 0 }

// Tuple is an immutable sequence.
type Tuple struct {
	Elems []Value
}

// NewTuple builds a Tuple from elements.
func NewTuple(elems ...Value) *Tuple { return &Tuple{Elems: elems} }

func (*Tuple) Type() string { return "tuple" }
func (t *Tuple) Repr() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.Repr()
	}
	if len(parts) == 1 {
		return "(" + parts[0] + ",)"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
func (t *Tuple) Truth() bool { return len(t.Elems) > 0 }

// Dict is a mutable hash map. Keys must be hashable (None, bool, int,
// float, str, tuple of hashables). Insertion order is preserved.
type Dict struct {
	keys   []Value          // in insertion order
	values map[string]Value // by HashKey
}

// NewDict creates an empty Dict.
func NewDict() *Dict { return &Dict{values: map[string]Value{}} }

func (*Dict) Type() string { return "dict" }
func (d *Dict) Repr() string {
	parts := make([]string, 0, len(d.keys))
	for _, k := range d.keys {
		v, _ := d.Get(k)
		parts = append(parts, k.Repr()+": "+v.Repr())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (d *Dict) Truth() bool { return len(d.keys) > 0 }

// HashKey computes the hash-map key string for a hashable value, or an
// error for unhashable types.
func HashKey(v Value) (string, error) {
	switch x := v.(type) {
	case None:
		return "N", nil
	case Bool:
		if x {
			return "b1", nil
		}
		return "b0", nil
	case Int:
		return "i" + strconv.FormatInt(int64(x), 10), nil
	case Float:
		// Integral floats hash like ints, matching Python semantics.
		if f := float64(x); f == math.Trunc(f) && !math.IsInf(f, 0) {
			return "i" + strconv.FormatInt(int64(f), 10), nil
		}
		return "f" + strconv.FormatFloat(float64(x), 'g', -1, 64), nil
	case Str:
		return "s" + string(x), nil
	case *Tuple:
		var sb strings.Builder
		sb.WriteString("t(")
		for _, e := range x.Elems {
			k, err := HashKey(e)
			if err != nil {
				return "", err
			}
			sb.WriteString(strconv.Itoa(len(k)))
			sb.WriteByte(':')
			sb.WriteString(k)
		}
		sb.WriteByte(')')
		return sb.String(), nil
	}
	return "", fmt.Errorf("unhashable type: '%s'", v.Type())
}

// Set inserts or updates a key.
func (d *Dict) Set(key, value Value) error {
	hk, err := HashKey(key)
	if err != nil {
		return err
	}
	if _, exists := d.values[hk]; !exists {
		d.keys = append(d.keys, key)
	}
	d.values[hk] = value
	return nil
}

// Get looks up a key, reporting whether it was present.
func (d *Dict) Get(key Value) (Value, bool) {
	hk, err := HashKey(key)
	if err != nil {
		return nil, false
	}
	v, ok := d.values[hk]
	return v, ok
}

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.keys) }

// Keys returns the keys in insertion order.
func (d *Dict) Keys() []Value { return append([]Value(nil), d.keys...) }

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
// numeric int/float cross-comparison like Python's ==.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case None:
		_, ok := b.(None)
		return ok
	case Bool:
		if y, ok := b.(Bool); ok {
			return x == y
		}
		if y, ok := numAsFloat(b); ok {
			return boolToFloat(bool(x)) == y
		}
		return false
	case Int:
		if y, ok := b.(Int); ok {
			return x == y
		}
		if y, ok := numAsFloat(b); ok {
			return float64(x) == y
		}
		return false
	case Float:
		if y, ok := numAsFloat(b); ok {
			return float64(x) == y
		}
		return false
	case Str:
		y, ok := b.(Str)
		return ok && x == y
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !Equal(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case *Tuple:
		y, ok := b.(*Tuple)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !Equal(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case *Dict:
		y, ok := b.(*Dict)
		if !ok || x.Len() != y.Len() {
			return false
		}
		for _, k := range x.Keys() {
			xv, _ := x.Get(k)
			yv, present := y.Get(k)
			if !present || !Equal(xv, yv) {
				return false
			}
		}
		return true
	}
	return a == b
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
// unorderable types.
func Compare(a, b Value) (int, error) {
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
			c, err := Compare(xl[i], yl[i])
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
