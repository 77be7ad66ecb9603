package minipy

import (
	"fmt"
	"strings"
)

// getAttr resolves obj.name: module attributes, object attributes, and
// built-in methods of str/list/dict.
func getAttr(obj Value, name string, line int) (Value, error) {
	var m methodFn
	switch o := obj.(type) {
	case *ModuleVal:
		if v, ok := o.Attrs[name]; ok {
			return v, nil
		}
		return nil, rtErrf(line, "module '%s' has no attribute '%s'", o.Name, name)
	case *Object:
		if v, ok := o.Attrs[name]; ok {
			return v, nil
		}
	case Str:
		m = strMethods[name]
	case *List:
		m = listMethods[name]
	case *Dict:
		m = dictMethods[name]
	}
	if m != nil {
		return &BoundMethod{Recv: obj, Name: name, Fn: m}, nil
	}
	return nil, rtErrf(line, "'%s' object has no attribute '%s'", obj.Type(), name)
}

type methodFn = func(recv Value, args []Value) (Value, error)

func checkArity(name string, args []Value, min, max int) error {
	if len(args) < min || len(args) > max {
		return fmt.Errorf("%s() takes %d to %d arguments (%d given)", name, min, max, len(args))
	}
	return nil
}

var strMethods = map[string]methodFn{
	"count": func(recv Value, args []Value) (Value, error) {
		if err := checkArity("count", args, 1, 1); err != nil {
			return nil, err
		}
		p, ok := args[0].(Str)
		if !ok {
			return nil, fmt.Errorf("count argument must be str")
		}
		return Int(strings.Count(string(recv.(Str)), string(p))), nil
	},
}

var listMethods = map[string]methodFn{
	"append": func(recv Value, args []Value) (Value, error) {
		if err := checkArity("append", args, 1, 1); err != nil {
			return nil, err
		}
		l := recv.(*List)
		l.Elems = append(l.Elems, args[0])
		return NoneValue, nil
	},
}

var dictMethods = map[string]methodFn{
	"get": func(recv Value, args []Value) (Value, error) {
		if err := checkArity("get", args, 1, 2); err != nil {
			return nil, err
		}
		if v, ok := recv.(*Dict).Get(args[0]); ok {
			return v, nil
		}
		if len(args) == 2 {
			return args[1], nil
		}
		return NoneValue, nil
	},
}

// NewGlobals creates a fresh globals environment pre-populated with the
// builtin functions. Every environment binds the same builtin values: a
// Builtin is never written once built, and `len = 5` rebinds the name in
// one environment's frame, not the value the others hold.
func (ip *Interp) NewGlobals() *Env {
	env := NewEnv(nil)
	for name, b := range universalBuiltins {
		env.Set(name, b)
	}
	return env
}

var universalBuiltins = map[string]*Builtin{
	"len": {Name: "len", Fn: func(_ *Interp, args []Value) (Value, error) {
		if err := checkArity("len", args, 1, 1); err != nil {
			return nil, err
		}
		switch v := args[0].(type) {
		case Str:
			return Int(runeLen(string(v))), nil
		case *List:
			return Int(len(v.Elems)), nil
		case *Tuple:
			return Int(len(v.Elems)), nil
		case *Dict:
			return Int(v.Len()), nil
		}
		return nil, fmt.Errorf("object of type '%s' has no len()", args[0].Type())
	}},
	"range": {Name: "range", Fn: func(_ *Interp, args []Value) (Value, error) {
		if err := checkArity("range", args, 1, 1); err != nil {
			return nil, err
		}
		n, ok := asInt(args[0])
		if !ok {
			return nil, fmt.Errorf("range() argument must be int, not %s", args[0].Type())
		}
		var out []Value
		for i := int64(0); i < n; i++ {
			out = append(out, Int(i))
		}
		return &List{Elems: out}, nil
	}},
	"str": {Name: "str", Fn: func(_ *Interp, args []Value) (Value, error) {
		if err := checkArity("str", args, 1, 1); err != nil {
			return nil, err
		}
		if s, ok := args[0].(Str); ok {
			return s, nil
		}
		s, err := repr(args[0])
		return Str(s), err
	}},
}
