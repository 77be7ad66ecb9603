package minipy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// getAttr resolves obj.name: module attributes, object attributes, and
// built-in methods of str/list/dict.
func getAttr(ip *Interp, obj Value, name string, line int) (Value, error) {
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
		return nil, rtErrf(line, "'%s' object has no attribute '%s'", o.Class, name)
	case *Func:
		switch name {
		case "__name__":
			return Str(o.Name), nil
		case "__doc__":
			if o.Doc == "" {
				return NoneValue, nil
			}
			return Str(o.Doc), nil
		case "__module__":
			return Str(o.Module), nil
		}
	case Str:
		if m, ok := strMethods[name]; ok {
			return &BoundMethod{Recv: o, Name: name, Fn: m}, nil
		}
	case *List:
		if m, ok := listMethods[name]; ok {
			return &BoundMethod{Recv: o, Name: name, Fn: m}, nil
		}
	case *Dict:
		if m, ok := dictMethods[name]; ok {
			return &BoundMethod{Recv: o, Name: name, Fn: m}, nil
		}
	}
	return nil, rtErrf(line, "'%s' object has no attribute '%s'", obj.Type(), name)
}

type methodFn = func(ip *Interp, recv Value, args []Value, kwargs map[string]Value) (Value, error)

func checkArity(name string, args []Value, min, max int) error {
	if len(args) < min || (max >= 0 && len(args) > max) {
		return fmt.Errorf("%s() takes %d to %d arguments (%d given)", name, min, max, len(args))
	}
	return nil
}

var strMethods = map[string]methodFn{
	"upper": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		return Str(strings.ToUpper(string(recv.(Str)))), nil
	},
	"lower": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		return Str(strings.ToLower(string(recv.(Str)))), nil
	},
	"strip": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		cutset := " \t\r\n"
		if len(args) == 1 {
			s, ok := args[0].(Str)
			if !ok {
				return nil, fmt.Errorf("strip arg must be str")
			}
			cutset = string(s)
		}
		return Str(strings.Trim(string(recv.(Str)), cutset)), nil
	},
	"split": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		s := string(recv.(Str))
		var parts []string
		if len(args) == 0 {
			parts = strings.Fields(s)
		} else {
			sep, ok := args[0].(Str)
			if !ok {
				return nil, fmt.Errorf("split separator must be str")
			}
			parts = strings.Split(s, string(sep))
		}
		out := make([]Value, len(parts))
		for i, p := range parts {
			out[i] = Str(p)
		}
		return &List{Elems: out}, nil
	},
	"join": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("join", args, 1, 1); err != nil {
			return nil, err
		}
		items, err := iterate(args[0], 0)
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(items))
		for i, it := range items {
			s, ok := it.(Str)
			if !ok {
				return nil, fmt.Errorf("sequence item %d: expected str, %s found", i, it.Type())
			}
			parts[i] = string(s)
		}
		return Str(strings.Join(parts, string(recv.(Str)))), nil
	},
	"replace": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("replace", args, 2, 2); err != nil {
			return nil, err
		}
		old, ok1 := args[0].(Str)
		new_, ok2 := args[1].(Str)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("replace arguments must be str")
		}
		return Str(strings.ReplaceAll(string(recv.(Str)), string(old), string(new_))), nil
	},
	"startswith": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("startswith", args, 1, 1); err != nil {
			return nil, err
		}
		p, ok := args[0].(Str)
		if !ok {
			return nil, fmt.Errorf("startswith argument must be str")
		}
		return Bool(strings.HasPrefix(string(recv.(Str)), string(p))), nil
	},
	"endswith": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("endswith", args, 1, 1); err != nil {
			return nil, err
		}
		p, ok := args[0].(Str)
		if !ok {
			return nil, fmt.Errorf("endswith argument must be str")
		}
		return Bool(strings.HasSuffix(string(recv.(Str)), string(p))), nil
	},
	"find": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("find", args, 1, 1); err != nil {
			return nil, err
		}
		p, ok := args[0].(Str)
		if !ok {
			return nil, fmt.Errorf("find argument must be str")
		}
		return Int(strings.Index(string(recv.(Str)), string(p))), nil
	},
	"count": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("count", args, 1, 1); err != nil {
			return nil, err
		}
		p, ok := args[0].(Str)
		if !ok {
			return nil, fmt.Errorf("count argument must be str")
		}
		return Int(strings.Count(string(recv.(Str)), string(p))), nil
	},
	"format": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		// Positional {} and {0}-style substitution.
		s := string(recv.(Str))
		var sb strings.Builder
		auto := 0
		for i := 0; i < len(s); i++ {
			if s[i] == '{' && i+1 < len(s) && s[i+1] == '{' {
				sb.WriteByte('{')
				i++
				continue
			}
			if s[i] == '}' && i+1 < len(s) && s[i+1] == '}' {
				sb.WriteByte('}')
				i++
				continue
			}
			if s[i] != '{' {
				sb.WriteByte(s[i])
				continue
			}
			j := strings.IndexByte(s[i:], '}')
			if j < 0 {
				return nil, fmt.Errorf("single '{' encountered in format string")
			}
			field := s[i+1 : i+j]
			i += j
			idx := auto
			if field != "" {
				n, err := strconv.Atoi(field)
				if err != nil {
					return nil, fmt.Errorf("unsupported format field %q", field)
				}
				idx = n
			} else {
				auto++
			}
			if idx < 0 || idx >= len(args) {
				return nil, fmt.Errorf("format index %d out of range", idx)
			}
			sb.WriteString(ToStr(args[idx]))
		}
		return Str(sb.String()), nil
	},
}

var listMethods map[string]methodFn

func init() {
	listMethods = map[string]methodFn{
		"append": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("append", args, 1, 1); err != nil {
				return nil, err
			}
			l := recv.(*List)
			l.Elems = append(l.Elems, args[0])
			return NoneValue, nil
		},
		"extend": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("extend", args, 1, 1); err != nil {
				return nil, err
			}
			items, err := iterate(args[0], 0)
			if err != nil {
				return nil, err
			}
			l := recv.(*List)
			l.Elems = append(l.Elems, items...)
			return NoneValue, nil
		},
		"pop": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			l := recv.(*List)
			if len(l.Elems) == 0 {
				return nil, fmt.Errorf("pop from empty list")
			}
			i := len(l.Elems) - 1
			if len(args) == 1 {
				n, ok := asInt(args[0])
				if !ok {
					return nil, fmt.Errorf("pop index must be int")
				}
				i = int(n)
				if i < 0 {
					i += len(l.Elems)
				}
				if i < 0 || i >= len(l.Elems) {
					return nil, fmt.Errorf("pop index out of range")
				}
			}
			v := l.Elems[i]
			l.Elems = append(l.Elems[:i], l.Elems[i+1:]...)
			return v, nil
		},
		"insert": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("insert", args, 2, 2); err != nil {
				return nil, err
			}
			l := recv.(*List)
			n, ok := asInt(args[0])
			if !ok {
				return nil, fmt.Errorf("insert index must be int")
			}
			i := clamp(int(n), 0, len(l.Elems))
			l.Elems = append(l.Elems, nil)
			copy(l.Elems[i+1:], l.Elems[i:])
			l.Elems[i] = args[1]
			return NoneValue, nil
		},
		"remove": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("remove", args, 1, 1); err != nil {
				return nil, err
			}
			l := recv.(*List)
			for i, e := range l.Elems {
				if Equal(e, args[0]) {
					l.Elems = append(l.Elems[:i], l.Elems[i+1:]...)
					return NoneValue, nil
				}
			}
			return nil, fmt.Errorf("list.remove(x): x not in list")
		},
		"index": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("index", args, 1, 1); err != nil {
				return nil, err
			}
			l := recv.(*List)
			for i, e := range l.Elems {
				if Equal(e, args[0]) {
					return Int(i), nil
				}
			}
			return nil, fmt.Errorf("%s is not in list", args[0].Repr())
		},
		"count": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("count", args, 1, 1); err != nil {
				return nil, err
			}
			n := 0
			for _, e := range recv.(*List).Elems {
				if Equal(e, args[0]) {
					n++
				}
			}
			return Int(n), nil
		},
		"sort": func(ip *Interp, recv Value, args []Value, kwargs map[string]Value) (Value, error) {
			l := recv.(*List)
			var sortErr error
			key := kwargs["key"]
			reverse := false
			if r, ok := kwargs["reverse"]; ok {
				reverse = r.Truth()
			}
			keyOf := func(v Value) (Value, error) {
				if key == nil {
					return v, nil
				}
				return ip.Call(key, []Value{v}, nil)
			}
			sort.SliceStable(l.Elems, func(i, j int) bool {
				if sortErr != nil {
					return false
				}
				ki, err := keyOf(l.Elems[i])
				if err != nil {
					sortErr = err
					return false
				}
				kj, err := keyOf(l.Elems[j])
				if err != nil {
					sortErr = err
					return false
				}
				c, err := Compare(ki, kj)
				if err != nil {
					sortErr = err
					return false
				}
				if reverse {
					return c > 0
				}
				return c < 0
			})
			if sortErr != nil {
				return nil, sortErr
			}
			return NoneValue, nil
		},
		"reverse": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			l := recv.(*List)
			for i, j := 0, len(l.Elems)-1; i < j; i, j = i+1, j-1 {
				l.Elems[i], l.Elems[j] = l.Elems[j], l.Elems[i]
			}
			return NoneValue, nil
		},
		"copy": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			l := recv.(*List)
			out := make([]Value, len(l.Elems))
			copy(out, l.Elems)
			return &List{Elems: out}, nil
		},
		"clear": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
			recv.(*List).Elems = nil
			return NoneValue, nil
		},
	}
}

var dictMethods = map[string]methodFn{
	"get": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("get", args, 1, 2); err != nil {
			return nil, err
		}
		d := recv.(*Dict)
		if v, ok := d.Get(args[0]); ok {
			return v, nil
		}
		if len(args) == 2 {
			return args[1], nil
		}
		return NoneValue, nil
	},
	"keys": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		return &List{Elems: recv.(*Dict).Keys()}, nil
	},
	"values": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		d := recv.(*Dict)
		out := make([]Value, 0, d.Len())
		for _, k := range d.Keys() {
			v, _ := d.Get(k)
			out = append(out, v)
		}
		return &List{Elems: out}, nil
	},
	"items": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		d := recv.(*Dict)
		out := make([]Value, 0, d.Len())
		for _, k := range d.Keys() {
			v, _ := d.Get(k)
			out = append(out, NewTuple(k, v))
		}
		return &List{Elems: out}, nil
	},
	"pop": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("pop", args, 1, 2); err != nil {
			return nil, err
		}
		d := recv.(*Dict)
		if v, ok := d.Get(args[0]); ok {
			d.Delete(args[0])
			return v, nil
		}
		if len(args) == 2 {
			return args[1], nil
		}
		return nil, fmt.Errorf("KeyError: %s", args[0].Repr())
	},
	"setdefault": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("setdefault", args, 1, 2); err != nil {
			return nil, err
		}
		d := recv.(*Dict)
		if v, ok := d.Get(args[0]); ok {
			return v, nil
		}
		var def Value = NoneValue
		if len(args) == 2 {
			def = args[1]
		}
		if err := d.Set(args[0], def); err != nil {
			return nil, err
		}
		return def, nil
	},
	"update": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		if err := checkArity("update", args, 1, 1); err != nil {
			return nil, err
		}
		d := recv.(*Dict)
		src, ok := args[0].(*Dict)
		if !ok {
			return nil, fmt.Errorf("update argument must be dict")
		}
		for _, k := range src.Keys() {
			v, _ := src.Get(k)
			if err := d.Set(k, v); err != nil {
				return nil, err
			}
		}
		return NoneValue, nil
	},
	"clear": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		d := recv.(*Dict)
		d.keys = nil
		d.entries = map[string]dictEntry{}
		return NoneValue, nil
	},
	"copy": func(_ *Interp, recv Value, args []Value, _ map[string]Value) (Value, error) {
		d := recv.(*Dict)
		out := NewDict()
		for _, k := range d.Keys() {
			v, _ := d.Get(k)
			if err := out.Set(k, v); err != nil {
				return nil, err
			}
		}
		return out, nil
	},
}

// installUniversalBuiltins binds the builtin functions into a globals
// environment.
func (ip *Interp) installUniversalBuiltins(env *Env) {
	for name, fn := range universalBuiltins {
		env.Set(name, &Builtin{Name: name, Fn: fn})
	}
}

// NewGlobals creates a fresh globals environment pre-populated with the
// builtin functions.
func (ip *Interp) NewGlobals() *Env {
	env := NewEnv(nil)
	ip.installUniversalBuiltins(env)
	return env
}

type builtinFn = func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)

var universalBuiltins map[string]builtinFn

func init() {
	universalBuiltins = map[string]builtinFn{
		"print": func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			sep := " "
			end := "\n"
			if s, ok := kwargs["sep"]; ok {
				sep = ToStr(s)
			}
			if e, ok := kwargs["end"]; ok {
				end = ToStr(e)
			}
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = ToStr(a)
			}
			fmt.Fprint(ip.host.Stdout(), strings.Join(parts, sep)+end)
			return NoneValue, nil
		},
		"len": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
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
		},
		"range": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("range", args, 1, 3); err != nil {
				return nil, err
			}
			nums := make([]int64, len(args))
			for i, a := range args {
				n, ok := asInt(a)
				if !ok {
					return nil, fmt.Errorf("range() argument must be int, not %s", a.Type())
				}
				nums[i] = n
			}
			var start, stop, step int64 = 0, 0, 1
			switch len(nums) {
			case 1:
				stop = nums[0]
			case 2:
				start, stop = nums[0], nums[1]
			case 3:
				start, stop, step = nums[0], nums[1], nums[2]
			}
			if step == 0 {
				return nil, fmt.Errorf("range() arg 3 must not be zero")
			}
			var out []Value
			if step > 0 {
				for i := start; i < stop; i += step {
					out = append(out, Int(i))
				}
			} else {
				for i := start; i > stop; i += step {
					out = append(out, Int(i))
				}
			}
			return &List{Elems: out}, nil
		},
		"str": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if len(args) == 0 {
				return Str(""), nil
			}
			return Str(ToStr(args[0])), nil
		},
		"repr": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("repr", args, 1, 1); err != nil {
				return nil, err
			}
			return Str(args[0].Repr()), nil
		},
		"int": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("int", args, 1, 1); err != nil {
				return nil, err
			}
			switch v := args[0].(type) {
			case Int:
				return v, nil
			case Bool:
				if v {
					return Int(1), nil
				}
				return Int(0), nil
			case Float:
				return Int(int64(v)), nil
			case Str:
				n, err := strconv.ParseInt(strings.TrimSpace(string(v)), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("invalid literal for int(): %q", string(v))
				}
				return Int(n), nil
			}
			return nil, fmt.Errorf("int() argument must be a number or string, not '%s'", args[0].Type())
		},
		"float": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("float", args, 1, 1); err != nil {
				return nil, err
			}
			if f, ok := numAsFloat(args[0]); ok {
				return Float(f), nil
			}
			if s, ok := args[0].(Str); ok {
				f, err := strconv.ParseFloat(strings.TrimSpace(string(s)), 64)
				if err != nil {
					return nil, fmt.Errorf("could not convert string to float: %q", string(s))
				}
				return Float(f), nil
			}
			return nil, fmt.Errorf("float() argument must be a number or string")
		},
		"bool": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if len(args) == 0 {
				return Bool(false), nil
			}
			return Bool(args[0].Truth()), nil
		},
		"abs": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("abs", args, 1, 1); err != nil {
				return nil, err
			}
			switch v := args[0].(type) {
			case Int:
				if v < 0 {
					return -v, nil
				}
				return v, nil
			case Float:
				return Float(math.Abs(float64(v))), nil
			}
			return nil, fmt.Errorf("bad operand type for abs(): '%s'", args[0].Type())
		},
		"min": minMaxBuiltin("min", -1),
		"max": minMaxBuiltin("max", 1),
		"sum": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("sum", args, 1, 2); err != nil {
				return nil, err
			}
			items, err := iterate(args[0], 0)
			if err != nil {
				return nil, err
			}
			var acc Value = Int(0)
			if len(args) == 2 {
				acc = args[1]
			}
			for _, it := range items {
				acc, err = binaryOp(Plus, acc, it, 0)
				if err != nil {
					return nil, err
				}
			}
			return acc, nil
		},
		"round": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("round", args, 1, 2); err != nil {
				return nil, err
			}
			f, ok := numAsFloat(args[0])
			if !ok {
				return nil, fmt.Errorf("round() argument must be a number")
			}
			if len(args) == 2 {
				n, ok := asInt(args[1])
				if !ok {
					return nil, fmt.Errorf("round() second argument must be int")
				}
				scale := math.Pow(10, float64(n))
				return Float(math.Round(f*scale) / scale), nil
			}
			return Int(int64(math.Round(f))), nil
		},
		"sorted": func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := checkArity("sorted", args, 1, 1); err != nil {
				return nil, err
			}
			items, err := iterate(args[0], 0)
			if err != nil {
				return nil, err
			}
			l := &List{Elems: items}
			if _, err := listMethods["sort"](ip, l, nil, kwargs); err != nil {
				return nil, err
			}
			return l, nil
		},
		"reversed": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("reversed", args, 1, 1); err != nil {
				return nil, err
			}
			items, err := iterate(args[0], 0)
			if err != nil {
				return nil, err
			}
			out := make([]Value, len(items))
			for i, it := range items {
				out[len(items)-1-i] = it
			}
			return &List{Elems: out}, nil
		},
		"enumerate": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("enumerate", args, 1, 2); err != nil {
				return nil, err
			}
			items, err := iterate(args[0], 0)
			if err != nil {
				return nil, err
			}
			var start int64
			if len(args) == 2 {
				n, ok := asInt(args[1])
				if !ok {
					return nil, fmt.Errorf("enumerate() start must be int")
				}
				start = n
			}
			out := make([]Value, len(items))
			for i, it := range items {
				out[i] = NewTuple(Int(start+int64(i)), it)
			}
			return &List{Elems: out}, nil
		},
		"zip": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if len(args) == 0 {
				return &List{}, nil
			}
			seqs := make([][]Value, len(args))
			minLen := -1
			for i, a := range args {
				items, err := iterate(a, 0)
				if err != nil {
					return nil, err
				}
				seqs[i] = items
				if minLen < 0 || len(items) < minLen {
					minLen = len(items)
				}
			}
			out := make([]Value, minLen)
			for i := 0; i < minLen; i++ {
				row := make([]Value, len(seqs))
				for j := range seqs {
					row[j] = seqs[j][i]
				}
				out[i] = &Tuple{Elems: row}
			}
			return &List{Elems: out}, nil
		},
		"map": func(ip *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("map", args, 2, 2); err != nil {
				return nil, err
			}
			items, err := iterate(args[1], 0)
			if err != nil {
				return nil, err
			}
			out := make([]Value, len(items))
			for i, it := range items {
				v, err := ip.Call(args[0], []Value{it}, nil)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return &List{Elems: out}, nil
		},
		"filter": func(ip *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("filter", args, 2, 2); err != nil {
				return nil, err
			}
			items, err := iterate(args[1], 0)
			if err != nil {
				return nil, err
			}
			var out []Value
			for _, it := range items {
				keep := it.Truth()
				if _, isNone := args[0].(None); !isNone {
					v, err := ip.Call(args[0], []Value{it}, nil)
					if err != nil {
						return nil, err
					}
					keep = v.Truth()
				}
				if keep {
					out = append(out, it)
				}
			}
			return &List{Elems: out}, nil
		},
		"list": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if len(args) == 0 {
				return &List{}, nil
			}
			items, err := iterate(args[0], 0)
			if err != nil {
				return nil, err
			}
			return &List{Elems: items}, nil
		},
		"tuple": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if len(args) == 0 {
				return &Tuple{}, nil
			}
			items, err := iterate(args[0], 0)
			if err != nil {
				return nil, err
			}
			return &Tuple{Elems: items}, nil
		},
		"dict": func(_ *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			d := NewDict()
			if len(args) == 1 {
				if src, ok := args[0].(*Dict); ok {
					for _, k := range src.Keys() {
						v, _ := src.Get(k)
						if err := d.Set(k, v); err != nil {
							return nil, err
						}
					}
				} else {
					items, err := iterate(args[0], 0)
					if err != nil {
						return nil, err
					}
					for _, it := range items {
						pair, ok := sequenceElems(it)
						if !ok || len(pair) != 2 {
							return nil, fmt.Errorf("dict update sequence elements must be pairs")
						}
						if err := d.Set(pair[0], pair[1]); err != nil {
							return nil, err
						}
					}
				}
			}
			// Sorted for determinism.
			names := make([]string, 0, len(kwargs))
			for k := range kwargs {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				if err := d.Set(Str(k), kwargs[k]); err != nil {
					return nil, err
				}
			}
			return d, nil
		},
		"type": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("type", args, 1, 1); err != nil {
				return nil, err
			}
			return Str(args[0].Type()), nil
		},
		"isinstance": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("isinstance", args, 2, 2); err != nil {
				return nil, err
			}
			want, ok := args[1].(Str)
			if !ok {
				return nil, fmt.Errorf("isinstance() second argument must be a type name string")
			}
			return Bool(args[0].Type() == string(want)), nil
		},
		"callable": func(_ *Interp, args []Value, _ map[string]Value) (Value, error) {
			if err := checkArity("callable", args, 1, 1); err != nil {
				return nil, err
			}
			switch args[0].(type) {
			case *Func, *Builtin, *BoundMethod:
				return Bool(true), nil
			}
			return Bool(false), nil
		},
	}
}

func minMaxBuiltin(name string, sign int) builtinFn {
	return func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		var items []Value
		if len(args) == 1 {
			var err error
			items, err = iterate(args[0], 0)
			if err != nil {
				return nil, err
			}
		} else {
			items = args
		}
		if len(items) == 0 {
			return nil, fmt.Errorf("%s() arg is an empty sequence", name)
		}
		key := kwargs["key"]
		keyOf := func(v Value) (Value, error) {
			if key == nil {
				return v, nil
			}
			return ip.Call(key, []Value{v}, nil)
		}
		best := items[0]
		bestKey, err := keyOf(best)
		if err != nil {
			return nil, err
		}
		for _, it := range items[1:] {
			k, err := keyOf(it)
			if err != nil {
				return nil, err
			}
			c, err := Compare(k, bestKey)
			if err != nil {
				return nil, err
			}
			if c*sign > 0 {
				best, bestKey = it, k
			}
		}
		return best, nil
	}
}
