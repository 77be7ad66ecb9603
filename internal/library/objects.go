package library

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/content"
	"repro/internal/minipy"
	"repro/internal/pickle"
)

// ObjectLoaders builds the load_text and load_pickle builtins that both
// runtime modules — a task's vine_runtime and a library's vine_data —
// expose over their staged objects. Each module is built once per
// process, so lookup finds an object by the name the script gives
// through the calling interpreter, whose host is the running task or
// library.
//
// This is where a content object becomes an interpreter value, and it
// does so without copying: an object's bytes are immutable from the
// moment it exists (they are what its ID names), so load_text returns a
// string view of Object.Data and load_pickle lets the large strings of
// the value alias it. The views keep the bytes alive on their own, so an
// object evicted from the cache while a script still holds its text
// costs nothing but the memory staying reachable a little longer.
func ObjectLoaders(lookup func(ip *minipy.Interp, name string) (*content.Object, error)) (loadText, loadPickle *minipy.Builtin) {
	loader := func(fname string, decode func([]byte, *minipy.Interp) (minipy.Value, error)) *minipy.Builtin {
		return &minipy.Builtin{Name: fname, Fn: func(ip *minipy.Interp, args []minipy.Value) (minipy.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("%s() takes 1 argument", fname)
			}
			name, ok := args[0].(minipy.Str)
			if !ok {
				return nil, fmt.Errorf("%s() argument must be a str", fname)
			}
			obj, err := lookup(ip, string(name))
			if err != nil {
				return nil, err
			}
			return decode(obj.Data, ip)
		}}
	}
	borrowText := func(data []byte, _ *minipy.Interp) (minipy.Value, error) { return minipy.BorrowStr(data), nil }
	return loader("load_text", borrowText), loader("load_pickle", pickle.UnmarshalBorrow)
}

// SortedNames sorts a list of str values by name and drops repeats:
// what vine_runtime.input_names() and vine_data.names() return.
func SortedNames(l *minipy.List) *minipy.List {
	slices.SortFunc(l.Elems, func(a, b minipy.Value) int { return cmp.Compare(a.(minipy.Str), b.(minipy.Str)) })
	l.Elems = slices.Compact(l.Elems)
	return l
}
