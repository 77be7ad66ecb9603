package library

import (
	"fmt"

	"repro/internal/content"
	"repro/internal/minipy"
	"repro/internal/pickle"
)

// ObjectLoaders builds the load_text and load_pickle builtins that both
// runtime modules — a task's vine_runtime and a library's vine_data —
// expose over their staged objects; lookup finds an object by the name
// the script gives.
//
// This is where a content object becomes an interpreter value, and it
// does so without copying: an object's bytes are immutable from the
// moment it exists (they are what its ID names), so load_text returns a
// string view of Object.Data and load_pickle lets the large strings of
// the value alias it. The views keep the bytes alive on their own, so an
// object evicted from the cache while a script still holds its text
// costs nothing but the memory staying reachable a little longer.
func ObjectLoaders(lookup func(name string) (*content.Object, error)) (loadText, loadPickle *minipy.Builtin) {
	loadText = &minipy.Builtin{Name: "load_text", Fn: func(_ *minipy.Interp, args []minipy.Value, _ map[string]minipy.Value) (minipy.Value, error) {
		obj, err := namedObject(lookup, "load_text", args)
		if err != nil {
			return nil, err
		}
		return minipy.BorrowStr(obj.Data), nil
	}}
	loadPickle = &minipy.Builtin{Name: "load_pickle", Fn: func(ip *minipy.Interp, args []minipy.Value, _ map[string]minipy.Value) (minipy.Value, error) {
		obj, err := namedObject(lookup, "load_pickle", args)
		if err != nil {
			return nil, err
		}
		return pickle.UnmarshalBorrow(obj.Data, ip)
	}}
	return loadText, loadPickle
}

// namedObject resolves a loader's single argument, the object's name.
func namedObject(lookup func(string) (*content.Object, error), fname string, args []minipy.Value) (*content.Object, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("%s() takes 1 argument", fname)
	}
	name, ok := args[0].(minipy.Str)
	if !ok {
		return nil, fmt.Errorf("%s() argument must be a str", fname)
	}
	return lookup(string(name))
}
