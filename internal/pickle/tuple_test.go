package pickle

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/minipy"
)

// raceDetector is set under -race (race_test.go), where sync.Pool drops
// some of what it is given and an encoder or decoder is then allocated.
var raceDetector bool

// tupleCases are the round-trip functions and values, one at a time and
// all together, each twice in a row (the second a reference to the
// first), and the empty tuple.
func tupleCases(t *testing.T) [][]minipy.Value {
	ip := minipy.NewInterp(newHost())
	var all []minipy.Value
	for _, fn := range fuzzFuncs {
		env, err := ip.RunModule(fn[0], "__main__")
		if err != nil {
			t.Fatal(err)
		}
		v, _ := env.Get(fn[1])
		all = append(all, v)
	}
	all = append(all, fuzzValues()...)
	cases := [][]minipy.Value{nil, {}, all}
	for _, v := range all {
		cases = append(cases, []minipy.Value{v}, []minipy.Value{v, v})
	}
	return cases
}

// TestMarshalTupleMatchesMarshal: MarshalTuple writes Marshal's bytes for
// the tuple it does not build — shared and cyclic elements included, the
// depth bound counted from the same level — AppendTuple and Append append
// what MarshalTuple and Marshal return, and UnmarshalTuple decodes them
// to the elements Unmarshal finds in that tuple.
func TestMarshalTupleMatchesMarshal(t *testing.T) {
	ip := minipy.NewInterp(newHost())
	for i, vs := range tupleCases(t) {
		want, err := Marshal(minipy.NewTuple(vs...))
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalTuple(vs)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("case %d: MarshalTuple = %x (%v), want %x", i, got, err, want)
		}
		prefix := []byte("prefix")
		if appended, err := AppendTuple(prefix, vs); err != nil || !bytes.Equal(appended, append(prefix, want...)) {
			t.Fatalf("case %d: AppendTuple = %x (%v), want the prefix and %x", i, appended, err, want)
		}
		for _, v := range vs {
			one, err := Marshal(v)
			if appended, aerr := Append(prefix, v); aerr != nil || err != nil || !bytes.Equal(appended, append(prefix, one...)) {
				t.Fatalf("case %d: Append = %x (%v), want the prefix and %x (%v)", i, appended, aerr, one, err)
			}
		}
		elems, other, err := UnmarshalTuple(nil, got, ip)
		if err != nil || other != nil {
			t.Fatalf("case %d: UnmarshalTuple: %v, other %v", i, err, other)
		}
		if again, err := MarshalTuple(elems); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("case %d: decoded elements re-encode to %x (%v), want %x", i, again, err, want)
		}
	}
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		vs := []minipy.Value{nested(depth)}
		_, want := Marshal(minipy.NewTuple(vs...))
		if _, err := MarshalTuple(vs); (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Errorf("an element %d levels deep: MarshalTuple error %v, Marshal's %v", depth, err, want)
		}
	}
}

// TestMarshalTupleAllocatesOnce: pickling arguments allocates their bytes
// and nothing else — no tuple, no copy of the caller's slice — and
// appending them, or a value, to a buffer with room for them allocates
// nothing.
func TestMarshalTupleAllocatesOnce(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops encoders under -race")
	}
	args := []minipy.Value{minipy.Int(7)}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := MarshalTuple(args); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("MarshalTuple allocated %v times, want 1", n)
	}
	buf := make([]byte, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendTuple(buf, args); err != nil {
			t.Fatal(err)
		}
		if _, err := Append(buf, args[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendTuple and Append into room allocated %v times, want 0", n)
	}
}

// TestUnmarshalTupleFallsBack: an element that refers back to the tuple,
// which UnmarshalTuple does not build, decodes through Unmarshal; a value
// that is not a tuple comes back whole; and a failure leaves nothing
// appended.
func TestUnmarshalTupleFallsBack(t *testing.T) {
	ip := minipy.NewInterp(newHost())
	dst := []minipy.Value{minipy.Str("kept")}
	// (1, <the tuple>): a tuple that holds itself, which no script builds
	// but bytes can say.
	selfRef := []byte{magic, version, tagTuple, 2, tagInt, 2, tagRef, 0}
	elems, other, err := UnmarshalTuple(dst, selfRef, ip)
	if err != nil || other != nil || len(elems) != 3 || elems[1] != minipy.Int(1) {
		t.Fatalf("self-referring tuple: %v, other %v, err %v", elems, other, err)
	}
	if inner, ok := elems[2].(*minipy.Tuple); !ok || len(inner.Elems) != 2 || inner.Elems[1] != inner {
		t.Fatalf("the second element is %v, want the tuple itself", elems[2])
	}

	data, err := Marshal(minipy.NewList(minipy.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	elems, other, err = UnmarshalTuple(dst[:1], data, ip)
	if err != nil || len(elems) != 1 || other == nil || other.Repr() != "[1]" {
		t.Fatalf("a list: elements %v, other %v, err %v", elems, other, err)
	}

	truncated := selfRef[:len(selfRef)-2]
	buf := make([]minipy.Value, 1, 4)
	elems, _, err = UnmarshalTuple(buf[:1], truncated, ip)
	_, want := Unmarshal(truncated, ip)
	if err == nil || want == nil || err.Error() != want.Error() || len(elems) != 1 {
		t.Fatalf("a truncated tuple: %d elements, err %v, want Unmarshal's %v", len(elems), err, want)
	}
	if slices.ContainsFunc(buf[1:cap(buf)], func(v minipy.Value) bool { return v != nil }) {
		t.Errorf("a failed decode left %v behind", buf[1:cap(buf)])
	}
}
