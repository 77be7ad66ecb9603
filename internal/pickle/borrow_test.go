package pickle

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/minipy"
)

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// overwrite stands in for a receive buffer's next frame.
func overwrite(data []byte) {
	for i := range data {
		data[i] = '#'
	}
}

// TestUnmarshalBorrowFloor: UnmarshalBorrow hands out a large string as
// a view of its input, and anything under the floor — a dict key that
// would otherwise pin the whole input — as a copy.
func TestUnmarshalBorrowFloor(t *testing.T) {
	big := strings.Repeat("payload!", 128<<10) // 1 MiB
	under := strings.Repeat("k", borrowFloor-1)
	d := minipy.NewDict()
	if err := d.Set(minipy.Str(under), minipy.Str(big)); err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	ip := minipy.NewInterp(newHost())
	var v minipy.Value
	if got := allocated(func() { v, err = UnmarshalBorrow(data, ip) }); err != nil || got > 64<<10 {
		t.Fatalf("UnmarshalBorrow of a %d-byte string allocated %d bytes (err %v), want a view", len(big), got, err)
	}
	key, val := v.(*minipy.Dict).Item(0)
	if string(val.(minipy.Str)) != big {
		t.Fatal("borrowed string differs from the one pickled")
	}
	// Only the copy may be read from here on: the view's bytes are gone.
	overwrite(data)
	if string(key.(minipy.Str)) != under {
		t.Errorf("a %d-byte string, under the %d-byte floor, aliases its source", len(under), borrowFloor)
	}
}

// TestUnmarshalCopies: what Unmarshal returns shares nothing with its
// input, whatever the size — invocation arguments are decoded out of
// buffers the next frame overwrites.
func TestUnmarshalCopies(t *testing.T) {
	big := strings.Repeat("argument", 8<<10)
	data, err := Marshal(minipy.NewTuple(minipy.Str(big), minipy.Str("small")))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Unmarshal(data, minipy.NewInterp(newHost()))
	if err != nil {
		t.Fatal(err)
	}
	overwrite(data)
	elems := v.(*minipy.Tuple).Elems
	if string(elems[0].(minipy.Str)) != big || string(elems[1].(minipy.Str)) != "small" {
		t.Error("unpickled arguments changed when the buffer they were decoded from was overwritten")
	}
}

// TestMarshalLargeStringAllocatesOnce: a string root too large for the
// encoder pool is pickled into one buffer of its size, which the caller
// gets — no doubling series, no copy out of the encoder.
func TestMarshalLargeStringAllocatesOnce(t *testing.T) {
	s := minipy.Str(strings.Repeat("r", 2<<20))
	const slack = 64 << 10
	var data []byte
	var err error
	if got := allocated(func() { data, err = Marshal(s) }); err != nil || got > uint64(len(s))+slack {
		t.Fatalf("pickling a %d-byte string allocated %d bytes (err %v), want one buffer", len(s), got, err)
	}
	// The buffer now belongs to the caller: later Marshals leave it alone.
	want := append([]byte(nil), data...)
	for i := 0; i < 4; i++ {
		if _, err := Marshal(minipy.Str(strings.Repeat("x", 2<<20))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(data, want) {
		t.Error("a later Marshal wrote into a buffer an earlier one had returned")
	}
}
