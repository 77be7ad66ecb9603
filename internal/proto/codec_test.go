package proto

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

var codecInvocations = []core.InvocationSpec{
	{},
	{ID: 1, Library: "lib", Function: "f", Args: []byte{1, 2, 3}},
	{ID: -9, Library: "", Function: "g"},
	{ID: 1<<62 + 7, Library: "a-very-long-library-name-with-dashes", Function: "λ", Args: bytes.Repeat([]byte{0xFF}, 300)},
}

var codecResults = []core.Result{
	{},
	{ID: 42, Ok: true, Value: []byte("pickled"), Metrics: core.InvocationMetrics{
		TransferTime: 0.25, WorkerTime: 1e-9, SetupTime: 3.5, ExecTime: 100,
		WorkerID: "w001", LibraryInstance: "lib#2",
	}},
	{ID: -3, Ok: false, Err: "boom: λ", Retryable: true},
}

// TestBinaryCodecRoundTrip sends every sample through a real framed
// connection and asserts exact reconstruction — and that the wire body
// really took the binary path.
func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, inv := range codecInvocations {
		var buf bytes.Buffer
		c := NewConn(&buf)
		if err := c.Send(MsgInvoke, &inv); err != nil {
			t.Fatal(err)
		}
		typ, raw, err := c.Recv()
		if err != nil || typ != MsgInvoke {
			t.Fatalf("recv: %v %v", typ, err)
		}
		if raw[0] != binMarker {
			t.Fatalf("invocation %d: body not binary-encoded (first byte %#x)", inv.ID, raw[0])
		}
		got, err := DecodeInvocation(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, inv) {
			t.Fatalf("invocation round-trip:\n got %+v\nwant %+v", got, inv)
		}
	}
	for _, res := range codecResults {
		var buf bytes.Buffer
		c := NewConn(&buf)
		if err := c.Send(MsgResult, res); err != nil {
			t.Fatal(err)
		}
		typ, raw, err := c.Recv()
		if err != nil || typ != MsgResult {
			t.Fatalf("recv: %v %v", typ, err)
		}
		if raw[0] != binMarker {
			t.Fatalf("result %d: body not binary-encoded (first byte %#x)", res.ID, raw[0])
		}
		got, err := DecodeResult(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("result round-trip:\n got %+v\nwant %+v", got, res)
		}
	}
}

// TestBinaryCodecTruncation asserts every proper prefix of a binary
// body errors instead of decoding garbage or panicking, and so does a
// body with bytes to spare or one that is not binary at all: nothing
// emits these messages as JSON, so a JSON body is refused like any
// other stranger.
func TestBinaryCodecTruncation(t *testing.T) {
	inv := appendInvocation(nil, &codecInvocations[1])
	for n := 0; n < len(inv); n++ {
		if _, err := DecodeInvocation(inv[:n]); err == nil {
			t.Fatalf("invocation prefix of %d/%d bytes decoded without error", n, len(inv))
		}
	}
	res := appendResult(nil, &codecResults[1])
	for n := 0; n < len(res); n++ {
		if _, err := DecodeResult(res[:n]); err == nil {
			t.Fatalf("result prefix of %d/%d bytes decoded without error", n, len(res))
		}
	}
	if _, err := DecodeInvocation(append(inv, 0)); err == nil {
		t.Error("invocation body with a trailing byte decoded without error")
	}
	if _, err := DecodeResult(append(res, 0)); err == nil {
		t.Error("result body with a trailing byte decoded without error")
	}
	invJSON, err := json.Marshal(codecInvocations[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeInvocation(invJSON); err == nil {
		t.Error("JSON invocation body decoded without error")
	}
	resJSON, err := json.Marshal(codecResults[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(resJSON); err == nil {
		t.Error("JSON result body decoded without error")
	}
}

// TestBinaryCodecBogusLength asserts a length prefix pointing past the
// end of the body is rejected (no over-read, no giant allocation).
func TestBinaryCodecBogusLength(t *testing.T) {
	body := []byte{binMarker, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, err := DecodeInvocation(body); err == nil {
		t.Fatal("bogus string length decoded without error")
	}
	if _, err := DecodeResult(body); err == nil {
		t.Fatal("bogus result length decoded without error")
	}
}
