package proto_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/proto"
)

// controlDecoders maps every control message type to its decoder,
// returning the value that re-encodes as that type. The four messages
// with fuzzers of their own (invocation, result, task, library) and the
// two bulk headers (FuzzRecvBulk) are not here.
var controlDecoders = map[proto.MsgType]func([]byte) (any, error){
	proto.MsgHello:      func(b []byte) (any, error) { return proto.DecodeHello(b) },
	proto.MsgFetchFile:  func(b []byte) (any, error) { return proto.DecodeFetchFile(b) },
	proto.MsgFileAck:    func(b []byte) (any, error) { return proto.DecodeFileAck(b) },
	proto.MsgLibraryAck: func(b []byte) (any, error) { return proto.DecodeLibraryAck(b) },
	proto.MsgLog:        func(b []byte) (any, error) { return proto.DecodeLog(b) },
	proto.MsgRemoveLibrary: func(b []byte) (any, error) {
		s, err := proto.DecodeString(b)
		return proto.RemoveLibrary{Library: s}, err
	},
	proto.MsgSpillObject: func(b []byte) (any, error) {
		s, err := proto.DecodeString(b)
		return proto.SpillObject{ID: s}, err
	},
	proto.MsgOwnObject: func(b []byte) (any, error) {
		s, err := proto.DecodeString(b)
		return proto.OwnObject{ID: s}, err
	},
	proto.MsgGetFile: func(b []byte) (any, error) {
		s, err := proto.DecodeString(b)
		return proto.GetFile{ID: s}, err
	},
	proto.MsgError: func(b []byte) (any, error) {
		s, err := proto.DecodeString(b)
		return proto.ErrorMsg{Err: s}, err
	},
	proto.MsgShutdown: func(b []byte) (any, error) { return proto.Shutdown{}, proto.DecodeShutdown(b) },
}

// controlSamples is one realistic value of every control message, as
// the manager and its workers send them.
var controlSamples = map[proto.MsgType]any{
	proto.MsgHello: proto.Hello{WorkerID: "w0017", Resources: core.Resources{Cores: 16, MemoryMB: 32 << 10, DiskMB: 8 << 10},
		Cluster: "rack-β", DataAddr: "10.0.3.17:9123", MachineGFlops: 4.4},
	proto.MsgFetchFile: proto.FetchFile{ID: "5feceb66", Name: "env.tar.gz", FromAddr: "10.0.3.17:9123",
		AltAddrs: []string{"10.0.3.18:9123", "10.0.3.19:9123"}, Source: "w0017", Cache: true, Unpack: true, Own: true, Size: 572 << 20},
	proto.MsgFileAck:       proto.FileAck{ID: "5feceb66", Ok: false, Cache: true, Source: "w0017", Err: "peer stalled"},
	proto.MsgLibraryAck:    proto.LibraryAck{Library: "lnni", Instance: "lnni@w0017#2", Ok: true, Retryable: true, SetupTime: 3.5},
	proto.MsgLog:           proto.LogMsg{Worker: "w0017", Text: "protocol error: fetch-file frame: truncated"},
	proto.MsgRemoveLibrary: proto.RemoveLibrary{Library: "lnni"},
	proto.MsgSpillObject:   proto.SpillObject{ID: "sha256:ab12"},
	proto.MsgOwnObject:     proto.OwnObject{ID: "sha256:ab12"},
	proto.MsgGetFile:       proto.GetFile{ID: "5feceb66"},
	proto.MsgError:         proto.ErrorMsg{Err: "object not cached"},
	proto.MsgShutdown:      proto.Shutdown{},
}

// TestQuickControlRoundTrip: any value of every control message
// survives a frame round trip exactly.
func TestQuickControlRoundTrip(t *testing.T) {
	for mt, decode := range controlDecoders {
		typ := reflect.TypeOf(controlSamples[mt])
		f := func(seed int64) bool {
			v, _ := quick.Value(typ, rand.New(rand.NewSource(seed)))
			in := v.Interface()
			if ff, ok := in.(proto.FetchFile); ok && len(ff.AltAddrs) == 0 {
				ff.AltAddrs = nil // none decodes as nil
				in = ff
			}
			out, err := decode(body(t, mt, in))
			if err != nil {
				t.Logf("%v: %v", mt, err)
				return false
			}
			return reflect.DeepEqual(out, in)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%v: %v", mt, err)
		}
	}
}

// stretched re-encodes the one-byte uvarint at raw[i] in two bytes: the
// same value, not in its shortest form, which no encoder writes.
func stretched(raw []byte, i int) []byte {
	return append(append(append([]byte(nil), raw[:i]...), raw[i]|0x80, 0), raw[i+1:]...)
}

// TestControlCodecRejectsDamage: for every control message, every
// proper prefix of a body, a body with a byte to spare, a length not in
// its shortest form, and the JSON body a peer of an older build would
// send all fail to decode.
func TestControlCodecRejectsDamage(t *testing.T) {
	for mt, decode := range controlDecoders {
		raw := body(t, mt, controlSamples[mt])
		if _, err := decode(raw); err != nil {
			t.Fatalf("%v: intact body: %v", mt, err)
		}
		// The first length follows the marker and, in the three messages
		// that have one, a flag byte; a shutdown body is the marker alone.
		if mt != proto.MsgShutdown {
			first := 1
			if mt == proto.MsgFetchFile || mt == proto.MsgFileAck || mt == proto.MsgLibraryAck {
				first = 2
			}
			if _, err := decode(stretched(raw, first)); err == nil || !strings.Contains(err.Error(), "shortest form") {
				t.Errorf("%v: a length not in its shortest form: %v", mt, err)
			}
		}
		for n := 0; n < len(raw); n++ {
			if _, err := decode(raw[:n]); err == nil {
				t.Fatalf("%v: prefix of %d/%d bytes decoded without error", mt, n, len(raw))
			}
		}
		if _, err := decode(append(append([]byte(nil), raw...), 0)); err == nil {
			t.Errorf("%v: a trailing byte decoded without error", mt)
		}
		if _, err := decode([]byte(`{"worker_id":"w1","id":"x","library":"lib"}`)); err == nil {
			t.Errorf("%v: a JSON body decoded without error", mt)
		}
	}
}

// TestSendRefusesMismatchedValue: a value is encoded only as the frame
// type it is the body of.
func TestSendRefusesMismatchedValue(t *testing.T) {
	var buf bytes.Buffer
	c := proto.NewConn(&buf)
	if err := c.Send(proto.MsgFileAck, proto.LibraryAck{Library: "lib"}); err == nil {
		t.Error("a LibraryAck was sent as a file-ack frame")
	}
	if err := c.Send(proto.MsgShutdown, struct{}{}); err == nil {
		t.Error("a value with no encoding was sent")
	}
	if buf.Len() != 0 {
		t.Errorf("refused sends wrote %d bytes", buf.Len())
	}
}

// FuzzDecodeControl holds every control decoder to the contract of
// fuzzDecode: the type byte picks the decoder, the body is the input.
func FuzzDecodeControl(f *testing.F) {
	for mt := proto.MsgHello; mt <= proto.MsgOwnObject; mt++ {
		if v, ok := controlSamples[mt]; ok {
			f.Add(byte(mt), body(f, mt, v))
		}
	}
	f.Fuzz(func(t *testing.T, typ byte, raw []byte) {
		mt := proto.MsgType(typ)
		if decode, ok := controlDecoders[mt]; ok {
			fuzzDecode(t, mt, decode, raw)
		}
	})
}
