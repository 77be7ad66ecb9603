package proto_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/proto"
)

// bulkWire encodes frames onto one stream, as a peer would send them.
func bulkWire(t testing.TB, send func(c *proto.Conn) error) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := send(proto.NewConn(&wire)); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// FuzzRecvBulk feeds a hostile byte stream to the receive path a worker
// exposes to its manager (RecvReuse) and to unauthenticated peers
// (Recv), bulk frames included. The contract: no panic; what the stream
// makes the receiver allocate stays within a constant factor of the
// bytes it actually supplies, so no length prefix sizes a buffer on its
// own; a bulk payload handed out is not written to by the frames that
// follow; and a bulk frame that decodes re-sends to one that decodes to
// the same header and payload.
func FuzzRecvBulk(f *testing.F) {
	// Small seeds: the engine minimizes every input that reaches new
	// code, one execution per byte it tries to drop.
	payload := []byte("object-bytes")
	put := proto.PutFileHdr{File: proto.FileHdr{ID: "5feceb66", Name: "env.tar.gz", Kind: 1, LogicalSize: 1 << 20, UnpackedSize: 3 << 20}, Cache: true, Unpack: true}
	golden := bulkWire(f, func(c *proto.Conn) error {
		if err := c.SendBulk(proto.MsgPutFileBulk, put, payload); err != nil {
			return err
		}
		if err := c.Send(proto.MsgFileAck, proto.FileAck{ID: put.File.ID, Ok: true}); err != nil {
			return err
		}
		return c.SendBulk(proto.MsgFileDataBulk, put.File, payload[:5])
	})
	f.Add(golden, false)
	f.Add(golden, true)
	f.Add(golden[:len(golden)/2], true)                                                                     // cut inside a payload
	f.Add([]byte{0x20, 0, 0, 0, byte(proto.MsgFileDataBulk)}, false)                                        // MaxFrame claimed, nothing sent
	f.Add(append([]byte{0, 0, 0, 9, byte(proto.MsgPutFileBulk)}, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4), true) // header length past the frame

	f.Fuzz(func(t *testing.T, wire []byte, reuse bool) {
		type kept struct {
			t       proto.MsgType
			raw     []byte
			payload []byte // as handed out
			copied  []byte // as it read when handed out
		}
		var bulks []kept
		drain := func(c *proto.Conn, keep bool) {
			for {
				recv := c.Recv
				if reuse {
					recv = c.RecvReuse
				}
				mt, raw, err := recv()
				if err != nil {
					return
				}
				if mt != proto.MsgPutFileBulk && mt != proto.MsgFileDataBulk {
					continue
				}
				if _, p, err := proto.SplitBulk(raw); err == nil && keep {
					bulks = append(bulks, kept{mt, raw, p, append([]byte(nil), p...)})
				}
			}
		}
		// The read buffers come from OneShot's pool, so a reading holds
		// only what the stream made the receiver allocate. TotalAlloc counts
		// the whole process, the fuzzing engine's own goroutines included;
		// they only ever add, so a reading over the limit is taken again and
		// the least of three is the receiver's.
		reading := func() (d uint64) {
			proto.OneShot(bytes.NewBuffer(wire), func(c *proto.Conn) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				drain(c, false)
				runtime.ReadMemStats(&after)
				d = after.TotalAlloc - before.TotalAlloc
			})
			return d
		}
		// A frame buffer is at most 64 times the body bytes that have
		// arrived, and grows by that factor: 64 + 1 + 1/64 + … < 66.
		limit := uint64(66*len(wire) + 4096)
		least := reading()
		for i := 0; i < 2 && least > limit; i++ {
			if d := reading(); d < least {
				least = d
			}
		}
		if least > limit {
			t.Fatalf("receiving %d bytes allocated %d, limit %d", len(wire), least, limit)
		}

		proto.OneShot(bytes.NewBuffer(wire), func(c *proto.Conn) { drain(c, true) })
		for _, b := range bulks {
			if !bytes.Equal(b.payload, b.copied) {
				t.Fatalf("a %v payload changed after later frames were received", b.t)
			}
			resend(t, b.t, b.raw)
		}
	})
}

// resend checks one received bulk frame body against its re-sent self.
func resend(t *testing.T, mt proto.MsgType, raw []byte) {
	hdr, payload, err := proto.DecodeBulk[json.RawMessage](raw)
	if err != nil {
		return // the header is not JSON: nothing a receiver would act on
	}
	again := bulkWire(t, func(c *proto.Conn) error { return c.SendBulk(mt, hdr, payload) })
	mt2, raw2, err := proto.NewConn(bytes.NewBuffer(again)).Recv()
	if err != nil || mt2 != mt {
		t.Fatalf("re-sent %v frame came back as %v: %v", mt, mt2, err)
	}
	hdr2, payload2, err := proto.DecodeBulk[json.RawMessage](raw2)
	if err != nil {
		t.Fatalf("re-sent %v frame does not decode: %v", mt, err)
	}
	if !bytes.Equal(payload2, payload) {
		t.Fatalf("%v payload moved under re-send: %d bytes became %d", mt, len(payload), len(payload2))
	}
	var a, b bytes.Buffer
	if json.Compact(&a, hdr) != nil || json.Compact(&b, hdr2) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%v header moved under re-send:\n once  %s\n twice %s", mt, hdr, hdr2)
	}
}
