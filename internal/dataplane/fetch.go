package dataplane

import (
	"fmt"
	"net"
	"time"

	"repro/internal/content"
	"repro/internal/proto"
)

// FetchPeer requests an object by ID from a worker data server. It is
// the plane's default FetchFn. The dial, the request write, and every
// read of the response must each make progress within `idle`, so a
// stalled or vanished peer costs a bounded wait instead of wedging the
// fetch forever.
func FetchPeer(addr, id string, idle time.Duration) (*content.Object, error) {
	dial := idle
	if dial <= 0 || dial > 5*time.Second {
		dial = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, dial)
	if err != nil {
		return nil, fmt.Errorf("dataplane: dialing peer %s: %w", addr, err)
	}
	defer nc.Close()
	var obj *content.Object
	proto.OneShot(proto.WithIdleTimeout(nc, idle), func(pc *proto.Conn) {
		obj, err = request(pc, id)
	})
	return obj, err
}

// request asks the peer on pc for one object and validates the answer.
func request(pc *proto.Conn, id string) (*content.Object, error) {
	if err := pc.Send(proto.MsgGetFile, proto.GetFile{ID: id}); err != nil {
		return nil, err
	}
	t, raw, err := pc.Recv()
	if err != nil {
		return nil, fmt.Errorf("dataplane: reading peer response: %w", err)
	}
	switch t {
	case proto.MsgFileDataBulk:
		hdr, payload, err := proto.DecodeFileData(raw)
		if err != nil {
			return nil, err
		}
		// payload is the frame's own buffer, allocated at the frame's exact
		// size — retained as the object's data, the only copy of the bytes
		// this worker will hold.
		obj := hdr.Object(payload)
		if err := obj.Validate(); err != nil {
			return nil, fmt.Errorf("dataplane: peer sent corrupt object: %w", err)
		}
		return obj, nil
	case proto.MsgError:
		msg, err := proto.DecodeString(raw)
		if err != nil {
			return nil, fmt.Errorf("dataplane: decoding peer error: %w", err)
		}
		return nil, fmt.Errorf("dataplane: peer error: %s", msg)
	}
	return nil, fmt.Errorf("dataplane: unexpected peer message %v", t)
}
