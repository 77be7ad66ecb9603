package worker

import (
	"time"

	"repro/internal/content"
	"repro/internal/dataplane"
	"repro/internal/proto"
)

// hdrToObject assembles an object from a bulk frame's header and raw
// payload; data is retained as-is, no copy.
func hdrToObject(h proto.FileHdr, data []byte) *content.Object {
	return &content.Object{
		ID:           h.ID,
		Name:         h.Name,
		Kind:         content.Kind(h.Kind),
		Data:         data,
		LogicalSize:  h.LogicalSize,
		UnpackedSize: h.UnpackedSize,
	}
}

// FetchFromPeer requests an object by ID from a worker data server,
// with the default idle timeout on every read and write.
func FetchFromPeer(addr, id string) (*content.Object, error) {
	return fetchFromPeer(addr, id, defaultPeerIOTimeout)
}

// fetchFromPeer delegates to the data plane's wire fetch with an
// explicit idle timeout.
func fetchFromPeer(addr, id string, idle time.Duration) (*content.Object, error) {
	return dataplane.FetchPeer(addr, id, idle)
}
