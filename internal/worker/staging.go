package worker

import (
	"repro/internal/dataplane"
	"repro/internal/proto"
)

// Staging-message handlers: the control loop's entry points into the
// data plane. Each hands the work to dataplane.Plane and returns
// immediately — acks are sent from the plane's completion callbacks,
// never inline in the read loop.

func (w *Worker) ackFile(id string, cache bool, err error) {
	w.ackFileFrom(id, "", cache, err)
}

// ackFileFrom acknowledges a staged file, echoing the peer source the
// transfer was assigned ("" for direct puts) so the manager can return
// the source's outbound transfer slot even if its own fetch record is
// gone.
func (w *Worker) ackFileFrom(id, source string, cache bool, err error) {
	ack := proto.FileAck{ID: id, Ok: err == nil, Cache: cache, Source: source}
	if err != nil {
		ack.Err = err.Error()
	}
	_ = w.conn.Send(proto.MsgFileAck, ack)
}

// handlePutFileBulk stores an object sent over the manager's own link;
// the bytes are the bulk frame's payload. An object not bound to the
// worker (Cache false) is staged for the dispatches that use it and
// goes when the last of them ends.
func (w *Worker) handlePutFileBulk(hdr proto.PutFileHdr, data []byte) {
	obj := hdr.File.Object(data)
	if err := obj.Validate(); err != nil {
		w.ackFile(obj.ID, hdr.Cache, err)
		return
	}
	put := w.plane.PutTransient
	if hdr.Cache {
		put = w.plane.Put
	}
	w.ackFile(obj.ID, hdr.Cache, put(obj, hdr.Unpack))
}

// handleFetchFile hands a peer pull — one edge of the spanning-tree
// broadcast (Figure 3b) — to the data plane and returns immediately;
// the FileAck is sent from the transfer's completion callback.
// Duplicate in-flight requests for the same object share one transfer
// but each still acks with its own Source echo.
func (w *Worker) handleFetchFile(msg proto.FetchFile) {
	req := dataplane.Request{
		ID: msg.ID, Addr: msg.FromAddr, AltAddrs: msg.AltAddrs,
		Unpack: msg.Unpack, Shared: msg.Shared, Own: msg.Own,
	}
	w.plane.Fetch(req, func(err error) {
		w.ackFileFrom(msg.ID, msg.Source, msg.Cache, err)
	})
}

// handleSpillObject demotes an owned ref to the shared tier. The
// manager re-tiered its catalog at decision time; failure here is
// surfaced as a log line — the shared copy simply never materializes
// and a later resolve walks the remaining replicas.
func (w *Worker) handleSpillObject(msg proto.SpillObject) {
	if err := w.plane.Spill(msg.ID); err != nil {
		w.sendMsg(proto.MsgLog, proto.LogMsg{Worker: w.cfg.ID, Text: "spill: " + err.Error()})
	}
}

// handleOwnObject adopts a replica as this worker's owned copy after
// the previous owner died.
func (w *Worker) handleOwnObject(msg proto.OwnObject) {
	if err := w.plane.AdoptOwned(msg.ID); err != nil {
		w.sendMsg(proto.MsgLog, proto.LogMsg{Worker: w.cfg.ID, Text: "own: " + err.Error()})
	}
}
