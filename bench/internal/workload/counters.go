package workload

import "repro/taskvine"

// The counters the engine's layers expose and the benchmark reads:
// manager.Stats, each local worker's worker.Stats (with its
// dataplane.Stats) and the shared filesystem's read totals.
const (
	cDirect = iota
	cPeer
	cRetries // Retries + Requeued + Restaged
	cPasses
	cCoalesced
	cRefTransfers
	cBytesThroughMgr
	cFrames
	cFlushes
	cFetches
	cDeduped
	cAltRetries
	cProtoErrors
	cFSReads
	cFSBytes
	nCounters
)

// counters is one reading; deltas over the traced phase become the
// counter-based per-layer metrics.
type counters [nCounters]int64

// readCounters reads a live cluster's counters.
func readCounters(m *taskvine.Manager) counters {
	var c counters
	s := m.Stats()
	c[cDirect], c[cPeer] = s.DirectTransfers, s.PeerTransfers
	c[cRetries] = s.Retries + s.Requeued + s.Restaged
	c[cPasses], c[cCoalesced] = s.SchedulePasses, s.CoalescedWakeups
	c[cRefTransfers], c[cBytesThroughMgr] = s.RefTransfers, s.BytesThroughManager
	c[cFrames], c[cFlushes] = s.FramesSent, s.FlushBatches
	for _, w := range m.LocalWorkers() {
		ws := w.Stats()
		c[cFetches] += ws.Data.Fetches
		c[cDeduped] += ws.Data.Deduped
		c[cAltRetries] += ws.Data.AltSourceRetries
		c[cProtoErrors] += ws.ProtocolErrors
	}
	c[cFSReads], c[cFSBytes] = m.SharedFS().Stats()
	return c
}

// add accumulates o into c (context_cold sums its short-lived
// clusters).
func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

// sub returns c - b.
func (c counters) sub(b counters) counters {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

// perOp turns a delta into the counter-based per-layer metrics.
func (c counters) perOp(ops int, out map[string]float64) {
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	n := int64(ops)
	out["manager.schedule_passes_per_kop"] = 1000 * ratio(c[cPasses], n)
	out["manager.coalesced_wakeups_per_kop"] = 1000 * ratio(c[cCoalesced], n)
	out["manager.frames_per_flush"] = ratio(c[cFrames], c[cFlushes])
	out["manager.retries_per_kop"] = 1000 * ratio(c[cRetries], n)
	peer := c[cPeer] + c[cRefTransfers] // worker-to-worker, plain files and proxy objects alike
	out["manager.peer_share"] = ratio(peer, peer+c[cDirect])
	out["manager.bytes_through_mgr_per_op"] = ratio(c[cBytesThroughMgr], n)
	out["manager.ref_transfers_per_kop"] = 1000 * ratio(c[cRefTransfers], n)
	out["worker.proto_errors"] = float64(c[cProtoErrors])
	out["dataplane.fetches_per_kop"] = 1000 * ratio(c[cFetches], n)
	out["dataplane.deduped_per_kop"] = 1000 * ratio(c[cDeduped], n)
	out["dataplane.alt_source_retries"] = float64(c[cAltRetries])
	out["sharedfs.reads_per_op"] = ratio(c[cFSReads], n)
	out["sharedfs.kb_per_op"] = ratio(c[cFSBytes], n) / 1024
}
