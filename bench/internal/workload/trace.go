package workload

import (
	"repro/bench/internal/loadgen"
	"repro/bench/internal/span"
	"repro/bench/internal/stats"
	"repro/internal/core"
)

// maxTracedOps bounds the per-operation records a traced phase keeps:
// enough for stable medians, small enough that tracing a
// 200k-operations-per-second workload does not become a memory
// benchmark. Operations past the cap are still run, checked and
// counted; they just leave no span.
const maxTracedOps = 100_000

// opRecord is one traced operation, compact; it expands into a
// client.op span tree only when the trace is written or aggregated.
type opRecord struct {
	id     int64
	seq    int
	fromNs int64 // latency origin: submit time (closed loop) or due time (open loop)
	doneNs int64
	phases [4]float32 // Result.Metrics transfer/stage/setup/exec, microseconds
}

// tracer collects a traced phase's per-operation data. The submitter
// goroutine appends to subStart/subEnd (indexed by sequence number),
// the collector goroutine appends to ops; they are combined only after
// both have finished.
type tracer struct {
	// clock is the time base of every span in the trace; st receives
	// the spans recorded directly (driven layers, set-up stages).
	clock loadgen.Clock
	st    *span.Store

	subStart loadgen.I64List
	subEnd   loadgen.I64List
	ops      []opRecord

	starts, ends []int64 // subStart/subEnd flattened, once both goroutines are done
}

func newTracer() *tracer {
	return &tracer{clock: loadgen.NewClock(), st: &span.Store{}, ops: make([]opRecord, 0, maxTracedOps)}
}

// submitted records the interval of one submit call (submitter side).
func (t *tracer) submitted(startNs, endNs int64) {
	if t == nil {
		return
	}
	t.subStart.Append(startNs)
	t.subEnd.Append(endNs)
}

// submissions is how many submit intervals have been recorded; call it
// only while no submitter is running.
func (t *tracer) submissions() int {
	if t == nil {
		return 0
	}
	return t.subStart.Len()
}

// completed records one result (collector side).
func (t *tracer) completed(seq int, fromNs, doneNs int64, res *core.Result) {
	if t == nil || len(t.ops) >= maxTracedOps {
		return
	}
	m := res.Metrics
	t.ops = append(t.ops, opRecord{
		id: res.ID, seq: seq, fromNs: fromNs, doneNs: doneNs,
		phases: [4]float32{float32(m.TransferTime * 1e6), float32(m.WorkerTime * 1e6), float32(m.SetupTime * 1e6), float32(m.ExecTime * 1e6)},
	})
}

// observed records only a result's worker phases, for a workload whose
// operation is not one engine call (a cold-start cycle makes many).
func (t *tracer) observed(res *core.Result) {
	t.completed(-1, 0, 0, res)
}

var phaseNames = [4]string{"worker.transfer", "worker.stage", "worker.setup", "worker.exec"}

// phases writes the medians of the four Result.Metrics phases — the
// real engine's Table 5 row — into out.
func (t *tracer) phases(out map[string]float64) {
	for i, name := range phaseNames {
		xs := make([]float64, len(t.ops))
		for j := range t.ops {
			xs[j] = float64(t.ops[j].phases[i])
		}
		out[name+"_us"] = stats.Median(xs)
	}
}

// addSpans expands operations [from, to) into span trees in st:
// client.op with children client.submit and client.wait, and the four
// worker phases under client.wait. The phases carry measured durations
// only; they are laid back to back ending at the result time.
func (t *tracer) addSpans(st *span.Store, from, to int) int {
	to = min(to, len(t.ops))
	if from >= to {
		return 0
	}
	if t.starts == nil {
		t.starts, t.ends = t.subStart.Flatten(), t.subEnd.Flatten()
	}
	starts, ends := t.starts, t.ends
	for _, op := range t.ops[from:to] {
		if op.seq < 0 {
			continue // phases only; the workload records its own spans
		}
		root := st.Add(0, op.id, "client.op", op.fromNs, op.doneNs, 1)
		waitFrom := op.fromNs
		if op.seq < len(ends) {
			st.Add(root, op.id, "client.submit", starts[op.seq], ends[op.seq], 1)
			waitFrom = ends[op.seq]
		}
		// A result can overtake the return of its own submit call.
		waitFrom = min(waitFrom, op.doneNs)
		wait := st.Add(root, op.id, "client.wait", waitFrom, op.doneNs, 1)
		var total int64
		for _, us := range op.phases {
			total += int64(us * 1e3)
		}
		at := op.doneNs - total
		for i, us := range op.phases {
			d := int64(us * 1e3)
			if d > 0 {
				st.Add(wait, op.id, phaseNames[i], at, at+d, 1)
			}
			at += d
		}
	}
	return to - from
}

// spans adds the first n operations' span trees to st (the part of the
// trace that is written out) and reports how many were added.
func (t *tracer) spans(st *span.Store, n int) int { return t.addSpans(st, 0, n) }

// restAggregates rolls up the operations from index `from` on, in
// batches, without keeping their spans.
func (t *tracer) restAggregates(from int) []span.Agg {
	var out []span.Agg
	const batch = 5000
	for i := from; i < len(t.ops); i += batch {
		tmp := &span.Store{}
		t.addSpans(tmp, i, i+batch)
		out = mergeAggs(out, span.Aggregate(tmp.Spans))
	}
	return out
}
