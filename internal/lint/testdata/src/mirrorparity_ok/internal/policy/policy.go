// Package policy is a clean fixture for mirrorparity: every decision
// entry point is reachable from both engines — directly, or through a
// policy-internal call chain (the batch-wrapper shape, or the methods
// of a generic type each engine instantiates with its own item, or from
// the shared core both engines drive) — and the one deliberately
// one-sided entry carries a justified pragma.
package policy

// View is the decision substrate.
type View struct{ Workers []string }

// Decision is one placement.
type Decision struct{ Worker string }

// Recorder mirrors the real policy Recorder shape.
type Recorder struct{ Decisions []string }

// PlanThing is referenced by neither engine directly: both reach it
// through PlanBatch, which must count as parity.
func (v *View) PlanThing(key string) Decision {
	return v.pickFirst(key)
}

// PlanBatch is the entry both engines actually call.
func (v *View) PlanBatch(keys []string) []Decision {
	out := make([]Decision, 0, len(keys))
	for _, k := range keys {
		out = append(out, v.PlanThing(k))
	}
	return out
}

// NoteThing records a decision; the *Recorder parameter marks it as a
// decision entry point, and both engines call it.
func NoteThing(rec *Recorder, line string) {
	rec.Decisions = append(rec.Decisions, line)
}

//vinelint:ignore mirrorparity backoff timing is real-engine-only; the untimed replay never waits
func PickDelay(attempt int) int {
	return attempt * 2
}

// PlaceCore is named by neither engine, only by the shared core both
// are shells of (internal/shardplane), which must count as parity.
func (v *View) PlaceCore(n int) []Decision {
	return make([]Decision, min(n, len(v.Workers)))
}

// Helper is exported but not a decision entry point (no decision
// prefix, no Recorder parameter): one-sided use is fine.
func Helper() int { return 1 }

func (v *View) pickFirst(string) Decision {
	if len(v.Workers) == 0 {
		return Decision{}
	}
	return Decision{Worker: v.Workers[0]}
}

// Plane is the generic-plane shape: the engines call Submit on their
// own instantiations, and AdmitOne and NextOne are reached only
// through its body.
type Plane[T any] struct{ queue []T }

// NewPlane is called with an explicit instantiation by both engines.
func NewPlane[T any](rec *Recorder) *Plane[T] {
	NoteThing(rec, "plane")
	return &Plane[T]{}
}

// Submit admits, queues and drains.
func (p *Plane[T]) Submit(item T, route func(T)) {
	if !AdmitOne(len(p.queue)) {
		return
	}
	p.queue = append(p.queue, item)
	p.drain(route)
}

func (p *Plane[T]) drain(route func(T)) {
	for NextOne(len(p.queue)) >= 0 {
		route(p.queue[0])
		p.queue = p.queue[1:]
	}
}

// AdmitOne is a decision entry point no engine names.
func AdmitOne(queued int) bool { return queued < 8 }

// NextOne is a decision entry point no engine names.
func NextOne(queued int) int { return queued - 1 }
