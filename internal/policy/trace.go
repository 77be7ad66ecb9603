package policy

import (
	"fmt"
	"strings"
)

// Kind says what a Decision decided: which of its fields are set, and
// which line it renders as.
type Kind uint8

const (
	// KindTask places a stateless task: Spec, Key, Worker, Stages.
	KindTask Kind = iota + 1
	// KindPlace places an invocation on a ready instance: Spec, Lib,
	// Worker. It carries no free-slot count: the engines agree on which
	// worker runs the invocation, not on when earlier invocations on that
	// worker finished.
	KindPlace
	// KindDeploy deploys a library instance: Lib, Worker, Stages, Evict.
	KindDeploy
	// KindAdmit is one admission-control verdict: Spec, Tenant, Verdict,
	// Reason.
	KindAdmit
	// KindTenant is one fair-share drain pick: Tenant, and its VTime and
	// Queued at pick time, before the pick's own dequeue and charge.
	KindTenant
	// KindOwn makes a ref result's producer its holder of record: Obj,
	// Worker, Size.
	KindOwn
	// KindSpill demotes an owned object to the shared tier: Obj, Worker.
	KindSpill
	// KindResolve is a consumer's ref resolution: Obj, Dst, Mode (a
	// ResolveMode), Src for a peer.
	KindResolve
	// KindPromote brings a shared-tier object back to the cache tier on
	// re-use: Obj, Worker.
	KindPromote
	// KindRehome is one ref's fate after its owner died: Obj, and the new
	// owner in Worker or else Mode "shared" or "lost".
	KindRehome
	// KindStage executes one staging decision: Obj, Dst, Mode (a
	// StageMode), Src for a peer.
	KindStage
)

// Decision is one entry of an engine's decision trace, as plain values.
// Both engines record the same type, the differential harness compares
// the values, and String renders a line only for whoever reads one. Spec
// — the spec number a task, place or admit decision is about — is
// compared but never rendered.
//
// Every field is comparable and renders the same in every run: no
// float, map, pointer or interface field (TestDecisionFieldKinds).
type Decision struct {
	Kind    Kind
	Spec    int64
	Key     string // a task's ring key
	Lib     string
	Obj     string // an object or ref ID
	Worker  string
	Dst     string
	Src     string
	Mode    string
	Stages  int
	Evict   string // a deploy's evicted libraries, comma-joined in plan order
	Tenant  string
	Verdict AdmitVerdict
	Reason  string
	VTime   int64
	Queued  int
	Size    int64
}

// String renders the decision as its trace line, the format the golden
// traces pin.
func (d Decision) String() string {
	switch d.Kind {
	case KindTask:
		return fmt.Sprintf("task key=%s worker=%s stages=%d", d.Key, d.Worker, d.Stages)
	case KindPlace:
		return fmt.Sprintf("place lib=%s worker=%s", d.Lib, d.Worker)
	case KindDeploy:
		return fmt.Sprintf("deploy lib=%s worker=%s stages=%d evict=[%s]", d.Lib, d.Worker, d.Stages, d.Evict)
	case KindAdmit:
		return fmt.Sprintf("admit tenant=%s verdict=%s reason=%s", d.Tenant, d.Verdict, d.Reason)
	case KindTenant:
		return fmt.Sprintf("tenant pick=%s v=%d queued=%d", d.Tenant, d.VTime, d.Queued)
	case KindOwn:
		return fmt.Sprintf("own obj=%s worker=%s size=%d", d.Obj, d.Worker, d.Size)
	case KindSpill:
		return fmt.Sprintf("spill obj=%s worker=%s tier=shared", d.Obj, d.Worker)
	case KindPromote:
		return fmt.Sprintf("promote obj=%s worker=%s", d.Obj, d.Worker)
	case KindRehome:
		switch {
		case d.Worker != "":
			return fmt.Sprintf("rehome obj=%s owner=%s", d.Obj, d.Worker)
		case d.Mode == "shared":
			return fmt.Sprintf("rehome obj=%s tier=shared", d.Obj)
		default:
			return fmt.Sprintf("rehome obj=%s lost", d.Obj)
		}
	case KindResolve, KindStage:
		verb := "resolve"
		if d.Kind == KindStage {
			verb = "stage"
		}
		line := fmt.Sprintf("%s obj=%s dst=%s mode=%s", verb, d.Obj, d.Dst, d.Mode)
		if d.Src != "" {
			line += " src=" + d.Src
		}
		return line
	}
	return fmt.Sprintf("decision kind=%d", d.Kind)
}

// Recorder collects the decision trace of an engine run. The
// differential harness replays one event trace through both engines and
// compares their recorders decision for decision; the golden tests pin
// the seed workloads' traces. A nil *Recorder is valid and records
// nothing, and building a Decision allocates nothing, so call sites
// record unconditionally.
type Recorder struct {
	Decisions []Decision
}

// Record appends one decision.
func (r *Recorder) Record(d Decision) {
	if r != nil {
		r.Decisions = append(r.Decisions, d)
	}
}

// Dump renders a trace one decision per line.
func Dump(ds []Decision) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
