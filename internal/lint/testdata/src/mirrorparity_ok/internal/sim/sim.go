// Package sim is the simulator side of the clean mirrorparity fixture:
// it reaches every decision entry point PlanBatch drags in, without
// ever waiting out a retry delay.
package sim

import (
	policy "repro/internal/lint/testdata/src/mirrorparity_ok/internal/policy"
	"repro/internal/lint/testdata/src/mirrorparity_ok/internal/shardplane"
)

// Replay mirrors the manager's decisions, the shared core's pass among
// them.
func Replay(v *policy.View, rec *policy.Recorder, keys []string) {
	for _, d := range v.PlanBatch(keys) {
		policy.NoteThing(rec, d.Worker)
	}
	shardplane.Pass(v, len(keys))
}

// Arrive submits through the simulator's instantiation of the plane.
func Arrive(rec *policy.Recorder, id int) {
	policy.NewPlane[int](rec).Submit(id, func(int) {})
}
