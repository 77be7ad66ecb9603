// Package manager is the real-engine side of the clean mirrorparity
// fixture.
package manager

import (
	policy "repro/internal/lint/testdata/src/mirrorparity_ok/internal/policy"
	"repro/internal/lint/testdata/src/mirrorparity_ok/internal/shardplane"
)

// Drive plans a batch, records it, schedules a retry, and runs the
// shared core's pass.
func Drive(v *policy.View, rec *policy.Recorder, keys []string) int {
	ds := v.PlanBatch(keys)
	for _, d := range ds {
		policy.NoteThing(rec, d.Worker)
	}
	return policy.PickDelay(len(ds)) + policy.Helper() + shardplane.Pass(v, len(ds))
}

type node struct{ id int }

// Submit submits through the manager's instantiation of the plane.
func Submit(rec *policy.Recorder, id int) {
	p := policy.NewPlane[*node](rec)
	p.Submit(&node{id: id}, func(*node) {})
}
