// Package shardplane is the clean mirrorparity fixture's shared core:
// both engines are its shells, so the entry point only it names counts
// as reached by each of them.
package shardplane

import policy "repro/internal/lint/testdata/src/mirrorparity_ok/internal/policy"

// Pass places n invocations through the core's own batch call.
func Pass(v *policy.View, n int) int {
	return len(v.PlaceCore(n))
}
