package layers

import (
	"testing"
	"time"

	"repro/bench/internal/loadgen"
	"repro/bench/internal/span"
)

// TestRunAllShort runs every probe at a hundredth of its size: each
// must complete, verify what it drove, and report a positive number
// under a span of its own.
func TestRunAllShort(t *testing.T) {
	st := &span.Store{}
	start := time.Now()
	out, err := RunAll(st, loadgen.NewClock(), true)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range out {
		if !(v > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, v)
		}
	}
	if len(st.Spans) < len(out) {
		t.Errorf("%d spans for %d metrics: some probe recorded none", len(st.Spans), len(out))
	}
	t.Logf("%d metrics, %d spans in %v", len(out), len(st.Spans), time.Since(start))
}
