package span

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	var st Store
	op := st.Add(0, 42, "client.op", 0, 1000, 1)
	st.Add(op, 42, "client.submit", 0, 100, 1)
	wait := st.Add(op, 42, "client.wait", 100, 950, 1)
	// Two overlapping children and one that runs past its parent: the
	// overlap is subtracted once, the overrun is clipped.
	st.Add(wait, 42, "worker.stage", 200, 500, 1)
	st.Add(wait, 42, "worker.exec", 400, 700, 1)
	st.Add(wait, 42, "worker.late", 900, 1200, 1)

	self := SelfNs(st.Spans)
	if got := self[op]; got != 1000-100-850 {
		t.Errorf("client.op self time = %d, want 50", got)
	}
	if got := self[wait]; got != 850-500-50 {
		t.Errorf("client.wait self time = %d, want 300 (850 minus [200,700] and [900,950])", got)
	}

	byName := map[string]Agg{}
	for _, a := range Aggregate(st.Spans) {
		byName[a.Name] = a
	}
	if a := byName["client.wait"]; a.Spans != 1 || a.TotalUs != 0.85 || a.SelfUs != 0.3 {
		t.Errorf("client.wait aggregate = %+v", a)
	}
	if a := byName["worker.exec"]; a.SelfUs != a.TotalUs {
		t.Errorf("a leaf's self time must equal its total: %+v", a)
	}
}

func TestAggregateSumsCalls(t *testing.T) {
	var st Store
	st.Add(0, 0, "proto.encode_invoke", 0, 5000, 50000)
	st.Add(0, 0, "proto.encode_invoke", 6000, 10000, 50000)
	aggs := Aggregate(st.Spans)
	if len(aggs) != 1 || aggs[0].Spans != 2 || aggs[0].Calls != 100000 || aggs[0].TotalUs != 9 {
		t.Errorf("aggregate = %+v", aggs)
	}
}

func TestFileWrite(t *testing.T) {
	var st Store
	st.Add(0, 1, "client.op", 10, 20, 1)
	path := filepath.Join(t.TempDir(), "out", "trace-x.json")
	f := File{Workload: "x", Seed: 7, Aggregates: Aggregate(st.Spans), TracedOps: 1, SampledOps: 1, Spans: st.Spans}
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "x" || back.Seed != 7 || len(back.Spans) != 1 || back.Spans[0].Name != "client.op" {
		t.Errorf("read back %+v", back)
	}
}
