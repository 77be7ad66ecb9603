// Package span is the traced run's in-memory span store. The benchmark
// records spans from outside the program, around its calls into each
// layer; nothing here is linked into the engine. Spans stay in memory
// for the whole run and are written out once, at exit.
package span

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// Span is one timed interval. Spans of one operation share Op (the
// engine's spec ID); Parent is the ID of the span that caused this one
// (0 for a root). Count is the number of calls a driven-layer span
// covers (1 for a per-operation span).
type Span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Op      int64  `json:"op,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.EndNs - s.StartNs }

// Store accumulates spans.
type Store struct {
	Spans []Span
	next  int64
}

// Add appends a span and returns its ID.
func (st *Store) Add(parent, op int64, name string, startNs, endNs, count int64) int64 {
	st.next++
	st.Spans = append(st.Spans, Span{ID: st.next, Parent: parent, Op: op, Name: name, StartNs: startNs, EndNs: endNs, Count: count})
	return st.next
}

// Agg is the per-name roll-up of a set of spans.
type Agg struct {
	Name    string  `json:"name"`
	Spans   int64   `json:"spans"`
	Calls   int64   `json:"calls"`
	TotalUs float64 `json:"total_us"`
	// SelfUs is the total minus the part of each span its children
	// cover: the time spent in the layer itself.
	SelfUs float64 `json:"self_us"`
}

// SelfNs returns each span's self time keyed by span ID: its duration
// minus the part of its interval covered by the union of its children
// (children are clipped to the parent, and overlapping children are
// not subtracted twice).
func SelfNs(spans []Span) map[int64]int64 {
	kids := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].StartNs < ks[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.Dur() - covered
	}
	return self
}

// Aggregate rolls spans up by name, sorted by name.
func Aggregate(spans []Span) []Agg {
	self := SelfNs(spans)
	byName := map[string]*Agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &Agg{Name: s.Name}
			byName[s.Name] = a
		}
		a.Spans++
		a.Calls += s.Count
		a.TotalUs += float64(s.Dur()) / 1e3
		a.SelfUs += float64(self[s.ID]) / 1e3
	}
	out := make([]Agg, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// File is the document a traced run writes.
type File struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Aggregates cover every span recorded; Spans holds the driven-layer
	// spans and the span trees of the first SampledOps operations, so
	// the file stays readable whatever the operation count was.
	Aggregates []Agg  `json:"aggregates"`
	TracedOps  int    `json:"traced_ops"`
	SampledOps int    `json:"sampled_ops"`
	Spans      []Span `json:"spans"`
}

// Write stores the document at path, creating its directory.
func (f *File) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
