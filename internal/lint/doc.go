// Package lint is vinelint: a suite of static analyzers that
// mechanically enforce the repo's determinism, purity, and concurrency
// invariants — the contracts the fidelity harness (DESIGN.md §9), the
// failure model (§7), and the worker layering (§10) rest on but that
// nothing else checks.
//
// The analyzers:
//
//   - policypurity: internal/policy must stay a pure decision core —
//     no time, math/rand, os, sync, or internal/proto imports, no
//     package-level mutable state, and no path in its call graph that
//     reaches time.Now or math/rand.
//   - mapdeterminism: no raw `for range` over a map in the packages
//     whose iteration order can leak into a policy decision, a trace
//     line, an eviction order, or wire output (internal/policy,
//     internal/manager, internal/sim, internal/experiments). Iterate a
//     sorted key slice (core.SortedKeys) or justify the loop with a
//     `//vinelint:unordered <why>` pragma.
//   - lockdiscipline: in internal/manager, internal/shardplane,
//     internal/worker, and internal/dataplane, no channel sends, proto writes, or blocking
//     network I/O while a sync.Mutex/RWMutex is held, and no Lock()
//     without a dominating Unlock or defer in the same function.
//   - ctxdeadline: peer/network I/O in internal/worker and
//     internal/dataplane must be deadline-armed — dials bounded by
//     net.DialTimeout/DialContext and framed conns built over
//     proto.WithIdleTimeout (the PR 1 failure-model contract).
//   - pinresolve: executor-layer code (internal/worker) reaches cached
//     objects only through the data plane's Pin/Resolve API, never by
//     calling content.Cache methods or unwrapping Plane.Cache().
//
// A finding is suppressed only by an explicit pragma comment on its
// line (or the line above):
//
//	//vinelint:unordered <justification>      (mapdeterminism only)
//	//vinelint:ignore <analyzer> <justification>
//
// Pragmas require a justification, unknown analyzer names are
// rejected, and a pragma that suppresses nothing is itself an error —
// suppressions cannot rot in place.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer/Pass/Diagnostic and an analysistest-style fixture runner)
// but is built on the standard library's go/ast + go/types only, with
// its own source importer, so the suite runs in hermetic environments
// with an empty module cache.
package lint
