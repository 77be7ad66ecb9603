// Package core defines the function-centric abstractions the paper
// introduces (§2): functions with discoverable reusable contexts,
// lightweight invocations bound to those contexts, libraries (the
// daemon tasks that retain contexts on workers), and the three levels
// of context reuse evaluated in §4. These types are shared by the real
// distributed engine (internal/manager, internal/worker,
// internal/library) and by the scale simulator (internal/sim).
package core

import (
	"fmt"

	"repro/internal/content"
)

// ReuseLevel is the degree of context reuse, as defined in §4.2.
type ReuseLevel int

const (
	// L1 is no context reuse: invocations run as stateless tasks that
	// pull code, data, and dependencies from the shared filesystem on
	// every execution.
	L1 ReuseLevel = 1 + iota
	// L2 is context reuse on disk: data and dependencies are fetched
	// and cached once per worker; invocations still reconstruct
	// in-memory state each time.
	L2
	// L3 is context reuse on disk and in memory: a library process
	// retains the loaded context, and invocations bring only arguments.
	L3
)

func (l ReuseLevel) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	}
	return fmt.Sprintf("ReuseLevel(%d)", int(l))
}

// Resources is a task or library resource allocation. Zero fields mean
// "take the worker's default share".
type Resources struct {
	Cores    int
	MemoryMB int64
	DiskMB   int64
}

// Fits reports whether r fits within available.
func (r Resources) Fits(available Resources) bool {
	return r.Cores <= available.Cores &&
		r.MemoryMB <= available.MemoryMB &&
		r.DiskMB <= available.DiskMB
}

// Sub subtracts u from r.
func (r Resources) Sub(u Resources) Resources {
	return Resources{Cores: r.Cores - u.Cores, MemoryMB: r.MemoryMB - u.MemoryMB, DiskMB: r.DiskMB - u.DiskMB}
}

// Add sums two resource vectors.
func (r Resources) Add(u Resources) Resources {
	return Resources{Cores: r.Cores + u.Cores, MemoryMB: r.MemoryMB + u.MemoryMB, DiskMB: r.DiskMB + u.DiskMB}
}

// FileSpec is an input binding: a content-addressed object plus the
// data-to-invocation / data-to-worker binding flags of §2.2.1.
type FileSpec struct {
	Object *content.Object
	// Cache keeps the object in the worker's cache after the task ends
	// (the data-to-worker binding).
	Cache bool
	// PeerTransfer allows the object to be fetched from other workers
	// instead of only the manager (§2.2.2, Figure 3b).
	PeerTransfer bool
	// Unpack expands a Tarball into a reusable directory on arrival.
	Unpack bool
	// ByRef marks a proxy-object input: Object carries only metadata
	// (ID, name, size) and the bytes live wherever the ref's owner
	// holds them — the manager resolves the input through the ref
	// catalog (peer fetch or shared tier) and can never stage it from
	// its own link unless its catalog happens to hold the bytes.
	ByRef bool
}

// Storage tiers for proxy objects. TierCache is a worker's local
// object cache (fast, evictable under pressure); TierShared is the
// cluster shared filesystem (slow, effectively unbounded), the spill
// target when an owner's cache budget overflows.
const (
	TierCache = iota
	TierShared
)

// ObjectRef is a proxy handle to a result object retained in the
// cluster instead of shipped through the manager: the content ID and
// size travel in the result, the bytes stay on the producing worker —
// the owner/holder of record — until a consumer resolves them.
type ObjectRef struct {
	// ID is the content address (or logical ID) of the object.
	ID string
	// Name is the object's human-readable name in worker sandboxes.
	Name string
	// Size is the object's logical size in bytes.
	Size int64
	// Owner is the worker ID of the holder of record; empty when the
	// object's only copy lives in the shared tier.
	Owner string
	// Tier is where the authoritative copy lives (TierCache on the
	// owner, or TierShared after a spill).
	Tier int
}

// RefSpec builds the input binding for a proxy-object result: cached,
// peer-transferable, resolved through the ref catalog.
func RefSpec(ref *ObjectRef) FileSpec {
	return FileSpec{
		Object:       &content.Object{ID: ref.ID, Name: ref.Name, LogicalSize: ref.Size},
		Cache:        true,
		PeerTransfer: true,
		ByRef:        true,
	}
}

// TaskSpec is a stateless task (Table 1, row 1): a self-contained
// MiniPy script plus its input files. Tasks carry everything with them
// and can run on any worker.
type TaskSpec struct {
	ID int64
	// Script is the MiniPy program executed in the task sandbox. Its
	// final expression statement's value, bound to `result` by the
	// script, is pickled and returned.
	Script string
	Inputs []FileSpec
	// SharedFSReads lists content objects the script pulls from the
	// shared filesystem at startup (the L1 pattern); sizes drive shared
	// FS contention in the simulator, and the real engine fetches them
	// from its shared FS stand-in.
	SharedFSReads []FileSpec
	Resources     Resources
	// TenantID names the submitting tenant. Empty — the zero value —
	// bypasses the submission plane entirely: single-tenant callers are
	// untouched by tenancy.
	TenantID string
	// ResultByRef asks the worker to retain the result bytes in its own
	// data plane (as an owned object) and return a proxy ObjectRef in
	// place of the inline value — the pass-by-reference data plane: the
	// result never transits the manager.
	ResultByRef bool
}

// ExecMode selects how a library executes an invocation (§3.4 step 4).
type ExecMode int

const (
	// ExecDirect runs the invocation synchronously inside the library's
	// own memory space.
	ExecDirect ExecMode = iota
	// ExecFork clones the library state (copy-on-write style) and runs
	// the invocation concurrently in the child.
	ExecFork
)

func (m ExecMode) String() string {
	if m == ExecFork {
		return "fork"
	}
	return "direct"
}

// FunctionSpec is one function hosted by a library: its name plus the
// discovered code in one of the two forms of §3.2 (plain source when
// extractable, a pickled code object otherwise).
type FunctionSpec struct {
	Name string
	// Source is the function's source text, when inspect-style
	// extraction succeeded. The worker defines it by name.
	Source string
	// Pickled is the cloudpickle-style serialized function object, used
	// when Source is empty (lambdas, dynamically built functions).
	Pickled []byte
}

// LibrarySpec is the "library" special task of §3.4: a named bundle of
// functions, their context (environment tarball, shared input data,
// and an optional setup function), and the resource/slot policy of
// §3.5.2.
type LibrarySpec struct {
	Name      string
	Functions []FunctionSpec
	// ContextSetup is the pickled environment-setup function H (§3.2);
	// nil if the library needs no setup beyond imports.
	ContextSetup []byte
	// ContextArgs is the pickled argument list for ContextSetup.
	ContextArgs []byte
	// Env is the packed software environment (conda-pack tarball
	// equivalent); nil means the bare interpreter suffices.
	Env *FileSpec
	// Inputs are shareable input data bound to the context.
	Inputs []FileSpec
	// Slots is the number of concurrent invocations the library serves
	// (§3.5.2); minimum 1.
	Slots int
	// Mode selects direct or fork execution for invocations.
	Mode ExecMode
	// Resources is the library's fixed allocation on a worker. Zero
	// means "take the whole worker".
	Resources Resources
}

// SlotCount returns the effective slot count (at least 1).
func (ls *LibrarySpec) SlotCount() int {
	if ls.Slots < 1 {
		return 1
	}
	return ls.Slots
}

// InvocationSpec is a FunctionCall (Table 1, row 2): a stateful
// invocation that requires a worker already hosting its function's
// library and brings only its arguments.
type InvocationSpec struct {
	ID       int64
	Library  string
	Function string
	// Args is the pickled argument tuple.
	Args []byte
	// TenantID names the submitting tenant. Empty — the zero value —
	// bypasses the submission plane entirely: single-tenant callers are
	// untouched by tenancy.
	TenantID string
}

// Tenant names the submitting tenant, whose quota the dispatch plane
// holds for the invocation.
func (inv *InvocationSpec) Tenant() string { return inv.TenantID }

// Result is the outcome of a task or invocation.
type Result struct {
	ID int64
	Ok bool
	// Err is the error message if !Ok.
	Err string
	// Retryable marks a failure as infrastructure-caused (staging
	// races, lost files, missing libraries) rather than an error in the
	// submitted code, so the manager may retry it on another placement.
	Retryable bool `json:"retryable,omitempty"`
	// Value is the pickled return value if Ok.
	Value []byte
	// Ref, when set, replaces Value: the result bytes stayed on the
	// producing worker as an owned object and this proxy handle is all
	// that travels — completion doubles as the ownership transfer, with
	// the manager only updating its ref catalog.
	Ref *ObjectRef `json:"ref,omitempty"`
	// Metrics is the overhead breakdown recorded along the way.
	Metrics InvocationMetrics
}

// InvocationMetrics is the per-invocation overhead breakdown of §4.7
// (Table 5), in seconds.
type InvocationMetrics struct {
	// TransferTime covers moving the invocation details and its data to
	// the worker.
	TransferTime float64
	// WorkerTime covers the worker-side environment setup (sandbox
	// creation, cache staging, tarball unpacking).
	WorkerTime float64
	// SetupTime covers library/invocation state reconstruction
	// (deserializing objects, context setup execution).
	SetupTime float64
	// ExecTime is the function's own execution time.
	ExecTime float64
	// WorkerID records where the work ran.
	WorkerID string
	// LibraryInstance records which library instance served the
	// invocation (share-value accounting, Figures 10-11); empty for
	// plain tasks.
	LibraryInstance string
}

// Total returns the end-to-end time of the breakdown.
func (m InvocationMetrics) Total() float64 {
	return m.TransferTime + m.WorkerTime + m.SetupTime + m.ExecTime
}
