package policy

import (
	"reflect"
	"testing"
)

// TestRefOwnershipAndSpill pins the ownership-transfer and
// oldest-first spill order under a tight owned-bytes cap.
func TestRefOwnershipAndSpill(t *testing.T) {
	rec := &Recorder{}
	tab := NewRefTable(100)
	if sp := tab.NoteRefResult("w1", "a", "a.out", 60, rec); sp != nil {
		t.Fatalf("unexpected spills: %v", sp)
	}
	if sp := tab.NoteRefResult("w1", "b", "b.out", 30, rec); sp != nil {
		t.Fatalf("unexpected spills: %v", sp)
	}
	// Third result overflows the cap: the oldest (a) spills.
	sp := tab.NoteRefResult("w1", "c", "c.out", 50, rec)
	if len(sp) != 1 || sp[0].ID != "a" {
		t.Fatalf("want spill of a, got %v", sp)
	}
	if ref := tab.Get("a"); !ref.Spilled || ref.Owner != "" || ref.Holders["w1"] {
		t.Fatalf("spilled ref state wrong: %+v", ref)
	}
	if got := tab.OwnedBytes("w1"); got != 80 {
		t.Fatalf("owned bytes after spill = %d, want 80", got)
	}
	want := []string{
		"own obj=a worker=w1 size=60",
		"own obj=b worker=w1 size=30",
		"own obj=c worker=w1 size=50",
		"spill obj=a worker=w1 tier=shared",
	}
	if !reflect.DeepEqual(rec.Decisions, want) {
		t.Fatalf("trace = %q, want %q", rec.Decisions, want)
	}
}

// TestRefResolveModes walks every resolve mode: peer from the min-ID
// holder with sorted alternates, shared-tier promote on re-use, the
// catalog last resort, and lost.
func TestRefResolveModes(t *testing.T) {
	rec := &Recorder{}
	tab := NewRefTable(0)
	tab.NoteRefResult("w3", "a", "a.out", 10, rec)
	tab.AddRefHolder("w2", "a")
	tab.AddRefHolder("w4", "a")

	d := tab.PlanResolve("w9", "a", false, rec)
	if d.Mode != ResolvePeer || d.Src != "w2" {
		t.Fatalf("want peer from w2, got %+v", d)
	}
	if !reflect.DeepEqual(d.Alts, []string{"w3", "w4"}) {
		t.Fatalf("alts = %v", d.Alts)
	}
	// Same-worker resolve is a no-op ready.
	if d := tab.PlanResolve("w2", "a", false, rec); d.Mode != ResolveReady {
		t.Fatalf("want ready, got %+v", d)
	}
	// Unknown ref: direct when the catalog can restage, lost otherwise.
	if d := tab.PlanResolve("w1", "zzz", true, rec); d.Mode != ResolveDirect {
		t.Fatalf("want direct, got %+v", d)
	}
	if d := tab.PlanResolve("w1", "zzz", false, rec); d.Mode != ResolveLost {
		t.Fatalf("want lost, got %+v", d)
	}

	// Spill a's every replica away, then resolve: shared + promote.
	tab.DropRefHolder("w2", "a")
	tab.DropRefHolder("w4", "a")
	tab.Get("a").Spilled = true
	tab.Get("a").Owner = ""
	tab.DropRefHolder("w3", "a")
	d = tab.PlanResolve("w7", "a", false, rec)
	if d.Mode != ResolveShared || !d.Promote {
		t.Fatalf("want shared promote, got %+v", d)
	}
	if ref := tab.Get("a"); ref.Owner != "w7" || !ref.Holders["w7"] {
		t.Fatalf("promote did not re-home: %+v", ref)
	}
}

// TestRefRehome pins owner-death semantics: re-home to the min-ID
// surviving holder, fall back to the shared tier, or declare lost —
// in ownership (completion) order.
func TestRefRehome(t *testing.T) {
	rec := &Recorder{}
	tab := NewRefTable(0)
	tab.NoteRefResult("w1", "a", "a.out", 10, rec) // will re-home to w5
	tab.NoteRefResult("w1", "b", "b.out", 10, rec) // will be lost
	tab.NoteRefResult("w1", "c", "c.out", 10, rec) // will fall back to shared
	tab.AddRefHolder("w5", "a")
	tab.AddRefHolder("w6", "a")
	tab.Get("c").Spilled = true

	rhs := tab.PlanRehome("w1", rec)
	if len(rhs) != 3 {
		t.Fatalf("want 3 rehomes, got %v", rhs)
	}
	if rhs[0].Owner != "w5" || rhs[1].Lost != true || rhs[2].Shared != true {
		t.Fatalf("rehome fates wrong: %+v", rhs)
	}
	if tab.Get("a").Owner != "w5" {
		t.Fatalf("a owner = %q", tab.Get("a").Owner)
	}
	if got := tab.OwnedBytes("w5"); got != 10 {
		t.Fatalf("new owner charge = %d", got)
	}
	if tab.OwnedBytes("w1") != 0 {
		t.Fatalf("dead owner still charged %d", tab.OwnedBytes("w1"))
	}
	// A second death with nothing tracked is a silent no-op.
	if rhs := tab.PlanRehome("w1", rec); rhs != nil {
		t.Fatalf("unexpected rehomes: %v", rhs)
	}
	tail := rec.Decisions[len(rec.Decisions)-3:]
	want := []string{"rehome obj=a owner=w5", "rehome obj=b lost", "rehome obj=c tier=shared"}
	if !reflect.DeepEqual(tail, want) {
		t.Fatalf("trace tail = %q, want %q", tail, want)
	}
}

// TestRefRestage pins the failed-fetch recovery: every non-owner holder
// is retracted (untraced) and the fresh resolve lands on the owner —
// the only replica with a durability guarantee — then, with the owner
// gone too, on lost; an untracked ID changes and records nothing.
func TestRefRestage(t *testing.T) {
	rec := &Recorder{}
	tab := NewRefTable(0)
	tab.NoteRefResult("w3", "a", "a.out", 10, rec)
	tab.AddRefHolder("w2", "a")
	tab.AddRefHolder("w4", "a")

	d, name, tracked := tab.PlanRestage("w9", "a", false, rec)
	if !tracked || name != "a.out" || d.Mode != ResolvePeer || d.Src != "w3" || d.Size != 10 || len(d.Alts) != 0 {
		t.Fatalf("want a tracked peer resolve from owner w3 with no alternates, got %+v name=%q tracked=%v", d, name, tracked)
	}
	if ref := tab.Get("a"); len(ref.Holders) != 1 || !ref.Holders["w3"] {
		t.Fatalf("non-owner holders survived the restage: %v", ref.Holders)
	}
	tab.DropRefHolder("w3", "a")
	if d, _, tracked := tab.PlanRestage("w9", "a", false, rec); !tracked || d.Mode != ResolveLost {
		t.Fatalf("want tracked lost, got %+v tracked=%v", d, tracked)
	}
	n := len(rec.Decisions)
	if d, name, tracked := tab.PlanRestage("w9", "zzz", true, rec); tracked || name != "" || d.Mode != ResolveReady || len(rec.Decisions) != n {
		t.Fatalf("an untracked ID must be a silent no-op, got %+v name=%q tracked=%v", d, name, tracked)
	}
	want := []string{
		"own obj=a worker=w3 size=10",
		"resolve obj=a dst=w9 mode=peer src=w3",
		"resolve obj=a dst=w9 mode=lost",
	}
	if !reflect.DeepEqual(rec.Decisions, want) {
		t.Fatalf("trace = %q, want %q", rec.Decisions, want)
	}
}
