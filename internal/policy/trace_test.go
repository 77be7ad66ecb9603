package policy

import (
	"reflect"
	"testing"
)

// TestDecisionStrings pins every line a decision renders as, byte for
// byte: the golden traces are these lines, and a reworded one would
// invalidate all of them. Spec is never rendered.
func TestDecisionStrings(t *testing.T) {
	for _, tc := range []struct {
		d    Decision
		want string
	}{
		{Decision{Kind: KindTask, Spec: 7, Key: "task-7", Worker: "w0001", Stages: 2}, "task key=task-7 worker=w0001 stages=2"},
		{Decision{Kind: KindPlace, Spec: 9, Lib: "lnni", Worker: "w0002"}, "place lib=lnni worker=w0002"},
		{Decision{Kind: KindDeploy, Lib: "lnni", Worker: "w0003", Stages: 1, Evict: "old,older"}, "deploy lib=lnni worker=w0003 stages=1 evict=[old,older]"},
		{Decision{Kind: KindDeploy, Lib: "lnni", Worker: "w0003"}, "deploy lib=lnni worker=w0003 stages=0 evict=[]"},
		{Decision{Kind: KindAdmit, Spec: 3, Tenant: "acme", Verdict: AdmitShed, Reason: "queue-full"}, "admit tenant=acme verdict=shed reason=queue-full"},
		{Decision{Kind: KindTenant, Tenant: "acme", VTime: 720720, Queued: 3}, "tenant pick=acme v=720720 queued=3"},
		{Decision{Kind: KindOwn, Obj: "ref-a", Worker: "w0001", Size: 1 << 20}, "own obj=ref-a worker=w0001 size=1048576"},
		{Decision{Kind: KindSpill, Obj: "ref-a", Worker: "w0001"}, "spill obj=ref-a worker=w0001 tier=shared"},
		{Decision{Kind: KindResolve, Obj: "ref-a", Dst: "w0002", Mode: ResolvePeer.String(), Src: "w0001"}, "resolve obj=ref-a dst=w0002 mode=peer src=w0001"},
		{Decision{Kind: KindResolve, Obj: "ref-a", Dst: "w0002", Mode: ResolveShared.String()}, "resolve obj=ref-a dst=w0002 mode=shared"},
		{Decision{Kind: KindResolve, Obj: "ref-a", Dst: "w0002", Mode: ResolveDirect.String()}, "resolve obj=ref-a dst=w0002 mode=direct"},
		{Decision{Kind: KindResolve, Obj: "ref-a", Dst: "w0002", Mode: ResolveLost.String()}, "resolve obj=ref-a dst=w0002 mode=lost"},
		{Decision{Kind: KindResolve, Obj: "ref-a", Dst: "w0002", Mode: ResolveReady.String()}, "resolve obj=ref-a dst=w0002 mode=ready"},
		{Decision{Kind: KindPromote, Obj: "ref-a", Worker: "w0002"}, "promote obj=ref-a worker=w0002"},
		{Decision{Kind: KindRehome, Obj: "ref-b", Worker: "w0003"}, "rehome obj=ref-b owner=w0003"},
		{Decision{Kind: KindRehome, Obj: "ref-b", Mode: ResolveShared.String()}, "rehome obj=ref-b tier=shared"},
		{Decision{Kind: KindRehome, Obj: "ref-b", Mode: ResolveLost.String()}, "rehome obj=ref-b lost"},
		{Decision{Kind: KindStage, Obj: "env", Dst: "w0002", Mode: StagePeer.String(), Src: "w0001"}, "stage obj=env dst=w0002 mode=peer src=w0001"},
		{Decision{Kind: KindStage, Obj: "ref-a", Dst: "w0002", Mode: StageRef.String()}, "stage obj=ref-a dst=w0002 mode=ref"},
		{Decision{Kind: KindStage, Obj: "env", Dst: "w0002", Mode: StageDirect.String()}, "stage obj=env dst=w0002 mode=direct"},
		{Decision{}, "decision kind=0"},
	} {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("%#v renders\n  %q, want\n  %q", tc.d, got, tc.want)
		}
	}
	if got, want := Dump([]Decision{{Kind: KindPlace, Lib: "a", Worker: "w"}, {Kind: KindPromote, Obj: "o", Worker: "w"}}), "place lib=a worker=w\npromote obj=o worker=w\n"; got != want {
		t.Errorf("Dump = %q, want %q", got, want)
	}
}

// TestDecisionFieldKinds holds Decision to plain values. A float renders
// through shortest-float rounding, a map in iteration order, a pointer
// as an address, an interface as whatever it holds: none of them may
// reach a trace. Comparability keeps the differential harness's == a
// whole-value comparison.
func TestDecisionFieldKinds(t *testing.T) {
	typ := reflect.TypeOf(Decision{})
	if !typ.Comparable() {
		t.Fatalf("Decision is not comparable")
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.String, reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Decision.%s is a %s: a decision holds only strings, integers and booleans", f.Name, f.Type.Kind())
		}
	}
}

// TestNilRecorderRecordsNothing: call sites record unconditionally, so
// a nil recorder must take a Decision and allocate nothing.
func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	sf := StageFile{Dst: &WorkerView{ID: "w1"}, Object: "env", Mode: StageDirect}
	if n := testing.AllocsPerRun(100, func() {
		rec.Record(Decision{Kind: KindStage, Obj: sf.Object, Dst: sf.Dst.ID, Mode: sf.Mode.String()})
	}); n != 0 {
		t.Fatalf("recording into a nil recorder allocates %v times", n)
	}
}
