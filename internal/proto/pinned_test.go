package proto_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/proto"
)

// pinnedBodies is one body of every control message, a per-invocation
// frame each way and a task and library spec, as name and hex.
func pinnedBodies(t *testing.T) []string {
	var out []string
	for mt := proto.MsgHello; mt <= proto.MsgOwnObject; mt++ {
		if v, ok := controlSamples[mt]; ok {
			out = append(out, fmt.Sprintf("%v %x", mt, body(t, mt, v)))
		}
	}
	return append(out,
		fmt.Sprintf("invocation %x", body(t, proto.MsgInvoke, &fuzzInvocations[1])),
		fmt.Sprintf("result-ref %x", body(t, proto.MsgResult, &fuzzResults[3])),
		fmt.Sprintf("task %x", body(t, proto.MsgRunTask, &specTasks[1])),
		fmt.Sprintf("library %x", body(t, proto.MsgInstallLibrary, &specLibraries[1])),
	)
}

// TestPinnedBodies: the encoders write exactly the checked-in bytes. A
// decoder may grow stricter, but an encoder that moves a byte strands
// every peer of the previous build.
func TestPinnedBodies(t *testing.T) {
	comparePinned(t, pinnedBodies(t))
}

// comparePinned checks got, line for line, against testdata/pinned.hex.
func comparePinned(t *testing.T, got []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "pinned.hex"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d pinned encodings, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("encoding moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
