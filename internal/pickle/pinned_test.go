package pickle

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minipy"
)

// pinnedPickles is the first three round-trip functions and the
// round-trip values, as name and hex.
func pinnedPickles(t *testing.T) []string {
	var out []string
	ip := minipy.NewInterp(newHost())
	for _, fn := range fuzzFuncs[:3] {
		env, err := ip.RunModule(fn[0], "__main__")
		if err != nil {
			t.Fatal(err)
		}
		v, _ := env.Get(fn[1])
		data, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("func-%s %x", fn[1], data))
	}
	values := fuzzValues()
	for i, v := range values[:len(values)-2] {
		data, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("value-%d-%s %x", i, v.Type(), data))
	}
	return out
}

// TestPinnedPickles: Marshal writes exactly the checked-in bytes. A
// pickle's bytes are its content ID, and content IDs feed the golden
// decision traces: the decoder may grow stricter, the encoder may not
// move a byte.
func TestPinnedPickles(t *testing.T) {
	got := pinnedPickles(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "pinned.hex"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d pinned pickles, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("encoding moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
