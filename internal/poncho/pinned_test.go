package poncho

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// pinnedManifest is the LNNI environment's manifest (resnet's closure,
// as TestPackDeterministicID packs it), as hex.
func pinnedManifest(t *testing.T) string {
	_, data := packed(t, "resnet")
	return fmt.Sprintf("%x\n", data)
}

// TestPinnedManifest: Pack writes exactly the checked-in bytes. The
// manifest is the environment's content ID: the reader may grow
// stricter, the writer may not move a byte.
func TestPinnedManifest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "pinned.hex"))
	if err != nil {
		t.Fatal(err)
	}
	if got := pinnedManifest(t); got != string(want) {
		t.Errorf("the manifest moved:\n got  %s want %s", got, want)
	}
}
