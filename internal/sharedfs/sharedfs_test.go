package sharedfs

import (
	"sync"
	"testing"

	"repro/internal/content"
)

func TestStorePutFetch(t *testing.T) {
	s := NewStore()
	obj := content.NewBlob("data.bin", []byte("payload"))
	s.Put(obj)

	got, err := s.Fetch(obj.ID)
	if err != nil || got != obj {
		t.Fatalf("Fetch: %v", err)
	}
	if _, err := s.Fetch("missing"); err == nil {
		t.Errorf("missing ID should fail")
	}
	reads, bytes := s.Stats()
	if reads != 1 || bytes != obj.LogicalSize {
		t.Errorf("stats = %d reads, %d bytes", reads, bytes)
	}
}

// TestStoreNameReplacement: a new version stored under an old name
// replaces nothing; the store is addressed by content, so both
// versions stay readable.
func TestStoreNameReplacement(t *testing.T) {
	s := NewStore()
	a := content.NewBlob("f", []byte("v1"))
	b := content.NewBlob("f", []byte("v2"))
	s.Put(a)
	s.Put(b)
	for _, want := range []*content.Object{a, b} {
		if got, err := s.Fetch(want.ID); err != nil || got != want {
			t.Errorf("version %s lost: %v", want.ID[:8], err)
		}
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	obj := content.NewBlob("c", []byte("shared"))
	s.Put(obj)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := s.Fetch(obj.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	reads, _ := s.Stats()
	if reads != 3200 {
		t.Errorf("reads = %d, want 3200", reads)
	}
}
