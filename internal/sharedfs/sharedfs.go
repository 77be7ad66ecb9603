// Package sharedfs stands in for the cluster's shared filesystem (the
// Panasas ActiveStor 16 of §4.2): the common data storage L1 tasks pull
// code, data, and dependencies from on every execution.
//
// Store is the functional in-process store the real engine's L1 path
// reads from, with operation counters. The simulator charges shared
// filesystem contention through an event.DualFairShare instead.
package sharedfs

import (
	"fmt"
	"sync"

	"repro/internal/content"
)

// Store is a thread-safe shared object store addressed by content ID.
type Store struct {
	mu    sync.Mutex
	byID  map[string]*content.Object
	reads int64
	bytes int64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{byID: map[string]*content.Object{}}
}

// Put stores an object.
func (s *Store) Put(obj *content.Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[obj.ID] = obj
}

// Fetch reads an object by content ID.
func (s *Store) Fetch(id string) (*content.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("sharedfs: no object with id %s", short(id))
	}
	s.reads++
	s.bytes += obj.LogicalSize
	return obj, nil
}

// Stats returns cumulative read count and bytes served.
func (s *Store) Stats() (reads, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads, s.bytes
}

func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
