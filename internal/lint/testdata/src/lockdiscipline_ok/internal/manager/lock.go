// Package manager is a clean fixture for lock hygiene: work happens
// after release, sends under the lock are non-blocking selects,
// goroutine bodies are their own lock frames, and decoding a frame
// does no I/O.
package manager

import (
	"sync"

	"repro/internal/proto"
)

type state struct {
	mu   sync.Mutex
	out  chan int
	n    int
	last proto.FileAck
}

func (s *state) IncThenSend() {
	s.mu.Lock()
	s.n++
	v := s.n
	s.mu.Unlock()
	s.out <- v
}

func (s *state) TryNotify() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.out <- s.n: // non-blocking: the select has a default
	default:
	}
}

func (s *state) Spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.out <- 1 // runs after the region, in its own frame
	}()
}

func (s *state) Branchy(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		s.out <- 1
		return
	}
	s.mu.Unlock()
}

func (s *state) DecodeUnderLock(raw []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ack, err := proto.DecodeFileAck(raw) // a decoder is pure: no finding
	s.last = ack
	return err
}
