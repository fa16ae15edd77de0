// Package tune is a golden fixture for the lockhold analyzer: its
// import path suffix matches the scoped tune package, where the
// off-lock compute discipline is the design contract.
package tune

import (
	"encoding/json"
	"os"
	"sync"
)

type store struct {
	mu    sync.Mutex
	state map[string]int
}

// Marshal under the lock stalls every waiter for the duration.
func (s *store) badSnapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(s.state) // want `call to encoding/json.Marshal while holding s.mu`
}

// The off-lock discipline: copy under the lock, marshal outside it.
func (s *store) goodSnapshot() ([]byte, error) {
	s.mu.Lock()
	cp := make(map[string]int, len(s.state))
	for k, v := range s.state {
		cp[k] = v
	}
	s.mu.Unlock()
	return json.Marshal(cp)
}

// A function literal is checked as a function of its own: the hold
// is flagged inside the closure that takes the lock.
func (s *store) snapshotter() func() ([]byte, error) {
	return func() ([]byte, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return json.Marshal(s.state) // want `call to encoding/json.Marshal while holding s.mu`
	}
}

// A closure made under the lock runs after it is released: its body is
// not work done while holding the lock.
func (s *store) swap(next map[string]int) func() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.state
	s.state = next
	return func() ([]byte, error) { return json.Marshal(prev) }
}

type cache struct {
	mu sync.RWMutex
}

// File I/O under an RWMutex read lock blocks every writer.
func (c *cache) badRead(path string) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return os.ReadFile(path) // want `call to os.ReadFile while holding c.mu`
}

// An fsync while holding the lock couples every waiter to the disk.
func (s *store) badFlush(f *os.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f.Sync() // want `call to \(\*os\.File\)\.Sync while holding s.mu`
}

type model struct{}

func (m *model) Fit(x []float64) {}

type tuner struct {
	mu sync.Mutex
	m  model
}

// The GP surface is matched by name regardless of receiver.
func (t *tuner) badRefit(x []float64) {
	t.mu.Lock()
	t.m.Fit(x) // want `call to Fit while holding t.mu`
	t.mu.Unlock()
}

// Releasing before the expensive call is the sanctioned shape.
func (t *tuner) goodRefit(x []float64) {
	t.mu.Lock()
	cp := append([]float64(nil), x...)
	t.mu.Unlock()
	t.m.Fit(cp)
}

// An annotated serialization point is suppressed — with a rationale.
func (s *store) annotatedSnapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(s.state) //tunevet:ignore lockhold -- fixture: seq-ordered serialization point; marshal must stay inside it
}
