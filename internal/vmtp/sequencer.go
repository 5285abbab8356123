package vmtp

import (
	"errors"
	"sync"
)

// ErrReplayed is returned by Sequencer.Admit for a sequence number
// that has already been admitted and completed: the caller should
// acknowledge success without re-applying the side effect (VMTP may
// retry a transaction whose response was lost, so idempotent replay is
// part of the delivery contract).
var ErrReplayed = errors.New("vmtp: sequence already delivered")

// Sequencer serializes out-of-order transaction arrivals into in-order
// side effects. VMTP transactions within a stream may be issued
// concurrently (a send window) and their handlers may run in any
// order; each handler calls Admit(seq) and blocks until every earlier
// sequence number has been applied, applies its effect (e.g. writes
// its bytes to a TCP socket), then calls Done. Abort releases every
// waiter with the given error, for teardown.
//
// Sequence numbers start at 0 and must not wrap; uint32 groups of even
// one byte each bound a stream at 4 Gi effects, far beyond any TCP
// connection this repo relays.
//
// The zero value is ready for use and expects sequence 0 first. A
// Sequencer must not be copied after first use.
type Sequencer struct {
	mu   sync.Mutex
	cond sync.Cond // L is bound to &mu on the first wait
	next uint32
	err  error
}

// Admit blocks until seq is the next in-order sequence number. It
// returns nil when the caller holds its turn (the caller MUST then
// call Done exactly once), ErrReplayed if seq was already delivered,
// or the Abort error.
func (s *Sequencer) Admit(seq uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && seq > s.next {
		if s.cond.L == nil {
			s.cond.L = &s.mu
		}
		s.cond.Wait()
	}
	if s.err != nil {
		return s.err
	}
	if seq < s.next {
		return ErrReplayed
	}
	return nil
}

// Done marks the currently admitted sequence number applied and wakes
// the next waiter.
func (s *Sequencer) Done() {
	s.mu.Lock()
	s.next++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Abort poisons the sequencer: all current and future Admit calls
// return err (the first non-nil error wins).
func (s *Sequencer) Abort(err error) {
	if err == nil {
		err = errors.New("vmtp: sequencer aborted")
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Next returns the next sequence number expected (i.e. how many have
// been delivered).
func (s *Sequencer) Next() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}
