// Package medium models the lossy control-plane transport the ITS
// exchange (§3, Fig. 5) really runs over. The simulator's exchange used
// to be perfectly-reliable function calls; this package puts a real
// medium between the APs so the protocol's failure behaviour — the part
// Table 1's overhead model and §3.1's contention study exist to
// quantify — is actually exercised.
//
// Three implementations share the Medium interface:
//
//   - Perfect: an in-memory queue that delivers every frame intact, in
//     order, with zero delay — bit-for-bit the pre-medium behaviour, so
//     all existing figures are unchanged.
//   - Faulty: a decorator injecting configurable impairments (i.i.d. and
//     Gilbert–Elliott bursty loss, CRC-corrupting bit flips, delay
//     jitter, duplication, reordering) into any inner medium, driven by
//     internal/rng so every run is reproducible.
//   - UDP: real net sockets, one datagram per ITS frame, for running
//     COPA APs as separate processes (cmd/copad).
//
// Timeout semantics differ by clock domain: simulated media (Perfect,
// and Faulty over Perfect) treat Recv timeouts as virtual time — they
// serve queued traffic or fail immediately, never sleeping — while UDP
// blocks in real time. internal/core writes each ITS role once, as a
// step machine that never reads a clock, and drives it in either
// domain: both roles on one goroutine in virtual time over a simulated
// medium, or one role per process blocking on a real one.
package medium

import (
	"errors"
	"sync"
	"time"

	"copa/internal/mac"
)

// ErrTimeout is returned by Recv when no frame for the destination
// arrives within the timeout.
var ErrTimeout = errors.New("medium: receive timeout")

// ErrClosed is returned once a medium has been shut down.
var ErrClosed = errors.New("medium: closed")

// Medium delivers marshaled ITS control frames between stations
// identified by their MAC addresses.
type Medium interface {
	// Send transmits frame from src toward dst. A nil error means the
	// frame was handed to the medium, not that it will arrive: lossy
	// media drop silently, exactly like the air.
	Send(src, dst mac.Addr, frame []byte) error
	// Recv returns the next frame addressed to dst, waiting up to
	// timeout. Simulated media interpret the timeout as virtual time and
	// return immediately either way; network media block for real.
	Recv(dst mac.Addr, timeout time.Duration) ([]byte, error)
	// Close releases the medium's resources.
	Close() error
}

// delayedSender is implemented by simulated media that can queue a frame
// with a virtual arrival delay; Faulty uses it for jitter injection.
type delayedSender interface {
	sendDelayed(src, dst mac.Addr, frame []byte, delay time.Duration) error
}

// pending is one queued frame with its remaining virtual arrival delay.
type pending struct {
	frame []byte
	delay time.Duration
}

// Perfect is the ideal in-memory medium: lossless, ordered, instant
// (unless a decorator injects delay). It is safe for concurrent use.
type Perfect struct {
	mu     sync.Mutex
	queues map[mac.Addr][]pending
	closed bool
}

// NewPerfect returns an empty ideal medium.
func NewPerfect() *Perfect {
	return &Perfect{queues: make(map[mac.Addr][]pending)}
}

// Send queues the frame for dst with zero delay.
func (m *Perfect) Send(src, dst mac.Addr, frame []byte) error {
	return m.sendDelayed(src, dst, frame, 0)
}

func (m *Perfect) sendDelayed(_, dst mac.Addr, frame []byte, delay time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	mFramesSent.Inc()
	m.queues[dst] = append(m.queues[dst], pending{frame: append([]byte(nil), frame...), delay: delay})
	return nil
}

// Recv pops the oldest frame queued for dst whose virtual arrival delay
// fits within timeout. Waiting advances dst's virtual clock: a timeout
// shortens the remaining delay of everything still queued, so a jittered
// frame that misses one Recv can arrive at the next.
func (m *Perfect) Recv(dst mac.Addr, timeout time.Duration) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	q := m.queues[dst]
	if len(q) == 0 {
		return nil, ErrTimeout
	}
	head := q[0]
	if head.delay > timeout {
		// Nothing lands inside this window: the wait itself consumes
		// virtual time for every frame in flight toward dst.
		for i := range q {
			q[i].delay -= timeout
		}
		return nil, ErrTimeout
	}
	m.queues[dst] = q[1:]
	for i := range m.queues[dst] {
		if m.queues[dst][i].delay > head.delay {
			m.queues[dst][i].delay -= head.delay
		} else {
			m.queues[dst][i].delay = 0
		}
	}
	mFramesDelivered.Inc()
	return head.frame, nil
}

// Close empties the medium; further Send/Recv fail with ErrClosed.
func (m *Perfect) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.queues = make(map[mac.Addr][]pending)
	return nil
}
