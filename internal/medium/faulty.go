package medium

import (
	"sync"
	"time"

	"copa/internal/mac"
	"copa/internal/rng"
)

// Config parameterizes the impairments a Faulty medium injects. The zero
// value injects nothing (Faulty degenerates to its inner medium).
type Config struct {
	// Loss is the stationary probability a frame is dropped in transit.
	Loss float64
	// MeanBurst is the mean length of loss bursts in frames. Values ≤ 1
	// give i.i.d. (Bernoulli) loss; larger values switch to a
	// Gilbert–Elliott two-state channel whose bad state drops every
	// frame, tuned so the stationary loss rate stays Loss and the mean
	// sojourn in the bad state is MeanBurst frames.
	MeanBurst float64
	// Corrupt is the probability a delivered frame has 1–4 of its bits
	// flipped. The frame still arrives; the mac-layer CRC rejects it.
	Corrupt float64
	// Duplicate is the probability a delivered frame arrives twice.
	Duplicate float64
	// Reorder is the probability a frame is held back and delivered
	// after the next frame on the same src→dst link.
	Reorder float64
	// JitterMax adds a uniform [0, JitterMax] virtual delivery delay on
	// media that support it (simulated queues); network media ignore it.
	JitterMax time.Duration
}

// Stats counts what a Faulty medium actually did — the ground truth the
// statistical regression tests compare against the configuration.
type Stats struct {
	Sent       uint64 // frames offered to Send
	Dropped    uint64 // frames lost in transit
	Corrupted  uint64 // frames delivered with flipped bits
	Duplicated uint64 // extra copies delivered
	Reordered  uint64 // frames delivered behind a later frame
	Delayed    uint64 // frames delivered with extra jitter delay
	// LossBursts is the number of maximal runs of consecutive drops;
	// Dropped/LossBursts is the realized mean burst length.
	LossBursts uint64
}

// Faulty wraps any Medium and injects seeded, reproducible impairments
// on the Send path. It is safe for concurrent use; draws are serialized
// so a fixed seed and send sequence give a fixed impairment sequence.
type Faulty struct {
	inner Medium
	cfg   Config

	mu    sync.Mutex
	src   *rng.Source
	bad   bool // Gilbert–Elliott state: true = bursty-loss state
	held  map[[12]byte][]byte
	stats Stats
	inRun bool // currently inside a drop burst
}

// NewFaulty wraps inner with the given impairments, drawing all
// randomness from src.
func NewFaulty(inner Medium, cfg Config, src *rng.Source) *Faulty {
	return &Faulty{inner: inner, cfg: cfg, src: src, held: make(map[[12]byte][]byte)}
}

func linkKey(src, dst mac.Addr) [12]byte {
	var k [12]byte
	copy(k[:6], src[:])
	copy(k[6:], dst[:])
	return k
}

// dropNow advances the loss process one frame and reports whether this
// frame is lost. Gilbert–Elliott: the current state decides the frame's
// fate, then the state transitions; with r = 1/MeanBurst and
// p = r·Loss/(1−Loss) the stationary bad-state probability is Loss and
// bad-state sojourns average MeanBurst frames.
func (f *Faulty) dropNow() bool {
	loss := f.cfg.Loss
	if loss <= 0 {
		return false
	}
	if loss >= 1 {
		return true
	}
	if f.cfg.MeanBurst <= 1 {
		return f.src.Bool(loss)
	}
	r := 1 / f.cfg.MeanBurst
	p := r * loss / (1 - loss)
	drop := f.bad
	if f.bad {
		if f.src.Bool(r) {
			f.bad = false
		}
	} else if f.src.Bool(p) {
		f.bad = true
	}
	return drop
}

// corruptFrame flips 1–4 random bits in a copy of the frame, leaving its
// length intact so only the CRC betrays it.
func (f *Faulty) corruptFrame(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	flips := 1 + f.src.Intn(4)
	for i := 0; i < flips; i++ {
		bit := f.src.Intn(len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
	}
	return out
}

// Send applies loss, corruption, duplication, reordering and jitter in
// that order, then forwards the surviving copies to the inner medium.
func (f *Faulty) Send(src, dst mac.Addr, frame []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Sent++
	if len(frame) == 0 {
		return f.forward(src, dst, frame, 0)
	}
	if f.dropNow() {
		f.stats.Dropped++
		if !f.inRun {
			f.inRun = true
			f.stats.LossBursts++
		}
		mFramesDropped.Inc()
		return nil
	}
	f.inRun = false

	out := frame
	if f.cfg.Corrupt > 0 && f.src.Bool(f.cfg.Corrupt) {
		out = f.corruptFrame(out)
		f.stats.Corrupted++
		mFramesCorrupted.Inc()
	}
	var delay time.Duration
	if f.cfg.JitterMax > 0 {
		if delay = time.Duration(f.src.Float64() * float64(f.cfg.JitterMax)); delay > 0 {
			f.stats.Delayed++
			mFramesDelayed.Inc()
		}
	}

	// Reordering: hold this frame back; it is released behind the next
	// frame on the same link (or flushed by Recv-side drains implicitly
	// when the next Send happens).
	key := linkKey(src, dst)
	if prev, ok := f.held[key]; ok {
		delete(f.held, key)
		if err := f.forward(src, dst, out, delay); err != nil {
			return err
		}
		f.stats.Reordered++
		mFramesReordered.Inc()
		return f.forward(src, dst, prev, 0)
	}
	if f.cfg.Reorder > 0 && f.src.Bool(f.cfg.Reorder) {
		f.held[key] = append([]byte(nil), out...)
		return nil
	}

	if err := f.forward(src, dst, out, delay); err != nil {
		return err
	}
	if f.cfg.Duplicate > 0 && f.src.Bool(f.cfg.Duplicate) {
		f.stats.Duplicated++
		mFramesDuplicate.Inc()
		return f.forward(src, dst, out, delay)
	}
	return nil
}

func (f *Faulty) forward(src, dst mac.Addr, frame []byte, delay time.Duration) error {
	if ds, ok := f.inner.(delayedSender); ok && delay > 0 {
		return ds.sendDelayed(src, dst, frame, delay)
	}
	return f.inner.Send(src, dst, frame)
}

// Recv delegates to the inner medium.
func (f *Faulty) Recv(dst mac.Addr, timeout time.Duration) ([]byte, error) {
	return f.inner.Recv(dst, timeout)
}

// Close flushes any held frames and closes the inner medium.
func (f *Faulty) Close() error {
	f.mu.Lock()
	f.held = make(map[[12]byte][]byte)
	f.mu.Unlock()
	return f.inner.Close()
}
