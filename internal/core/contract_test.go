package core

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/mac"
	"copa/internal/medium"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// Tests of the exchange's fail-safe contract: whatever the medium does
// to its frames, the two roles never end free to transmit on different
// verdicts. A follower that offered to join but heard no verdict defers
// instead of contending.

// frameAction is what a scheduled medium does to one transmitted frame.
type frameAction byte

const (
	deliver frameAction = iota
	drop
	duplicate
	corrupt
)

// schedMedium is a deterministic Perfect medium that applies act(i) to
// the i-th frame sent (counting from 0) — the knob the schedule
// enumeration and the fuzz target turn.
type schedMedium struct {
	*medium.Perfect
	act   func(i int) frameAction
	flip  func(i, n int) int // bit to flip in a corrupted frame of n bytes
	sends int
	recvs int
}

func newSchedMedium(act func(i int) frameAction) *schedMedium {
	return &schedMedium{Perfect: medium.NewPerfect(), act: act, flip: func(i, n int) int { return (i*131 + 17) % (8 * n) }}
}

func (m *schedMedium) Send(src, dst mac.Addr, frame []byte) error {
	i := m.sends
	m.sends++
	switch m.act(i) {
	case drop:
		return nil
	case duplicate:
		m.Perfect.Send(src, dst, frame)
	case corrupt:
		frame = append([]byte(nil), frame...)
		b := m.flip(i, len(frame))
		frame[b/8] ^= 1 << (b % 8)
	}
	return m.Perfect.Send(src, dst, frame)
}

func (m *schedMedium) Recv(dst mac.Addr, timeout time.Duration) ([]byte, error) {
	if m.recvs++; m.recvs > 10000 {
		panic("exchange does not terminate")
	}
	return m.Perfect.Recv(dst, timeout)
}

// The outcome classes of one exchange across both roles.
const (
	agreeConcurrent = "agree concurrent"
	agreeSequential = "agree sequential"
	bothFallBack    = "both fall back"
	followerDefers  = "follower defers"
	unsafe          = "unsafe"
)

// classify names an exchange's outcome from what each role ended with.
// The leader always transmits (its decision, or CSMA after falling
// back). The follower transmits on a verdict or after falling back to
// CSMA, and is silent only when it defers. Unsafe is every end where
// both transmit without one plan.
func classify(dec *LeadDecision, ack *mac.ITSAck, folErr error) string {
	switch {
	case errors.Is(folErr, ErrDeferred):
		return followerDefers
	case dec == nil && errors.Is(folErr, ErrFallback):
		return bothFallBack
	case dec != nil && ack != nil && dec.Outcome.Concurrent == (ack.Decision == mac.DecideConcurrent):
		if dec.Outcome.Concurrent {
			return agreeConcurrent
		}
		return agreeSequential
	}
	return unsafe
}

// runSchedule runs one exchange between the pair's AP 0 (leading) and
// AP 1 over med through the virtual-time driver, and checks the bounds
// every schedule must keep: no protocol failure from transport faults,
// at most the frames the retry budget allows (INITs and ACKs from the
// leader, REQs from the follower), and a session that reports the same
// class the roles ended in.
func runSchedule(t testing.TB, p *Pair, med *schedMedium) string {
	pol := DefaultRetryPolicy()
	ctx := context.Background()
	l := newLeader(ctx, p.AP[0], p.AP[1].Addr, p.AP[0].BuildITSInit(4000), p.Clock(), pol)
	f := newFollower(ctx, p.AP[1], forever, p.Clock(), pol)
	if _, err := simulate(med, l, f); err != nil {
		t.Fatalf("transport faults caused a protocol failure: %v", err)
	}
	if bound := 3 * pol.tries(); med.sends > bound {
		t.Fatalf("%d frames sent, budget allows %d", med.sends, bound)
	}
	class := classify(l.dec, f.ack, f.err)
	if disagreed(l.dec, f.ack, f.err) != (class == unsafe) || errors.Is(f.err, ErrDeferred) != (class == followerDefers) {
		t.Fatalf("session flags disagree with the roles' outcome %q", class)
	}
	return class
}

// TestLossySchedulesFailSafe drives both roles through every keep/drop
// pattern of an exchange's first 10 frames — 1,024 schedules, enough to
// reach the ACK leg's retries — for a 1x1 pair that decides
// concurrently and one that decides sequentially (the protocol is the
// same in every scenario; 1x1 decides fastest), and requires zero
// unsafe ends. An
// exchange that sent only k frames reads only the first k bits of its
// schedule, so its class stands for all 2^(10-k) schedules sharing
// them and each distinct prefix runs once.
func TestLossySchedulesFailSafe(t *testing.T) {
	const k = 10
	for _, tc := range []struct {
		seed int64
		conc bool
	}{{20, true}, {21, false}} {
		p := newTestPair(t, tc.seed, channel.Scenario1x1, strategy.ModeMax)
		p.MeasureCSI()
		type prefix struct{ bits, n int }
		seen := map[prefix]string{}
		counts := map[string]int{}
		for mask := 0; mask < 1<<k; mask++ {
			class, ok := "", false
			for n := 0; n <= k && !ok; n++ {
				class, ok = seen[prefix{mask & (1<<n - 1), n}]
			}
			if !ok {
				med := newSchedMedium(func(i int) frameAction {
					if i < k && mask>>i&1 == 1 {
						return drop
					}
					return deliver
				})
				class = runSchedule(t, p, med)
				n := min(med.sends, k)
				seen[prefix{mask & (1<<n - 1), n}] = class
			}
			counts[class]++
		}
		if counts[unsafe] != 0 {
			t.Errorf("seed %d: %d of %d schedules end unsafe", tc.seed, counts[unsafe], 1<<k)
		}
		want := agreeSequential
		if tc.conc {
			want = agreeConcurrent
		}
		if counts[want] == 0 || counts[followerDefers] == 0 || counts[bothFallBack] == 0 {
			t.Errorf("seed %d: schedules miss an expected class: %v", tc.seed, counts)
		}
		var classes []string
		for c := range counts {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			t.Logf("seed %d (%d distinct runs): %-16s %4d", tc.seed, len(seen), c, counts[c])
		}
	}
}

// pipe is a blocking in-memory medium for the live role drivers: each
// station has a buffered queue, Recv waits in real time, and drop
// decides which frames vanish. A queue holds 64 frames, more than the
// 3·MaxTries one exchange can send, so Send never blocks.
type pipe struct {
	mu   sync.Mutex
	q    map[mac.Addr]chan []byte
	drop func(frame []byte) bool
}

func (p *pipe) queue(a mac.Addr) chan []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.q[a] == nil {
		p.q[a] = make(chan []byte, 64)
	}
	return p.q[a]
}

func (p *pipe) Send(_, dst mac.Addr, frame []byte) error {
	if !p.drop(frame) {
		p.queue(dst) <- append([]byte(nil), frame...)
	}
	return nil
}

func (p *pipe) Recv(dst mac.Addr, timeout time.Duration) ([]byte, error) {
	select {
	case b := <-p.queue(dst):
		return b, nil
	case <-time.After(timeout):
		return nil, medium.ErrTimeout
	}
}

func (p *pipe) Close() error { return nil }

// TestLostVerdictFailsSafe runs the live role drivers, each on its own
// goroutine, over a blocking medium that drops every ACK, for the
// seed-21 4x2 pair whose leader decides concurrently. The leader
// transmits its decision; the follower heard none, so it must neither
// act on a verdict nor fall back to contending: it defers.
func TestLostVerdictFailsSafe(t *testing.T) {
	p := newTestPair(t, 21, channel.Scenario4x2, strategy.ModeMax)
	p.MeasureCSI()
	med := &pipe{q: map[mac.Addr]chan []byte{}, drop: func(frame []byte) bool {
		typ, _ := mac.FrameTypeOf(frame)
		return typ == mac.TypeITSAck
	}}
	pol := DefaultRetryPolicy()
	pol.TimeoutFloor = 30 * time.Millisecond

	type folResult struct {
		ack   *mac.ITSAck
		stats ExchangeStats
		err   error
	}
	done := make(chan folResult, 1)
	go func() {
		ack, _, stats, err := p.AP[1].FollowExchange(context.Background(), med, 5*time.Second, p.Clock(), pol)
		done <- folResult{ack, stats, err}
	}()
	dec, _, err := p.AP[0].LeadExchange(context.Background(), med, p.AP[1].Addr, 4000, p.Clock(), pol)
	if err != nil {
		t.Fatalf("leader: %v", err)
	}
	fr := <-done
	if dec == nil || !dec.Outcome.Concurrent {
		t.Fatalf("leader decision %+v, want the concurrent one this pair makes", dec)
	}
	if fr.ack != nil || fr.err == nil || errors.Is(fr.err, ErrFallback) || fr.stats.Fallback {
		t.Fatalf("follower ended with ack=%v err=%v fallback=%v: free to transmit while the leader sends its concurrent decision",
			fr.ack, fr.err, fr.stats.Fallback)
	}
	t.Logf("follower: %v", fr.err)
}

// FuzzExchangeSchedule runs one exchange through the virtual-time
// driver with every frame kept, dropped, duplicated or bit-flipped as
// the fuzz bytes say (two bits per frame choose the action, the rest of
// the byte the flipped bit; frames past the input are kept). It must
// not panic, must terminate within the retry budget's frame bound, and
// must never end unsafe.
func FuzzExchangeSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 1, 1, 1})      // every ACK lost after the first REQ
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1})   // every INIT lost
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2})   // every frame duplicated
	f.Add([]byte{3, 7, 11, 15, 19, 23, 27}) // every frame corrupted
	f.Add([]byte{0, 1, 0, 2, 1, 3, 0, 1})
	src := rng.New(20)
	p := NewPair(channel.NewDeployment(src.Split(1), channel.Scenario1x1), channel.DefaultImpairments(), 30*time.Millisecond, strategy.ModeMax, src.Split(2))
	p.MeasureCSI()
	f.Fuzz(func(t *testing.T, sched []byte) {
		med := newSchedMedium(func(i int) frameAction {
			if i < len(sched) {
				return frameAction(sched[i] & 3)
			}
			return deliver
		})
		med.flip = func(i, n int) int { return int(sched[i]>>2) * 8 % (8 * n) }
		if class := runSchedule(t, p, med); class == unsafe {
			t.Fatalf("schedule %v ends unsafe", sched)
		}
	})
}

// dropType is a Perfect medium that loses every frame of one type.
type dropType struct {
	*medium.Perfect
	typ mac.FrameType
}

func (m dropType) Send(src, dst mac.Addr, frame []byte) error {
	if t, _ := mac.FrameTypeOf(frame); t == m.typ {
		return nil
	}
	return m.Perfect.Send(src, dst, frame)
}

// TestScheduleDeferredFollowerSilent checks that RunSchedule and
// MeasuredThroughputs score a deferring follower alike: silent until
// the next exchange, while the leader transmits its decision (every ACK
// lost) or plain CSMA (every REQ lost, so the leader falls back too).
func TestScheduleDeferredFollowerSilent(t *testing.T) {
	for _, typ := range []mac.FrameType{mac.TypeITSAck, mac.TypeITSReq} {
		lossy := func() *Pair {
			p := newTestPair(t, 21, channel.Scenario4x2, strategy.ModeMax)
			p.Med = dropType{medium.NewPerfect(), typ}
			return p
		}
		probe := lossy()
		probe.MeasureCSI()
		s, err := probe.RunExchange(uint32(mac.TxOp.Microseconds()))
		if err != nil {
			t.Fatal(err)
		}
		if !s.Deferred || s.Fallback != (typ == mac.TypeITSReq) {
			t.Fatalf("frame type %d lost: deferred=%v fallback=%v", typ, s.Deferred, s.Fallback)
		}
		lead, fol := s.LeaderIdx, 1-s.LeaderIdx
		scored := probe.MeasuredThroughputs(s)
		res, err := lossy().RunSchedule(ScheduleConfig{Duration: 40 * time.Millisecond, RefreshInterval: 40 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if res.Exchanges != 1 || res.TXOPs < 2 {
			t.Fatalf("schedule ran %d exchanges over %d TXOPs, want 1 over several", res.Exchanges, res.TXOPs)
		}
		if scored[fol] != 0 || res.MeanPerClientBps[fol] != 0 {
			t.Errorf("frame type %d lost: deferring follower scored %g, scheduled %g; want silent", typ, scored[fol], res.MeanPerClientBps[fol])
		}
		if scored[lead] <= 0 || res.MeanPerClientBps[lead] <= 0 {
			t.Errorf("frame type %d lost: leader scored %g, scheduled %g; want it transmitting", typ, scored[lead], res.MeanPerClientBps[lead])
		}
	}
}
