package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"copa/internal/mac"
	"copa/internal/medium"
	"copa/internal/obs"
	"copa/internal/precoding"
)

// FailCause classifies why an ITS exchange failed — the per-cause split
// behind copa.its.session_failures_* so /debug/metrics can attribute
// control-plane breakage.
type FailCause int

// The failure taxonomy: transport causes (timeout, CRC) are retryable
// and only become terminal when the retry budget runs out; protocol
// causes (req-build, leader-decision, ack-handle) abort immediately —
// retransmitting the same frame cannot fix missing CSI or an infeasible
// strategy.
const (
	CauseNone FailCause = iota
	CauseTimeout
	CauseCRC
	CauseReqBuild
	CauseLeaderDecision
	CauseAckHandle
)

// String names the cause the way the metrics do.
func (c FailCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseTimeout:
		return "timeout"
	case CauseCRC:
		return "crc"
	case CauseReqBuild:
		return "req-build"
	case CauseLeaderDecision:
		return "leader-decision"
	case CauseAckHandle:
		return "ack-handle"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// failCounter returns the per-cause terminal-failure counter.
func failCounter(c FailCause) *obs.Counter {
	switch c {
	case CauseTimeout:
		return mFailTimeout
	case CauseCRC:
		return mFailCRC
	case CauseReqBuild:
		return mFailReqBuild
	case CauseLeaderDecision:
		return mFailLeaderDecision
	case CauseAckHandle:
		return mFailAckHandle
	default:
		return nil
	}
}

// RetryPolicy bounds how hard the exchange engine pushes against a lossy
// medium before giving up and falling back to plain CSMA.
type RetryPolicy struct {
	// MaxTries is the attempt budget per leg (1 = no retries).
	MaxTries int
	// Backoff is the wait after the first failed try; it doubles per
	// retry (bounded exponential backoff) up to BackoffCap.
	Backoff time.Duration
	// BackoffCap bounds the doubling.
	BackoffCap time.Duration
	// TimeoutFloor clamps the airtime-derived per-leg timeouts; zero for
	// simulated media, hundreds of milliseconds for real sockets.
	TimeoutFloor time.Duration
}

// DefaultRetryPolicy mirrors DCF: the initial backoff is the mean
// initial contention wait, doubling per retry like a contention window,
// with four tries per leg before the exchange concedes the coherence
// time to CSMA.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxTries:   4,
		Backoff:    mac.MeanBackoff(),
		BackoffCap: time.Duration(mac.CWMax) * mac.SlotTime / 2,
	}
}

// backoff is the wait before retry number `retry` (1-based).
func (p RetryPolicy) backoff(retry int) time.Duration {
	b := p.Backoff
	for i := 1; i < retry; i++ {
		b *= 2
		if p.BackoffCap > 0 && b >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if p.BackoffCap > 0 && b > p.BackoffCap {
		b = p.BackoffCap
	}
	return b
}

// tries normalizes the attempt budget.
func (p RetryPolicy) tries() int {
	if p.MaxTries < 1 {
		return 1
	}
	return p.MaxTries
}

// ExchangeStats is one role's transport-level accounting of an
// exchange: retry-aware control bytes, and how (if) it failed.
type ExchangeStats struct {
	// ControlBytes counts every control byte the role transmitted,
	// retransmissions included.
	ControlBytes int
	// Retries counts transmissions beyond the first of each leg.
	Retries int
	// Fallback reports the role reverted to plain CSMA for the rest of
	// the coherence time (see ErrFallback).
	Fallback bool
	// Cause is the terminal failure classification (CauseNone on
	// success; the last leg's failure mode otherwise).
	Cause FailCause
}

// ErrFallback is returned by a role that reverts to plain CSMA for the
// rest of the coherence time: a leader whose INIT budget ran out with
// no usable REQ, or a follower that heard no INIT.
var ErrFallback = errors.New("core: exchange fell back to CSMA")

// ErrDeferred is returned by a follower that offered to join (sent a
// REQ) but heard no verdict within its budget. It defers for the TXOP
// instead of contending, and holds no plan until the next exchange:
// the leader may be transmitting a concurrent decision it never heard,
// and staying silent is the side that cannot collide with it. This is
// the exchange's fail-safe contract; it costs no control frame, so a
// lossless exchange keeps its bytes and airtime.
var ErrDeferred = errors.New("core: no verdict heard; follower defers this TXOP")

// keep is a step's wait when the role's running timer stands: the frame
// it just heard was stale or foreign and changes nothing.
const keep time.Duration = -1

// A step is a role's response to one event — its start, a received
// frame, or its timer running out: at most one frame to transmit to a
// station, then how long to wait for the next frame (keep: the running
// timer stands), or done. Roles never read a clock or block; a driver
// owns time, the blocking one in roles.go or simulate's virtual one.
type step struct {
	to    mac.Addr
	frame []byte
	wait  time.Duration
	done  bool
}

// role is one side of the exchange as a step machine.
type role interface {
	start() step
	recv(frame []byte) step
	expire() step
}

// aborted reports a protocol failure (not ErrFallback or ErrDeferred):
// retransmission cannot fix missing CSI or an infeasible strategy, so
// the exchange stops at once.
func aborted(err error) bool {
	return err != nil && !errors.Is(err, ErrFallback) && !errors.Is(err, ErrDeferred)
}

// party is what both roles share: their AP and exchange parameters, the
// station they talk to and the frame they (re)transmit to it, the
// role's span, the per-leg transmission count, and its accounting.
type party struct {
	ap    *AP
	ctx   context.Context
	now   time.Duration
	pol   RetryPolicy
	tmo   mac.ITSTimeouts
	peer  mac.Addr
	out   []byte
	span  *obs.ActiveSpan
	tries int // transmissions on the current leg
	stats ExchangeStats
	err   error
}

func newParty(ctx context.Context, ap *AP, now time.Duration, pol RetryPolicy) party {
	return party{ap: ap, ctx: ctx, now: now, pol: pol, tmo: mac.DefaultOverheadModel().ITSTimeouts().Clamp(pol.TimeoutFloor)}
}

// send books one transmission of p.out to p.peer, then waits; every
// transmission after a leg's first is a retry.
func (p *party) send(wait time.Duration) step {
	if p.tries++; p.tries > 1 {
		p.stats.Retries++
		mRetries.Inc()
	}
	p.stats.ControlBytes += len(p.out)
	return step{to: p.peer, frame: p.out, wait: wait}
}

// end finishes the role with err, attributing it to cause on its span.
func (p *party) end(cause FailCause, err error) step {
	p.span.SetAttr("cause", cause.String())
	p.span.EndErr(err)
	p.stats.Cause, p.err = cause, err
	return step{done: true}
}

// fail ends the role on a terminal exchange failure, counted against
// its cause.
func (p *party) fail(cause FailCause, err error) step {
	mSessionFailures.Inc()
	failCounter(cause).Inc()
	return p.end(cause, err)
}

// leader is the INIT → REQ → ACK initiator. It owns the first leg's
// timer: a lost or garbled INIT and a lost REQ all look like "no REQ"
// and trigger an INIT retransmission after a bounded exponential
// backoff, until the budget runs out and it falls back to CSMA. Once it
// has decided, it sends the ACK and lingers one ACK timeout, answering
// each duplicate REQ (the follower's "I missed the verdict") with the
// ACK again while its budget lasts. Silence ends the linger: the
// follower holds the verdict or, under the fail-safe contract, defers.
// The linger overlaps the data transmission and is not exchange
// airtime.
type leader struct {
	party
	backoff bool // the running timer is a backoff, not a REQ wait
	dec     *LeadDecision
}

func newLeader(ctx context.Context, ap *AP, fol mac.Addr, init []byte, now time.Duration, pol RetryPolicy) *leader {
	l := &leader{party: newParty(ctx, ap, now, pol)}
	l.peer, l.out = fol, init
	return l
}

func (l *leader) start() step {
	l.span = obs.ChildSpan(l.ctx, "its.leg.req")
	return l.send(l.tmo.REQ)
}

func (l *leader) recv(frame []byte) step {
	if t, ok := mac.FrameTypeOf(frame); !ok || t != mac.TypeITSReq {
		return step{wait: keep}
	}
	if l.dec != nil { // a duplicate REQ: the follower missed the verdict
		if l.tries == l.pol.tries() {
			return step{wait: keep}
		}
		return l.send(l.tmo.ACK)
	}
	dec, err := l.ap.HandleITSReq(frame, l.now)
	if errors.Is(err, mac.ErrBadFrame) {
		mLegCRCDrops.Inc()
		return l.retry(CauseCRC)
	}
	if err != nil {
		return l.fail(CauseLeaderDecision, fmt.Errorf("leader decision: %w", err))
	}
	l.span.SetAttr("retries", strconv.Itoa(l.stats.Retries))
	l.span.End()
	l.span = obs.ChildSpan(l.ctx, "its.leg.ack")
	l.dec, l.out, l.tries = dec, dec.Ack, 0
	return l.send(l.tmo.ACK)
}

func (l *leader) expire() step {
	switch {
	case l.dec != nil:
		l.span.End()
		return step{done: true}
	case l.backoff:
		l.backoff = false
		return l.send(l.tmo.REQ)
	}
	mLegTimeouts.Inc()
	return l.retry(CauseTimeout)
}

// retry backs off after a failed INIT try, or falls back once the
// budget is spent.
func (l *leader) retry(cause FailCause) step {
	if l.tries < l.pol.tries() {
		l.backoff = true
		return step{wait: l.pol.backoff(l.tries)}
	}
	l.stats.Fallback = true
	mFallbacks.Inc()
	return l.fail(cause, fmt.Errorf("%w: no usable REQ after %d tries (%v)", ErrFallback, l.tries, cause))
}

// follower answers the first INIT it can parse with a REQ, then awaits
// the verdict. A duplicate INIT (the leader's "I missed your REQ"), an
// ACK timeout and a garbled ACK each retransmit the REQ while its
// budget lasts; once the budget is spent it defers (ErrDeferred). A
// follower that hears no INIT before its wait runs out falls back.
type follower struct {
	party
	wait time.Duration
	ack  *mac.ITSAck
	tx   *precoding.Transmission
}

func newFollower(ctx context.Context, ap *AP, wait, now time.Duration, pol RetryPolicy) *follower {
	return &follower{party: newParty(ctx, ap, now, pol), wait: wait}
}

func (f *follower) start() step { return step{wait: f.wait} }

func (f *follower) recv(frame []byte) step {
	t, _ := mac.FrameTypeOf(frame)
	switch {
	case t == mac.TypeITSInit && f.out == nil:
		init, err := mac.UnmarshalITSInit(frame)
		if err != nil {
			mLegCRCDrops.Inc()
			return step{wait: keep} // garbled: stay silent, the leader retries
		}
		req, err := f.ap.BuildITSReq(frame, f.now)
		if err != nil {
			return f.fail(CauseReqBuild, fmt.Errorf("follower REQ: %w", err))
		}
		// Join the leader's trace, if the INIT carried one.
		if len(init.TraceCtx) > 0 {
			f.span = obs.ChildSpan(obs.ContextWithRemoteBinary(f.ctx, init.TraceCtx), "its.follow")
		}
		f.peer, f.out = init.Leader, req
		return f.send(f.tmo.ACK)
	case t == mac.TypeITSInit && f.tries < f.pol.tries():
		return f.send(f.tmo.ACK)
	case t == mac.TypeITSAck && f.out != nil:
		ack, tx, err := f.ap.HandleITSAck(frame, f.now)
		if errors.Is(err, mac.ErrBadFrame) {
			mLegCRCDrops.Inc()
			return f.retry(CauseCRC)
		}
		if err != nil {
			return f.fail(CauseAckHandle, fmt.Errorf("follower ACK: %w", err))
		}
		f.ack, f.tx = ack, tx
		f.span.SetAttr("retries", strconv.Itoa(f.stats.Retries))
		f.span.End()
		return step{done: true}
	}
	return step{wait: keep}
}

func (f *follower) expire() step {
	if f.out == nil {
		f.stats.Fallback = true
		mFallbacks.Inc()
		return f.end(CauseTimeout, fmt.Errorf("%w: no INIT heard within %v", ErrFallback, f.wait))
	}
	mLegTimeouts.Inc()
	return f.retry(CauseTimeout)
}

// retry retransmits the REQ, or defers once the budget is spent.
func (f *follower) retry(cause FailCause) step {
	if f.tries < f.pol.tries() {
		return f.send(f.tmo.ACK)
	}
	mDeferrals.Inc()
	return f.end(cause, fmt.Errorf("%w: %d REQs unanswered (%v)", ErrDeferred, f.tries, cause))
}

// disagreed reports the unsafe outcome: the roles ended on different
// verdicts with both free to transmit — one side coordinated, the other
// contending or transmitting to a different plan. A deferring follower
// is silent, so it never disagrees.
func disagreed(dec *LeadDecision, ack *mac.ITSAck, folErr error) bool {
	switch {
	case errors.Is(folErr, ErrDeferred):
		return false
	case dec == nil || ack == nil:
		return (dec == nil) != (ack == nil)
	}
	return dec.Outcome.Concurrent != (ack.Decision == mac.DecideConcurrent)
}

// forever is the simulated follower's INIT wait: it listens until the
// leader is done.
const forever = time.Duration(1) << 62

// simulate steps both roles of one exchange to completion over med in
// virtual time, on one goroutine; med must answer Recv in virtual time
// (Perfect, or Faulty over it). Frames cross its Send and Recv, so
// Faulty's impairments apply unchanged, and each transmission holds the
// air for its airtime plus SIFS. Frames that have landed are
// heard before any timer runs out (a receiver that detects a frame
// inside its wait receives it), the leader's before the follower's; in
// silence the earliest timer fires. A run is therefore a pure function
// of the medium's behaviour. It returns how long the exchange held the
// air: through its last frame, or the leader's give-up if later.
// Anything left queued for either station is drained afterwards, so no
// stale frame reaches the next exchange over med.
func simulate(med medium.Medium, l *leader, f *follower) (time.Duration, error) {
	type station struct {
		r    role
		p    *party
		at   time.Duration // timer deadline
		done bool
	}
	sts := [2]*station{{r: l, p: &l.party}, {r: f, p: &f.party}}
	defer func() {
		for _, s := range sts {
			for _, err := med.Recv(s.p.ap.Addr, forever); err == nil; _, err = med.Recv(s.p.ap.Addr, forever) {
			}
		}
	}()
	var clock, held time.Duration
	apply := func(s *station, x step) error {
		if x.frame != nil {
			if err := med.Send(s.p.ap.Addr, x.to, x.frame); err != nil {
				return err
			}
			clock += mac.FrameAirtime(len(x.frame), mac.ControlRateBps) + mac.SIFS
			held = clock
		}
		if x.wait != keep {
			s.at = clock + x.wait
		}
		s.done = x.done
		if s.r == l && l.stats.Fallback {
			held = clock
		}
		return s.p.err
	}
	err := apply(sts[0], l.start())
	if err == nil {
		err = apply(sts[1], f.start())
	}
	for !aborted(err) {
		// Whatever has landed is heard first, the leader's before the
		// follower's.
		var s *station
		for _, c := range sts {
			if c.done {
				continue
			}
			if frame, e := med.Recv(c.p.ap.Addr, 0); e == nil {
				s, err = c, apply(c, c.r.recv(frame))
				break
			}
		}
		if s != nil {
			continue
		}
		// Silence: the earliest timer runs out, unless a delayed frame
		// lands inside its wait.
		for _, c := range sts {
			if !c.done && (s == nil || c.at < s.at) {
				s = c
			}
		}
		if s == nil {
			return held, nil
		}
		if frame, e := med.Recv(s.p.ap.Addr, max(s.at-clock, 0)); e == nil {
			err = apply(s, s.r.recv(frame))
		} else {
			clock = max(clock, s.at)
			err = apply(s, s.r.expire())
		}
	}
	return held, err
}
