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

// ExchangeStats is the transport-level accounting of one exchange:
// retry-aware control bytes and airtime, and how (if) it failed.
type ExchangeStats struct {
	// ControlBytes counts every transmitted control byte, including
	// retransmissions — the retry-aware successor of the old
	// three-frame sum.
	ControlBytes int
	// Retries is the number of retransmission attempts beyond the first
	// try of each leg.
	Retries int
	// Airtime is the virtual time the exchange occupied the medium:
	// frame airtimes, SIFS turnarounds, timeout waits and backoffs.
	Airtime time.Duration
	// Fallback reports the retry budget was exhausted and the pair
	// reverted to plain CSMA for the rest of the coherence time.
	Fallback bool
	// Cause is the terminal failure classification (CauseNone on
	// success; the last leg's failure mode on fallback).
	Cause FailCause
}

// exchangeResult is the engine's full outcome.
type exchangeResult struct {
	ExchangeStats
	dec   *LeadDecision
	ack   *mac.ITSAck
	folTx *precoding.Transmission
}

// recvITS waits for a frame of the wanted type addressed to dst,
// discarding stale duplicates of other types (a lingering INIT while
// waiting for an ACK, say). The drain is bounded so a duplication storm
// cannot spin forever.
func recvITS(med medium.Medium, dst mac.Addr, timeout time.Duration, want mac.FrameType) ([]byte, error) {
	for i := 0; i < 8; i++ {
		data, err := med.Recv(dst, timeout)
		if err != nil {
			return nil, err
		}
		if t, ok := mac.FrameTypeOf(data); ok && t == want {
			return data, nil
		}
		// Wrong type or unrecognizable header: a stale duplicate or a
		// frame garbled beyond its magic — keep listening.
	}
	return nil, medium.ErrTimeout
}

// errExhausted marks a leg that ran out of tries (recorded in spans).
var errExhausted = errors.New("core: retry budget exhausted")

// runExchangeOverMedium drives one complete ITS exchange between lead
// and fol across med: INIT → REQ → ACK as real frames, with per-leg
// timeouts derived from mac airtimes, bounded exponential-backoff
// retries, and per-cause accounting. Transport failures that outlive the
// retry budget return a fallback result (nil error) — the caller
// degrades to CSMA; protocol failures return an error just as the
// pre-medium synchronous exchange did.
//
// The engine is single-threaded and leg-ordered, which works with both
// clock domains: simulated media answer Recv from their queues in
// virtual time, and blocking media (UDP) are driven instead by the
// split LeadExchange/FollowExchange role drivers.
//
// ctx carries trace identity only (never a deadline — timeouts are the
// medium's): under a sampled trace the REQ and ACK legs record
// child spans with retry counts; otherwise they record nothing.
func runExchangeOverMedium(ctx context.Context, med medium.Medium, lead, fol *AP, airtimeUS uint32, now time.Duration, pol RetryPolicy) (*exchangeResult, error) {
	res := &exchangeResult{}
	tmo := mac.DefaultOverheadModel().ITSTimeouts().Clamp(pol.TimeoutFloor)
	initFrame := lead.BuildITSInit(airtimeUS)

	send := func(src, dst mac.Addr, frame []byte) {
		med.Send(src, dst, frame)
		res.ControlBytes += len(frame)
		res.Airtime += mac.FrameAirtime(len(frame), mac.ControlRateBps) + mac.SIFS
	}
	retry := func(try int, cause FailCause, wait time.Duration) FailCause {
		res.Airtime += wait
		if cause == CauseTimeout {
			mLegTimeouts.Inc()
		} else {
			mLegCRCDrops.Inc()
		}
		if try+1 < pol.tries() {
			res.Retries++
			res.Airtime += pol.backoff(try + 1)
			mRetries.Inc()
		}
		return cause
	}
	fallback := func(span *obs.ActiveSpan, cause FailCause) (*exchangeResult, error) {
		span.SetAttr("cause", cause.String())
		span.EndErr(errExhausted)
		res.Fallback = true
		res.Cause = cause
		mSessionFailures.Inc()
		failCounter(cause).Inc()
		mFallbacks.Inc()
		return res, nil
	}
	abort := func(span *obs.ActiveSpan, cause FailCause, err error) (*exchangeResult, error) {
		span.SetAttr("cause", cause.String())
		span.EndErr(err)
		res.Cause = cause
		mSessionFailures.Inc()
		failCounter(cause).Inc()
		return res, err
	}

	// Leg 1: INIT out, REQ back, decision made. The leader owns the
	// timer: a lost INIT, a garbled INIT (the follower stays silent), or
	// a lost/garbled REQ all look like a missing REQ and trigger an INIT
	// retransmission, which the follower answers idempotently.
	span := obs.ChildSpan(ctx, "its.leg.req")
	var dec *LeadDecision
	cause := CauseTimeout
	for try := 0; dec == nil; try++ {
		if try == pol.tries() {
			return fallback(span, cause)
		}
		send(lead.Addr, fol.Addr, initFrame)
		data, err := recvITS(med, fol.Addr, tmo.REQ, mac.TypeITSInit)
		if err != nil {
			cause = retry(try, CauseTimeout, tmo.REQ)
			continue
		}
		reqFrame, err := fol.BuildITSReq(data, now)
		if err != nil {
			if errors.Is(err, mac.ErrBadFrame) {
				cause = retry(try, CauseCRC, tmo.REQ)
				continue
			}
			return abort(span, CauseReqBuild, fmt.Errorf("follower REQ: %w", err))
		}
		send(fol.Addr, lead.Addr, reqFrame)
		got, err := recvITS(med, lead.Addr, tmo.REQ, mac.TypeITSReq)
		if err != nil {
			cause = retry(try, CauseTimeout, tmo.REQ)
			continue
		}
		d, err := lead.HandleITSReq(got, now)
		if err != nil {
			if errors.Is(err, mac.ErrBadFrame) {
				cause = retry(try, CauseCRC, 0)
				continue
			}
			return abort(span, CauseLeaderDecision, fmt.Errorf("leader decision: %w", err))
		}
		dec = d
	}
	span.SetAttr("retries", strconv.Itoa(res.Retries))
	span.End()

	// Leg 2: ACK out, applied at the follower. The leader retransmits
	// the verdict until the follower accepts it or the budget runs out.
	span = obs.ChildSpan(ctx, "its.leg.ack")
	cause = CauseTimeout
	for try := 0; ; try++ {
		if try == pol.tries() {
			return fallback(span, cause)
		}
		send(lead.Addr, fol.Addr, dec.Ack)
		data, err := recvITS(med, fol.Addr, tmo.ACK, mac.TypeITSAck)
		if err != nil {
			cause = retry(try, CauseTimeout, tmo.ACK)
			continue
		}
		ack, folTx, err := fol.HandleITSAck(data, now)
		if err != nil {
			if errors.Is(err, mac.ErrBadFrame) {
				cause = retry(try, CauseCRC, 0)
				continue
			}
			return abort(span, CauseAckHandle, fmt.Errorf("follower ACK: %w", err))
		}
		res.dec, res.ack, res.folTx = dec, ack, folTx
		span.End()
		return res, nil
	}
}
