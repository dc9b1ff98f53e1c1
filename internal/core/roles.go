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

// This file holds the per-station role drivers for blocking media (real
// UDP sockets): unlike runExchangeOverMedium, which single-threads both
// APs over a simulated medium, LeadExchange and FollowExchange each
// drive one side of the protocol and genuinely wait on the wire.
// cmd/copad runs one of them per process.

// ErrFallback is returned by the role drivers when the retry budget is
// exhausted and the station reverts to plain CSMA for the remainder of
// the coherence time.
var ErrFallback = errors.New("core: exchange fell back to CSMA")

// LeadExchange runs the leader role of one live ITS exchange: send INIT,
// await the follower's REQ, decide, send the ACK. Lost or garbled legs
// are retried with bounded exponential backoff; after sending the final
// ACK the leader lingers one ACK-timeout listening for a duplicate REQ
// (the follower's implicit "I missed the verdict") and retransmits the
// ACK if one arrives.
//
// On budget exhaustion it returns stats with Fallback set and an error
// wrapping ErrFallback. Protocol failures (no CSI, infeasible strategy)
// abort immediately, as in the simulated engine.
//
// The leader is where a live exchange's trace begins: obs.StartSpan
// roots one (or continues ctx's), and its identity rides inside the
// INIT frame as a compact binary field, so the follower process's
// spans share the leader's TraceID — one stitched over-the-air trace.
func (ap *AP) LeadExchange(ctx context.Context, med medium.Medium, folAddr mac.Addr, airtimeUS uint32, now time.Duration, pol RetryPolicy) (*LeadDecision, ExchangeStats, error) {
	var stats ExchangeStats
	tmo := mac.DefaultOverheadModel().ITSTimeouts().Clamp(pol.TimeoutFloor)
	mSessions.Inc()
	ctx, span := obs.StartSpan(ctx, "its.exchange")
	initFrame := ap.BuildITSInitTrace(ctx, airtimeUS)

	fail := func(cause FailCause, err error) (*LeadDecision, ExchangeStats, error) {
		stats.Cause = cause
		stats.Fallback = errors.Is(err, ErrFallback)
		mSessionFailures.Inc()
		failCounter(cause).Inc()
		if stats.Fallback {
			mFallbacks.Inc()
		}
		span.EndErr(err)
		return nil, stats, err
	}

	// Leg 1: INIT → REQ → decision.
	leg := obs.ChildSpan(ctx, "its.leg.req")
	var dec *LeadDecision
	cause := CauseTimeout
	for try := 0; dec == nil; try++ {
		if try == pol.tries() {
			leg.EndErr(errExhausted)
			return fail(cause, fmt.Errorf("%w: no usable REQ after %d tries (%v)", ErrFallback, try, cause))
		}
		if try > 0 {
			stats.Retries++
			mRetries.Inc()
			time.Sleep(pol.backoff(try))
		}
		if err := med.Send(ap.Addr, folAddr, initFrame); err != nil {
			return fail(CauseTimeout, fmt.Errorf("send INIT: %w", err))
		}
		stats.ControlBytes += len(initFrame)
		reqFrame, err := recvITS(med, ap.Addr, tmo.REQ, mac.TypeITSReq)
		if err != nil {
			if errors.Is(err, medium.ErrTimeout) {
				cause = CauseTimeout
				mLegTimeouts.Inc()
				continue
			}
			return fail(CauseTimeout, fmt.Errorf("await REQ: %w", err))
		}
		d, err := ap.HandleITSReq(reqFrame, now)
		if err != nil {
			if errors.Is(err, mac.ErrBadFrame) {
				cause = CauseCRC
				mLegCRCDrops.Inc()
				continue
			}
			return fail(CauseLeaderDecision, fmt.Errorf("leader decision: %w", err))
		}
		dec = d
	}
	leg.SetAttr("retries", strconv.Itoa(stats.Retries))
	leg.End()

	// Leg 2: ACK, with a linger window for duplicate REQs.
	leg = obs.ChildSpan(ctx, "its.leg.ack")
	for try := 0; try < pol.tries(); try++ {
		if err := med.Send(ap.Addr, folAddr, dec.Ack); err != nil {
			leg.EndErr(err)
			return fail(CauseTimeout, fmt.Errorf("send ACK: %w", err))
		}
		stats.ControlBytes += len(dec.Ack)
		if _, err := recvITS(med, ap.Addr, tmo.ACK, mac.TypeITSReq); err != nil {
			// Silence: the follower accepted the verdict (or gave up; it
			// will report its own fallback). Done either way.
			leg.End()
			span.End()
			return dec, stats, nil
		}
		// A duplicate REQ: the follower missed the ACK — resend it.
		stats.Retries++
		mRetries.Inc()
	}
	leg.End()
	span.End()
	return dec, stats, nil
}

// FollowExchange runs the follower role: wait up to `wait` for a
// leader's INIT, answer with a REQ, and await the ACK verdict, re-answering
// duplicate INITs (the leader's implicit "I missed your REQ") and
// retransmitting the REQ on ACK timeouts. Returns the parsed verdict and
// — as HandleITSAck does — the follower's transmission descriptor.
//
// When the INIT carries the leader's trace context, the follower's
// its.follow span joins the leader's trace: both processes' spans share
// one TraceID, parented across the air.
func (ap *AP) FollowExchange(ctx context.Context, med medium.Medium, wait time.Duration, now time.Duration, pol RetryPolicy) (*mac.ITSAck, *precoding.Transmission, ExchangeStats, error) {
	var stats ExchangeStats
	tmo := mac.DefaultOverheadModel().ITSTimeouts().Clamp(pol.TimeoutFloor)
	// The span stays nil until a leader's INIT reveals the trace this
	// exchange belongs to.
	var span *obs.ActiveSpan

	fail := func(cause FailCause, err error) (*mac.ITSAck, *precoding.Transmission, ExchangeStats, error) {
		stats.Cause = cause
		stats.Fallback = errors.Is(err, ErrFallback)
		if stats.Fallback {
			mFallbacks.Inc()
		}
		span.EndErr(err)
		return nil, nil, stats, err
	}

	// Wait for the opening INIT.
	var reqFrame []byte
	deadline := time.Now().Add(wait)
	for reqFrame == nil {
		remain := time.Until(deadline)
		if remain <= 0 {
			return fail(CauseTimeout, fmt.Errorf("%w: no INIT heard within %v", ErrFallback, wait))
		}
		data, err := recvITS(med, ap.Addr, remain, mac.TypeITSInit)
		if err != nil {
			if errors.Is(err, medium.ErrTimeout) {
				continue
			}
			return fail(CauseTimeout, fmt.Errorf("await INIT: %w", err))
		}
		r, err := ap.BuildITSReq(data, now)
		if err != nil {
			if errors.Is(err, mac.ErrBadFrame) {
				mLegCRCDrops.Inc()
				continue // garbled INIT: stay silent, the leader retries
			}
			return fail(CauseReqBuild, fmt.Errorf("follower REQ: %w", err))
		}
		reqFrame = r
		// Adopt the leader's trace, if the INIT carried one.
		if init, err := mac.UnmarshalITSInit(data); err == nil && len(init.TraceCtx) > 0 {
			span = obs.ChildSpan(obs.ContextWithRemoteBinary(ctx, init.TraceCtx), "its.follow")
		}
	}

	// Send the REQ and await the verdict; duplicate INITs mean the
	// leader missed the REQ.
	cause := CauseTimeout
	for try := 0; try < pol.tries(); try++ {
		if try > 0 {
			stats.Retries++
			mRetries.Inc()
		}
		if err := med.Send(ap.Addr, reqLeader(reqFrame), reqFrame); err != nil {
			return fail(CauseTimeout, fmt.Errorf("send REQ: %w", err))
		}
		stats.ControlBytes += len(reqFrame)
		data, err := med.Recv(ap.Addr, tmo.ACK)
		if err != nil {
			if errors.Is(err, medium.ErrTimeout) {
				cause = CauseTimeout
				mLegTimeouts.Inc()
				continue
			}
			return fail(CauseTimeout, fmt.Errorf("await ACK: %w", err))
		}
		if t, ok := mac.FrameTypeOf(data); !ok || t != mac.TypeITSAck {
			// A duplicate INIT (or garbage): fall through to resend REQ.
			cause = CauseTimeout
			continue
		}
		ack, tx, err := ap.HandleITSAck(data, now)
		if err != nil {
			if errors.Is(err, mac.ErrBadFrame) {
				cause = CauseCRC
				mLegCRCDrops.Inc()
				continue
			}
			return fail(CauseAckHandle, fmt.Errorf("follower ACK: %w", err))
		}
		span.SetAttr("retries", strconv.Itoa(stats.Retries))
		span.End()
		return ack, tx, stats, nil
	}
	return fail(cause, fmt.Errorf("%w: no verdict after %d tries (%v)", ErrFallback, pol.tries(), cause))
}

// reqLeader extracts the leader (destination) address from a marshaled
// REQ without a full re-parse.
func reqLeader(reqFrame []byte) mac.Addr {
	var a mac.Addr
	if req, err := mac.UnmarshalITSReq(reqFrame); err == nil {
		a = req.Leader
	}
	return a
}
