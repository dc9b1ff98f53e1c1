package core

import (
	"context"
	"errors"
	"time"

	"copa/internal/mac"
	"copa/internal/medium"
	"copa/internal/obs"
	"copa/internal/precoding"
)

// This file holds the live half of the ITS exchange: LeadExchange and
// FollowExchange run one role each (cmd/copad runs one per process)
// through drive, which waits on a blocking medium (real UDP sockets) in
// real time. The roles themselves are the step machines in exchange.go
// that Pair and Cluster run in virtual time, so the daemon and the
// simulation share one protocol. drive is the only code in this package
// that reads the wall clock.

// drive runs r to completion as station self over a blocking medium:
// it transmits each step's frame and waits on med.Recv until a frame
// arrives or the role's timer runs out. Frames that arrive while a
// backoff runs are heard, not queued behind it. A medium error ends
// the run and is returned.
func drive(med medium.Medium, self mac.Addr, r role) error {
	var deadline time.Time
	for x := r.start(); !x.done; {
		if x.frame != nil {
			if err := med.Send(self, x.to, x.frame); err != nil {
				return err
			}
		}
		if x.wait != keep {
			deadline = time.Now().Add(x.wait)
		}
		frame, err := med.Recv(self, time.Until(deadline))
		switch {
		case err == nil:
			x = r.recv(frame)
		case errors.Is(err, medium.ErrTimeout):
			x = r.expire()
		default:
			return err
		}
	}
	return nil
}

// LeadExchange runs the leader role of one live ITS exchange (see
// leader): INIT, the follower's REQ, the decision, the ACK and its
// linger. On budget exhaustion it returns stats with Fallback set and
// an error wrapping ErrFallback; protocol failures (no CSI, infeasible
// strategy) and medium errors abort with the error.
//
// The leader is where a live exchange's trace begins: obs.StartSpan
// roots one (or continues ctx's), and its identity rides inside the
// INIT frame as a compact binary field, so the follower process's
// spans share the leader's TraceID — one stitched over-the-air trace.
func (ap *AP) LeadExchange(ctx context.Context, med medium.Medium, folAddr mac.Addr, airtimeUS uint32, now time.Duration, pol RetryPolicy) (*LeadDecision, ExchangeStats, error) {
	mSessions.Inc()
	ctx, span := obs.StartSpan(ctx, "its.exchange")
	l := newLeader(ctx, ap, folAddr, ap.BuildITSInitTrace(ctx, airtimeUS), now, pol)
	if err := drive(med, ap.Addr, l); err != nil {
		l.fail(CauseTimeout, err)
	}
	span.EndErr(l.err)
	if l.err != nil {
		return nil, l.stats, l.err
	}
	return l.dec, l.stats, nil
}

// FollowExchange runs the follower role (see follower): wait up to
// `wait` for a leader's INIT, answer with a REQ, and await the verdict.
// Returns the parsed verdict and — as HandleITSAck does — the
// follower's transmission descriptor. A follower that heard no INIT
// returns an error wrapping ErrFallback; one that sent a REQ but heard
// no verdict returns one wrapping ErrDeferred and must stay silent for
// the TXOP.
//
// When the INIT carries the leader's trace context, the follower's
// its.follow span joins the leader's trace: both processes' spans share
// one TraceID, parented across the air.
func (ap *AP) FollowExchange(ctx context.Context, med medium.Medium, wait time.Duration, now time.Duration, pol RetryPolicy) (*mac.ITSAck, *precoding.Transmission, ExchangeStats, error) {
	f := newFollower(ctx, ap, wait, now, pol)
	if err := drive(med, ap.Addr, f); err != nil {
		f.end(CauseTimeout, err)
	}
	return f.ack, f.tx, f.stats, f.err
}
