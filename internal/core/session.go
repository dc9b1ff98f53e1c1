package core

import (
	"context"
	"errors"
	"time"

	"copa/internal/channel"
	"copa/internal/mac"
	"copa/internal/medium"
	"copa/internal/obs"
	"copa/internal/power"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// Session is the result of one complete ITS exchange between two APs
// (Fig. 5): the elected leader, the negotiated strategy, and the
// transmissions both sides agreed on.
type Session struct {
	// LeaderIdx is the AP (0 or 1, in caller coordinates) that won
	// contention and led the exchange.
	LeaderIdx int
	// Outcome is the leader's chosen strategy with predicted
	// throughputs. Its client indices are in leader-first order.
	Outcome strategy.Outcome
	// Tx[i] is AP i's transmission descriptor (caller coordinates).
	// Tx[follower] is nil for sequential decisions: the follower defers
	// for the rest of the coherence time.
	Tx [2]*precoding.Transmission
	// Concurrent mirrors Outcome.Concurrent.
	Concurrent bool
	// ControlBytes is the total size of the ITS frames transmitted for
	// this session, including retransmissions, for overhead accounting.
	ControlBytes int
	// Retries is the number of retransmission attempts the exchange
	// needed (zero over a perfect medium).
	Retries int
	// Fallback reports the exchange exhausted its retry budget: no
	// strategy was negotiated and the pair reverts to plain CSMA for
	// the remainder of the coherence time. Outcome and Tx are zero.
	Fallback bool
	// Cause classifies a fallback's terminal failure (CauseNone on a
	// successful exchange).
	Cause FailCause
	// Deferred reports the follower sent a REQ but heard no verdict, so
	// it stays silent until the next exchange (Tx[follower] is nil; see
	// ErrDeferred).
	Deferred bool
	// Disagreed reports both roles ended free to transmit on different
	// verdicts: the unsafe outcome the fail-safe contract rules out.
	Disagreed bool
	// ExchangeAirtime is the virtual medium time the exchange consumed
	// (airtimes, turnarounds, waits, backoffs) up to its last frame or the
	// leader's give-up; the post-ACK linger overlaps the data, uncounted.
	ExchangeAirtime time.Duration
}

// Pair wires two APs and their clients' true channels together for
// simulation: it lets the APs "overhear" client transmissions to populate
// their caches, then runs exchanges.
type Pair struct {
	AP    [2]*AP
	Truth *channel.Deployment
	// Med is the control-plane transport ITS frames cross. NewPair
	// installs a Perfect in-memory medium (today's lossless behaviour);
	// swap in a medium.Faulty to study the protocol under impairments.
	Med medium.Medium
	// Retry bounds the exchange engine's persistence against loss.
	Retry RetryPolicy
	clk   time.Duration
	src   *rng.Source
	imp   channel.Impairments
}

// NewPair builds two COPA APs on a deployment. Addresses are synthesized
// from the pair's seed; both APs use the given selection mode.
func NewPair(dep *channel.Deployment, imp channel.Impairments, coherence time.Duration, mode strategy.Mode, src *rng.Source) *Pair {
	mk := func(b byte) mac.Addr { return mac.Addr{0x02, 0xC0, 0xFA, 0, 0, b} }
	p := &Pair{Truth: dep, src: src, imp: imp, Med: medium.NewPerfect(), Retry: DefaultRetryPolicy()}
	for i := 0; i < 2; i++ {
		p.AP[i] = NewAP(mk(byte(i)), mk(byte(0x10+i)), dep.Scenario, imp, coherence, mode)
	}
	return p
}

// Clock returns the pair's virtual time.
func (p *Pair) Clock() time.Duration { return p.clk }

// Advance moves virtual time forward and evolves the physical channels at
// the given coherence time (Inf for a static environment).
func (p *Pair) Advance(dt time.Duration, coherence float64) {
	p.clk += dt
	if dt <= 0 {
		return
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			p.Truth.H[i][j].Evolve(p.src.Split(uint64(p.clk)^uint64(i*2+j)), dt.Seconds(), coherence)
		}
	}
}

// MeasureCSI models Step 1 of Fig. 5: both clients transmit (ACKs,
// uplink traffic), and both APs overhear and cache reciprocal channel
// estimates toward both clients.
func (p *Pair) MeasureCSI() {
	for i := 0; i < 2; i++ { // AP index
		for j := 0; j < 2; j++ { // client index
			// The client→AP channel is the transpose of AP→client truth;
			// the AP measures it with estimation noise and stores the
			// reciprocal (AP→client) link.
			uplink := p.Truth.H[i][j].Transpose()
			measured := p.imp.EstimateCSI(p.src.Split(uint64(0xC5)+uint64(i*2+j)+uint64(p.clk)), uplink)
			p.AP[i].ObserveTransmission(p.AP[j].ClientAddr, measured, p.clk)
		}
	}
}

// RunExchange performs one full ITS exchange: contention elects a leader
// (uniformly at random, as DCF does), then both APs run the protocol
// copad runs, INIT → REQ → ACK crossing the pair's medium as real
// frames in virtual time, with airtime-derived per-leg timeouts and
// bounded retries. The returned session's Tx are in caller coordinates
// (index 0 = p.AP[0]).
//
// Over a lossy medium, transport failures that outlive the retry budget
// return a Fallback session (nil error): the pair reverts to plain CSMA
// for the rest of the coherence time. Protocol failures (no fresh CSI,
// infeasible strategy) still error.
func (p *Pair) RunExchange(airtimeUS uint32) (*Session, error) {
	return p.RunExchangeContext(context.Background(), airtimeUS)
}

// RunExchangeContext is RunExchange carrying a trace context: when ctx
// holds a sampled trace (obs.StartSpan upstream) the exchange and its
// REQ/ACK legs record hierarchical child spans stitched into the
// caller's trace; with a plain context it behaves exactly like
// RunExchange.
func (p *Pair) RunExchangeContext(ctx context.Context, airtimeUS uint32) (*Session, error) {
	leader := p.src.Intn(2)
	s, err := exchange(ctx, p.Med, p.AP[leader], p.AP[1-leader], airtimeUS, p.clk, p.Retry)
	if err != nil {
		return nil, err
	}
	s.LeaderIdx = leader
	if leader == 1 {
		s.Tx[0], s.Tx[1] = s.Tx[1], s.Tx[0]
	}
	return s, nil
}

// exchange runs one ITS exchange between lead and fol over med (a fresh
// Perfect one if nil), both roles stepping in virtual time, and reports
// it as a session in leader-first coordinates: Tx[0] is the leader's.
// Pair and Cluster both negotiate through it.
func exchange(ctx context.Context, med medium.Medium, lead, fol *AP, airtimeUS uint32, now time.Duration, pol RetryPolicy) (*Session, error) {
	span := obs.ChildSpan(ctx, "its.exchange")
	if span != nil {
		ctx = obs.ContextWithSpan(ctx, span.Context())
	}
	timing := mExchangeSeconds.Begin()
	mSessions.Inc()
	if med == nil {
		med = medium.NewPerfect()
	}
	l := newLeader(ctx, lead, fol.Addr, lead.BuildITSInit(airtimeUS), now, pol)
	f := newFollower(ctx, fol, forever, now, pol)
	held, err := simulate(med, l, f)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	s := &Session{
		ControlBytes:    l.stats.ControlBytes + f.stats.ControlBytes,
		Retries:         l.stats.Retries + f.stats.Retries,
		Fallback:        l.dec == nil,
		Cause:           l.stats.Cause,
		ExchangeAirtime: held,
		Deferred:        errors.Is(f.err, ErrDeferred),
		Disagreed:       disagreed(l.dec, f.ack, f.err),
	}
	if l.dec != nil {
		s.Outcome, s.Concurrent = l.dec.Outcome, l.dec.Outcome.Concurrent
		// For sequential verdicts f.tx is the follower's solo COPA-SEQ
		// transmission for its own (deferred) turn.
		s.Tx = [2]*precoding.Transmission{l.dec.LeaderTx, f.tx}
		if s.Concurrent {
			mSessionsConcurrent.Inc()
		}
		mControlBytes.ObserveInt(s.ControlBytes)
	}
	timing.End()
	span.EndErr(l.err)
	return s, nil
}

// MeasuredThroughputs scores a session's transmissions on the pair's true
// channels, returning per-client effective throughput in caller
// coordinates (airtime share and MAC overhead included). For sequential
// sessions each transmitting AP is scored alone at half airtime. A nil
// transmission contributes zero: a deferring follower sits the TXOP
// out, and the leader is scored on what it actually sends. Fallback
// sessions score as plain CSMA: stock beamforming, turn taking,
// CTS-to-self overhead — the paper's baseline.
func (p *Pair) MeasuredThroughputs(s *Session) [2]float64 {
	noise := channel.NoisePerSubcarrierMW()
	ovm := mac.DefaultOverheadModel()
	var out [2]float64
	if s.Fallback {
		out = p.CSMAThroughputs()
		if s.Deferred {
			out[1-s.LeaderIdx] = 0
		}
		return out
	}
	if s.Concurrent {
		oh := ovm.COPAConcOverhead(strategy.DefaultCoherence)
		for j := 0; j < 2; j++ {
			if s.Tx[j] == nil {
				continue
			}
			g := power.GoodputFor(p.Truth.H[j][j], s.Tx[j], p.Truth.H[1-j][j], s.Tx[1-j], noise)
			out[j] = g * (1 - oh - mac.DataOverheadFraction)
		}
		return out
	}
	oh := ovm.COPASeqOverhead(strategy.DefaultCoherence)
	for j := 0; j < 2; j++ {
		if s.Tx[j] == nil {
			continue
		}
		g := power.GoodputFor(p.Truth.H[j][j], s.Tx[j], nil, nil, noise)
		out[j] = g * 0.5 * (1 - oh - mac.DataOverheadFraction)
	}
	return out
}

// CSMAThroughputs scores the pair's plain-CSMA baseline on the true
// channels: each AP beamforms to its own client with equal power, the
// two take turns (half airtime each), and the overhead is CSMA's
// CTS-to-self cost. This is both the comparison baseline for the loss
// sweep and the realized throughput of a Fallback session. An AP with no
// fresh CSI contributes zero.
func (p *Pair) CSMAThroughputs() [2]float64 {
	noise := channel.NoisePerSubcarrierMW()
	var out [2]float64
	for j := 0; j < 2; j++ {
		tx, err := p.AP[j].CSMATransmission(p.clk)
		if err != nil {
			continue
		}
		g := power.GoodputFor(p.Truth.H[j][j], tx, nil, nil, noise)
		out[j] = g * 0.5 * (1 - mac.CSMACTSOverhead() - mac.DataOverheadFraction)
	}
	return out
}
