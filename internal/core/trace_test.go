package core

import (
	"context"
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/medium"
	"copa/internal/obs"
	"copa/internal/strategy"
)

// TestExchangeTraceStitching is the over-the-air half of the tracing
// acceptance criteria: a lead/follow exchange across real UDP sockets
// (the copad topology) must record spans on BOTH ends sharing one
// TraceID — the leader's identity rides inside the INIT frame and the
// follower's its.follow span is parented to the leader's its.exchange.
func TestExchangeTraceStitching(t *testing.T) {
	p := newTestPair(t, 23, channel.Scenario4x2, strategy.ModeMax)
	p.MeasureCSI()
	lead, fol := p.AP[0], p.AP[1]

	medL, err := medium.NewUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer medL.Close()
	medF, err := medium.NewUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer medF.Close()
	if err := medL.AddPeer(fol.Addr, medF.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := medF.AddPeer(lead.Addr, medL.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	// Generous floor: loopback is lossless, so the timeout only has to
	// outlast the leader's strategy evaluation (slow under -race).
	pol := DefaultRetryPolicy()
	pol.TimeoutFloor = 2 * time.Second

	done := make(chan error, 1)
	go func() {
		_, _, _, err := fol.FollowExchange(context.Background(), medF, 5*time.Second, p.Clock(), pol)
		done <- err
	}()
	if _, _, err := lead.LeadExchange(context.Background(), medL, fol.Addr, 4000, p.Clock(), pol); err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("follower: %v", err)
	}

	// Find the leader's exchange root among recent spans, then require
	// the follower's span to be in the SAME trace, parented to it.
	var root obs.SpanRecord
	for _, s := range obs.Tracing().Recent(0) {
		if s.Name == "its.exchange" && s.Trace != "" && s.Parent == "" {
			root = s
			break
		}
	}
	if root.Trace == "" {
		t.Fatal("leader recorded no traced its.exchange root")
	}
	spans := obs.Tracing().TraceSpans(root.Trace)
	byName := map[string]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	follow, ok := byName["its.follow"]
	if !ok {
		t.Fatalf("follower span missing from trace %s; got %d spans", root.Trace, len(spans))
	}
	if follow.Parent != root.ID {
		t.Errorf("its.follow parented to %q, want the leader's its.exchange %q", follow.Parent, root.ID)
	}
	for _, leg := range []string{"its.leg.req", "its.leg.ack"} {
		s, ok := byName[leg]
		if !ok {
			t.Errorf("trace missing leader leg span %s", leg)
			continue
		}
		if s.Parent != root.ID {
			t.Errorf("%s parented to %q, want %q", leg, s.Parent, root.ID)
		}
	}
}

// TestRunExchangeContextStitching checks the in-process variant: a
// simulated Pair exchange under a caller's trace hangs its legs off the
// caller's span through RunExchangeContext.
func TestRunExchangeContextStitching(t *testing.T) {
	p := newTestPair(t, 24, channel.Scenario4x2, strategy.ModeMax)
	p.MeasureCSI()

	ctx, root := obs.StartSpan(context.Background(), "caller")
	if _, err := p.RunExchangeContext(ctx, 4000); err != nil {
		t.Fatal(err)
	}
	rootSC := root.Context()
	root.End()

	spans := obs.Tracing().TraceSpans(rootSC.TraceID.String())
	byName := map[string]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	ex, ok := byName["its.exchange"]
	if !ok {
		t.Fatalf("its.exchange missing from trace; got %d spans", len(spans))
	}
	if ex.Parent != rootSC.SpanID.String() {
		t.Errorf("its.exchange parented to %q, want caller %q", ex.Parent, rootSC.SpanID)
	}
	for _, leg := range []string{"its.leg.req", "its.leg.ack"} {
		if s, ok := byName[leg]; !ok || s.Parent != ex.ID {
			t.Errorf("leg %s missing or misparented (%+v)", leg, s)
		}
	}
}

// TestUntracedExchangeRecordsNoSpans: without a caller's sampled trace
// an exchange records no spans at all — library code only adds child
// spans to a trace someone else started.
func TestUntracedExchangeRecordsNoSpans(t *testing.T) {
	p := newTestPair(t, 25, channel.Scenario4x2, strategy.ModeMax)
	p.MeasureCSI()
	before := obs.Tracing().Total()
	if _, err := p.RunExchange(4000); err != nil {
		t.Fatal(err)
	}
	if got := obs.Tracing().Total(); got != before {
		t.Fatalf("untraced RunExchange recorded %d spans, want 0", got-before)
	}
}
