// Command copad runs one COPA AP as a live daemon: the ITS exchange
// crosses real UDP sockets instead of the simulator's in-memory medium.
// Start one process per AP — a leader and a follower — and they negotiate
// a power-allocation strategy exactly as the simulated pair does, with
// airtime-derived timeouts, bounded retries, and CSMA fallback when the
// control channel is too lossy.
//
// Both processes must share -seed and -scenario: each deterministically
// rebuilds the same deployment (channels and CSI) and drives its own AP
// over the wire, so only ITS frames cross the network.
//
// Typical two-terminal session:
//
//	copad -listen 127.0.0.1:7701 -peer 127.0.0.1:7702 -lead
//	copad -listen 127.0.0.1:7702 -peer 127.0.0.1:7701
//
// Add -loss 0.5 to either side to inject seeded frame loss on top of the
// socket; at -loss 1 the exchange exhausts its retries and exits 0
// reporting the CSMA fallback. A follower whose REQ went out but that
// heard no verdict exits 0 reporting that it defers for the TXOP.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"copa/internal/channel"
	"copa/internal/cliflags"
	"copa/internal/core"
	"copa/internal/mac"
	"copa/internal/medium"
	"copa/internal/obs"
	"copa/internal/rng"
	"copa/internal/strategy"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("copad", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7701", "UDP host:port this AP listens on")
	peer := fs.String("peer", "127.0.0.1:7702", "UDP host:port of the other AP")
	lead := fs.Bool("lead", false, "run the leader role (AP 0); the peer follows (AP 1)")
	seed := cliflags.Seed(fs, 1)
	scenario := cliflags.Scenario(fs, "4x2", "antenna scenario: 1x1, 4x2, 3x2 (both processes must match)")
	mode := cliflags.Mode(fs, "max", "leader selection mode: max or fair")
	airtimeUS := fs.Uint("airtime-us", 4000, "announced TXOP airtime in µs")
	retries := fs.Int("retries", 4, "attempt budget per exchange leg")
	loss := fs.Float64("loss", 0, "injected control-frame loss probability on this side")
	burst := fs.Float64("burst", 1, "mean loss-burst length in frames (>1 enables Gilbert–Elliott)")
	wait := fs.Duration("wait", 10*time.Second, "follower: how long to wait for the leader's INIT")
	legTimeout := fs.Duration("leg-timeout", 250*time.Millisecond, "per-leg timeout floor over real sockets")
	dbg := cliflags.Debug(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopDebug, err := dbg.Start()
	if err != nil {
		obs.Logger().Error("debug server failed", "addr", dbg.Addr, "err", err)
		return 1
	}
	defer stopDebug()
	logger := obs.Logger()
	sc, m := *scenario, *mode

	// Rebuild the shared deployment: same seed → same channels, same CSI
	// caches on both sides. The -lead process drives AP 0.
	src := rng.New(*seed)
	dep := channel.NewDeployment(src.Split(1), sc)
	pair := core.NewPair(dep, channel.DefaultImpairments(), strategy.DefaultCoherence, m, src.Split(2))
	pair.MeasureCSI()
	self, other := 0, 1
	if !*lead {
		self, other = 1, 0
	}
	ap := pair.AP[self]

	udp, err := medium.NewUDP(*listen)
	if err != nil {
		logger.Error("listen failed", "err", err)
		return 1
	}
	defer udp.Close()
	if err := udp.AddPeer(pair.AP[other].Addr, *peer); err != nil {
		logger.Error("bad peer", "err", err)
		return 1
	}
	var med medium.Medium = udp
	if *loss > 0 || *burst > 1 {
		med = medium.NewFaulty(udp, medium.Config{Loss: *loss, MeanBurst: *burst}, rng.New(*seed+0x10AD))
		fmt.Fprintf(out, "injecting loss=%.0f%% burst=%.1f on top of UDP\n", *loss*100, *burst)
	}

	pol := core.DefaultRetryPolicy()
	pol.MaxTries = *retries
	pol.TimeoutFloor = *legTimeout

	role := "follower"
	if *lead {
		role = "leader"
	}
	fmt.Fprintf(out, "copad %s: AP %v on %s, peer %v at %s, scenario %s, seed %d\n",
		role, ap.Addr, udp.LocalAddr(), pair.AP[other].Addr, *peer, sc.Name, *seed)

	ctx := context.Background()
	if *lead {
		dec, stats, err := ap.LeadExchange(ctx, med, pair.AP[other].Addr, uint32(*airtimeUS), 0, pol)
		if err != nil {
			return report(out, logger, stats, err)
		}
		fmt.Fprintf(out, "exchange complete: %d control bytes, %d retries\n", stats.ControlBytes, stats.Retries)
		printTrace(out)
		printOutcome(out, "negotiated", dec.Outcome)
		return 0
	}

	ack, tx, stats, err := ap.FollowExchange(ctx, med, *wait, 0, pol)
	if err != nil {
		return report(out, logger, stats, err)
	}
	fmt.Fprintf(out, "exchange complete: %d control bytes, %d retries\n", stats.ControlBytes, stats.Retries)
	printTrace(out)
	verdict := "sequential (defer this TXOP, transmit solo next turn)"
	if ack.Decision == mac.DecideConcurrent {
		verdict = "concurrent (transmit the leader's precoder and powers now)"
	}
	fmt.Fprintf(out, "verdict: %s\n", verdict)
	if tx != nil {
		fmt.Fprintf(out, "follower tx: %d mW total across subcarriers\n", int(tx.TotalPowerMW()))
	}
	return 0
}

// printTrace names the exchange's trace, if one was recorded, so the
// operator can correlate the two processes' -trace-out dumps (the
// leader's trace ID crosses the air inside the INIT frame).
func printTrace(out *os.File) {
	for _, s := range obs.Tracing().Recent(0) {
		if s.Trace != "" && (s.Name == "its.exchange" || s.Name == "its.follow") {
			fmt.Fprintf(out, "trace: %s\n", s.Trace)
			return
		}
	}
}

// report prints a failed exchange's outcome. A CSMA fallback and a
// follower's deferral are clean exits (the protocol degraded as
// designed); anything else is an error.
func report(out *os.File, logger interface {
	Error(msg string, args ...any)
}, stats core.ExchangeStats, err error) int {
	switch {
	case errors.Is(err, core.ErrFallback):
		fmt.Fprintf(out, "CSMA fallback after %d retries (cause: %v): no strategy negotiated — reverting to stock 802.11 for this coherence time\n", stats.Retries, stats.Cause)
	case errors.Is(err, core.ErrDeferred):
		fmt.Fprintf(out, "deferring after %d retries (cause: %v): REQ sent but no verdict heard — staying silent for this TXOP\n", stats.Retries, stats.Cause)
	default:
		logger.Error("exchange failed", "err", err, "cause", stats.Cause)
		return 1
	}
	return 0
}

func printOutcome(out *os.File, label string, o strategy.Outcome) {
	kind := "sequential"
	if o.Concurrent {
		kind = "concurrent"
	}
	fmt.Fprintf(out, "%s strategy: %v (%s, SDA=%v)\n", label, o.Kind, kind, o.SDA)
	fmt.Fprintf(out, "predicted throughput: client1 %.1f Mb/s, client2 %.1f Mb/s (aggregate %.1f)\n",
		o.Predicted[0]/1e6, o.Predicted[1]/1e6, (o.Predicted[0]+o.Predicted[1])/1e6)
}
