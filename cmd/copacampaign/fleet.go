package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"copa/internal/campaign"
	"copa/internal/cliflags"
	"copa/internal/fleet"
	"copa/internal/obs"
)

// runFleetCoordinator serves the campaign to fleet workers and blocks
// until every unit is merged, returning the same Result — byte for
// byte — that campaign.Run would have produced in-process.
//
// -workers N > 0 also contributes N local evaluator loops, joined
// through the same HTTP loopback remote workers use: one code path, and
// a single machine still makes progress before anyone runs -join.
// -workers 0 is a pure coordinator.
func runFleetCoordinator(ctx context.Context, spec campaign.Spec, cf *cliflags.CampaignFlags, ff *cliflags.FleetFlags, progressEvery time.Duration, quiet bool) (*campaign.Result, error) {
	opt := fleet.CoordinatorOptions{
		Checkpoint:    cf.Checkpoint,
		Resume:        cf.Resume,
		LeaseTTL:      ff.LeaseTTL,
		ProgressEvery: progressEvery,
	}
	if !quiet {
		opt.OnProgress = func(p campaign.Progress) {
			fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d units", p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	coord, err := fleet.NewCoordinator(ctx, spec, opt)
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", ff.Coordinator)
	if err != nil {
		return nil, fmt.Errorf("coordinator listen on %s: %w", ff.Coordinator, err)
	}
	stop := serveHTTP(ln, coord.Handler(), 5*time.Second)
	defer stop()
	base := "http://" + ln.Addr().String()
	obs.Logger().Info("fleet coordinator listening", "url", base, "units", spec.Units())
	if ff.AddrFile != "" {
		if err := os.WriteFile(ff.AddrFile, []byte(base+"\n"), 0o644); err != nil {
			return nil, fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	if cf.Workers > 0 {
		go func() {
			if err := fleet.RunWorker(ctx, base, fleet.WorkerOptions{Parallel: cf.Workers, Name: "local"}); err != nil && ctx.Err() == nil {
				obs.Logger().Error("local fleet worker failed", "err", err)
			}
		}()
	}
	return coord.Wait(ctx)
}

// serveHTTP serves h on ln until the returned stop is called. stop
// shuts down gracefully, waiting up to drain for in-flight requests:
// the RPC that completes the campaign unblocks Wait before its response
// is flushed, and a hard close would cut that response off, leaving the
// worker retrying against a closed port. A drain timeout is ignored;
// the run is over either way.
func serveHTTP(ln net.Listener, h http.Handler, drain time.Duration) (stop func()) {
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}

// runFleetWorker joins a coordinator and evaluates until the campaign
// completes. The worker has no spec of its own — it takes the
// coordinator's, refusing on a fingerprint mismatch.
func runFleetWorker(ctx context.Context, cf *cliflags.CampaignFlags, ff *cliflags.FleetFlags) error {
	return fleet.RunWorker(ctx, ff.Join, fleet.WorkerOptions{Parallel: cf.Workers})
}
