// Command coparouter is copaserve's sharded front tier: it
// consistent-hashes each allocation request's cache identity across a
// pool of copaserve backends (so the backend pool's LRU caches shard
// the key space instead of duplicating it), hedges requests that
// exceed a p99-derived latency budget to the next backend on the ring,
// and applies priority-class admission so interactive allocations shed
// last and campaign backfill sheds first.
//
// Endpoints:
//
//	POST /v1/allocate   proxied to the home shard, hedged on silence
//	GET  /v1/healthz    pool health + admission state; 503 while draining
//	GET  /debug/...     expvar, metrics snapshot, spans, pprof
//
// Responses through the router are byte-identical to direct copaserve
// responses (scripts/router_smoke.sh cmp's this). SIGTERM/SIGINT flips
// into draining — new work sheds with 503 while in-flight requests
// finish — then exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"copa/internal/cliflags"
	"copa/internal/obs"
	"copa/internal/router"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("coparouter", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7900", "HTTP host:port to serve on (\":0\" picks a port)")
	addrFile := fs.String("addr-file", "", "write the bound base URL to this file once listening (for scripted handoff with \":0\")")
	maxInflight := fs.Int("max-inflight", 256, "interactive admission watermark; requests beyond it shed with 503")
	batchShare := fs.Float64("batch-share", 0.5, "fraction of -max-inflight batch-class requests may occupy")
	coherence := fs.Duration("coherence", 0, "CSI coherence time for shard-key age bucketing (0 = the shared default; must match the backends)")
	healthInterval := fs.Duration("health-interval", 500*time.Millisecond, "active backend health-probe period (negative disables)")
	attemptTimeout := fs.Duration("attempt-timeout", 30*time.Second, "per-backend attempt timeout")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests")
	rf := cliflags.Router(fs)
	dbg := cliflags.Debug(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := obs.Logger()
	if err := rf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	stopDebug, err := dbg.Start()
	if err != nil {
		logger.Error("debug server failed", "addr", dbg.Addr, "err", err)
		return 1
	}
	defer stopDebug()

	rt, err := router.New(router.Config{
		Backends:       rf.Backends,
		Coherence:      *coherence,
		MaxInflight:    *maxInflight,
		BatchShare:     *batchShare,
		PriorityHeader: rf.PriorityHeader,
		HedgeBudget:    rf.HedgeBudget,
		HealthInterval: *healthInterval,
		AttemptTimeout: *attemptTimeout,
	})
	if err != nil {
		logger.Error("router init failed", "err", err)
		return 1
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err)
		return 1
	}
	hs := &http.Server{Handler: rt.Handler()}
	fmt.Fprintf(out, "coparouter listening on http://%s (%s)\n", ln.Addr(), rt)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte("http://"+ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Error("addr-file write failed", "path", *addrFile, "err", err)
			return 1
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Error("http server failed", "err", err)
		return 1
	case <-ctx.Done():
	}
	stop()

	// Drain: shed new allocations (and fail the upstream health check)
	// while requests already dispatched to backends finish.
	fmt.Fprintf(out, "draining (timeout %s)\n", *drainTimeout)
	rt.SetDraining(true)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := hs.Shutdown(dctx); err != nil {
		logger.Error("http drain incomplete", "err", err)
		code = 1
	}
	fmt.Fprintln(out, "drained")
	return code
}
