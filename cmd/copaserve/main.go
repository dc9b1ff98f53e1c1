// Command copaserve is the allocation-as-a-service daemon: an HTTP/JSON
// front end over the pooled, caching evaluator in
// internal/serve. Clients name a deterministic world — scenario, seed,
// impairment profile, CSI age — and get back every strategy's evaluated
// outcome plus the COPA selection, computed once and cached.
//
// Endpoints:
//
//	POST /v1/allocate   {"scenario":"4x2","seed":7,"mode":"max"}
//	GET  /v1/healthz    queue/cache occupancy; 503 while draining
//	GET  /debug/...     expvar, metrics snapshot, spans, pprof
//
// Admission control is explicit: a full queue sheds with 503 and
// Retry-After, a request whose deadline passes while queued gets 504.
// SIGTERM/SIGINT stops accepting work, drains in-flight requests within
// -drain-timeout, and exits 0.
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

	"copa/internal/cliflags"
	"copa/internal/obs"
	"copa/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out *os.File) int {
	def := serve.DefaultConfig()
	fs := flag.NewFlagSet("copaserve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7800", "HTTP host:port to serve on (\":0\" picks a port)")
	workers := fs.Int("workers", def.Workers, "evaluator pool size (one reusable workspace per worker)")
	queue := fs.Int("queue", def.QueueDepth, "admission queue depth; a full queue sheds requests with 503")
	cacheEntries := fs.Int("cache-entries", def.CacheEntries, "result cache bound in entries (negative disables caching)")
	deadline := fs.Duration("deadline", def.DefaultDeadline, "default per-request deadline")
	drainTimeout := fs.Duration("drain-timeout", def.DrainTimeout, "how long shutdown waits for in-flight requests")
	addrFile := fs.String("addr-file", "", "write the bound base URL to this file once listening (for scripted handoff with \":0\")")
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

	cfg := def
	cfg.Workers = *workers
	cfg.QueueDepth = *queue
	cfg.CacheEntries = *cacheEntries
	cfg.DefaultDeadline = *deadline
	cfg.DrainTimeout = *drainTimeout
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err)
		return 1
	}
	hs := &http.Server{Handler: newMux(srv)}
	fmt.Fprintf(out, "copaserve listening on http://%s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), srv.Stats().Workers, *queue, *cacheEntries)
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

	// Drain: stop accepting connections, let in-flight handlers (each
	// blocked in Allocate) finish, then retire the evaluator pool. Both
	// phases share one drain budget.
	fmt.Fprintf(out, "draining (timeout %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := hs.Shutdown(dctx); err != nil {
		logger.Error("http drain incomplete", "err", err)
		code = 1
	}
	if err := srv.Shutdown(dctx); err != nil {
		logger.Error("pool drain incomplete", "err", err)
		code = 1
	}
	fmt.Fprintln(out, "drained")
	return code
}
