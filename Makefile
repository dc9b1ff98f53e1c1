# Development targets for the COPA reproduction. Tier-1 CI is
# `make build test`; `make race vet` is the extended gate this repo's
# observability layer is verified under.

GO ?= go
FUZZTIME ?= 30s
# Canonical perf-gate subset and sampling (see cmd/copabench). Fixed -Nx
# benchtime keeps allocs/op deterministic run to run.
BENCH_PATTERN ?= EquiSNR|EvaluateAll|MercuryBest4x2|EigHermitianBatch|Figure9|ServeAllocate|CampaignUnit|SpanOverhead|OpenMetricsExposition|DriftStep|IncrementalRealloc|ColdRealloc|RouterCachedHit|WireBinaryRoundTrip
BENCH_COUNT ?= 3
BENCH_TIME ?= 5x

# Pinned static-analysis tool versions (see `check`). Installed once into
# .tools/bin, which CI caches alongside the Go build cache.
TOOLS_BIN := $(CURDIR)/.tools/bin
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race bench-test vet staticcheck govulncheck check kernel-equiv bench bench-obs bench-json bench-check bench-baseline fuzz serve loadtest campaign campaign-smoke drift-smoke router-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the conformance gate: vet, the pinned static analyzers, and
# the repo lints (metric naming convention over the full registry).
check: vet staticcheck govulncheck
	$(GO) test -run 'TestMetricNameLint' .

# race includes the obs registry stress test (internal/obs/stress_test.go).
race:
	$(GO) test -race ./...

# bench-test vets and race-tests the benchmark module (bench/, its own
# go.mod): stats degenerate-input properties, BENCHMARK.json↔code
# consistency, and workload smoke tests. `go test ./...` at the root
# does not descend into it.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

vet:
	$(GO) vet ./...

# staticcheck/govulncheck run the pinned tool versions from .tools/bin,
# installing them there on first use (CI restores the directory from the
# module/build cache, so the install is a one-time cost per version
# bump). Environments that cannot reach the module proxy — offline dev
# containers — skip the step with a notice instead of failing `check`;
# CI always has network, so the gate is never silently skipped there.
staticcheck:
	@if [ ! -x $(TOOLS_BIN)/staticcheck ]; then \
		GOBIN=$(TOOLS_BIN) $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) \
		|| { echo "staticcheck: pinned install unavailable (offline?); skipping"; exit 0; }; \
	fi; \
	$(TOOLS_BIN)/staticcheck ./...

govulncheck:
	@if [ ! -x $(TOOLS_BIN)/govulncheck ]; then \
		GOBIN=$(TOOLS_BIN) $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) \
		|| { echo "govulncheck: pinned install unavailable (offline?); skipping"; exit 0; }; \
	fi; \
	$(TOOLS_BIN)/govulncheck ./...

# kernel-equiv is the CI kernel-equivalence gate (DESIGN §13): the
# batched closed-form/unrolled eigensolver and Gram-eig SVD kernels vs
# the generic Jacobi reference (internal/linalg property suites), the
# batched precoding builders vs their scalar counterparts within
# kernelEquivTol (internal/precoding), the closed-form MMSE inverse and
# mercury/water-filling vs their bisection oracles within 1e-9
# (internal/power), and the pinned golden outcome bits plus the COPA+
# goldens (internal/strategy) — all under the race detector. CI runs it
# twice, with GOAMD64=v1 (bit-exact goldens) and v3 (FMA contraction,
# tolerance fallback). internal/strategy runs a second time at
# GOMAXPROCS=1, so the goldens hold both when EvaluateAll hands tasks to
# helper goroutines and when it runs every task inline.
kernel-equiv:
	$(GO) test -race ./internal/linalg ./internal/precoding ./internal/power ./internal/strategy
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/strategy

# bench regenerates every paper figure/table and times the pipeline.
bench:
	$(GO) test -bench=. -benchmem ./...

# bench-obs compares the instrumented hot path against obs.Disabled()
# (the Instrumented/Disabled benchmark pairs in obs_bench_test.go).
bench-obs:
	$(GO) test -run XXX -bench '(EquiSNR|EvaluateAll)(Instrumented|Disabled)' -benchmem -count=$(BENCH_COUNT) .

# bench-json runs the canonical benchmark subset and writes BENCH.json
# (machine-readable ns/op, B/op, allocs/op + host metadata).
bench-json:
	$(GO) run ./cmd/copabench -bench '$(BENCH_PATTERN)' -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) -out BENCH.json

# bench-check is the CI perf gate: rerun the subset and fail on any
# allocs/op increase (exact) or B/op increase beyond 10% vs the
# checked-in baseline. Time is advisory only.
bench-check:
	$(GO) run ./cmd/copabench -bench '$(BENCH_PATTERN)' -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) -out BENCH.json -check -baseline BENCH_baseline.json

# bench-baseline refreshes the checked-in baseline after an intentional
# perf change; commit the result.
bench-baseline:
	$(GO) run ./cmd/copabench -bench '$(BENCH_PATTERN)' -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) -out BENCH_baseline.json

# drift-smoke proves the mobility subsystem's core guarantees under the
# race detector — at speed 0 the controller provably never re-negotiates
# and matches the static path byte for byte, identically-seeded mobile
# runs agree on every statistic, and the incremental re-solve stays both
# within tolerance of and >=3x cheaper than the from-scratch solve —
# then closes the loop with a real copacampaign -mobility sweep.
drift-smoke:
	$(GO) test -race -run 'TestControllerSpeedZeroNeverRenegotiates|TestControllerDeterministicAcrossRuns|TestIncrementalTracksFromScratch|TestControllerChurnForcesFullExchange' -v ./internal/drift
	$(GO) test -race -run 'TestIncrementalReallocSpeedup' -v .
	$(GO) run ./cmd/copacampaign -mobility -topologies 2 -duration 60ms -drift-thresholds 1 -q

# fuzz campaigns the wire-format parsers, the request-path parsers
# (allocate JSON bodies, traceparent headers, a peer's binary trace
# field), the campaign checkpoint reader and the ITS exchange's step
# machines under fuzzed drop/duplicate/corrupt schedules. go test
# accepts one -fuzz target per invocation,
# so each package:target pair runs in turn; every target runs even
# after one fails, the failures are listed, and the exit status is
# non-zero if any failed. FUZZTIME=2m make fuzz for a longer run.
fuzz:
	@failed=; \
	for t in \
		./internal/mac:FuzzITSInitParse \
		./internal/mac:FuzzITSReqParse \
		./internal/mac:FuzzITSAckParse \
		./internal/mac:FuzzUnmarshalSubcarrierMap \
		./internal/csi:FuzzDecodeMatrices \
		./internal/csi:FuzzDecodeDelta \
		./internal/csi:FuzzDecodeLink \
		./internal/campaign:FuzzLoadJournal \
		./internal/api:FuzzDecodeRequestBinary \
		./internal/api:FuzzDecodeResponseBinary \
		./internal/api:FuzzParseRequestJSON \
		./internal/obs:FuzzParseTraceparent \
		./internal/obs:FuzzContextWithRemoteBinary \
		./internal/core:FuzzExchangeSchedule; \
	do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz: $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || failed="$$failed $$name"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz: FAILED:$$failed"; exit 1; fi; \
	echo "fuzz: all targets passed"

# serve runs the allocation daemon on its default port with debug
# endpoints enabled; override SERVE_FLAGS for a different shape.
SERVE_FLAGS ?= -listen 127.0.0.1:7800
serve:
	$(GO) run ./cmd/copaserve $(SERVE_FLAGS)

# loadtest drives the httptest-based serving load/shedding suites
# verbosely: the single-backend suite (mixed cache hits/misses, 503
# shedding, SIGTERM drain) and the front-tier suite (multi-backend
# topology with one backend degraded through a seeded fault-injecting
# transport, hedged p99 SLO, priority shed order).
loadtest:
	$(GO) test -v -run 'TestLoad|TestQueueFull|TestSigterm' ./cmd/copaserve
	$(GO) test -v -run 'TestRouterLoad|TestRouterPriority|TestRouterHedges' ./internal/router

# campaign runs a checkpointed sweep with the paper's population;
# override CAMPAIGN_FLAGS to scale it up (-topologies 100000).
CAMPAIGN_FLAGS ?= -topologies 30 -checkpoint campaign.jsonl -out campaign.json
campaign:
	$(GO) run ./cmd/copacampaign $(CAMPAIGN_FLAGS)

# campaign-smoke is the CI sweep gate: the engine's kill-at-unit-K +
# resume golden tests and the CLI end-to-end suite, under -race.
campaign-smoke:
	$(GO) test -race -run 'TestRun|TestCampaign' ./internal/campaign ./cmd/copacampaign ./internal/testbed

# router-smoke is the CI front-tier gate (DESIGN §15): the router's
# byte-identity, failover, hedging, priority-shedding and churn suites
# under the race detector, then a scripted 3-backend + 1-router run —
# canonical responses through the router cmp'd against a direct
# copaserve, one backend SIGKILLed under mixed-priority load with zero
# accepted interactive requests lost.
router-smoke:
	$(GO) test -race -run 'TestRouter|TestRing|TestLatencyTracker' ./internal/router ./cmd/coparouter ./cmd/copaload
	./scripts/router_smoke.sh

clean:
	$(GO) clean ./...
