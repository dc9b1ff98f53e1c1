package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"copa/internal/campaign"
	"copa/internal/channel"
	"copa/internal/cliflags"
	"copa/internal/drift"
	"copa/internal/obs"
	"copa/internal/rng"
	"copa/internal/serve"
)

// The traced run: shortened versions of all four workloads, each
// measuring the layers it exercises, in one process. Its numbers are the
// per-layer metrics; end-to-end numbers come from untraced runs only.

// traceConfig sizes the traced suite from the window, so a traced run
// costs about what an untraced one does.
type traceConfig struct {
	hot              hotConfig
	hotPhase         time.Duration // untraced, then traced, each this long
	cold             coldConfig
	coldPhase        time.Duration
	ledgerWorlds     int // serve-cold worlds replayed
	figure           figureConfig
	figureTopologies int // campaign size
	drift            driftConfig
	driftRounds      int
	pollEvery        time.Duration // obs ring poll period
	spansPath        string
}

func defaultTraceConfig(window time.Duration, spansPath string) traceConfig {
	return traceConfig{
		hot:              defaultHot,
		hotPhase:         window / 10,
		cold:             defaultCold,
		coldPhase:        window * 3 / 10,
		ledgerWorlds:     24,
		figure:           defaultFigure,
		figureTopologies: 2,
		drift:            defaultDrift,
		driftRounds:      max(int(2*window.Seconds()), 4),
		pollEvery:        10 * time.Millisecond,
		spansPath:        spansPath,
	}
}

// reading brackets a phase with two registry snapshots.
type reading struct{ a, b obs.Snapshot }

func (r reading) count(names ...string) float64 {
	var n float64
	for _, name := range names {
		n += float64(r.b.Counters[name] - r.a.Counters[name])
	}
	return n
}

func (r reading) timerCount(name string) float64 {
	return float64(r.b.Timers[name].Count - r.a.Timers[name].Count)
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Mean(xs)
}

// pct is Percentile with 0 for an empty sample: a layer that did no work
// of that kind in the traced run reads 0.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Percentile(xs, p)
}

// suite carries the traced run's shared state.
type suite struct {
	p        params
	cfg      traceConfig
	tr       *tracer
	o        *outcome
	recorded int // program spans recorded while collecting
	lost     int // of which overwritten before a poll saw them
}

// collecting runs f while the ring collector copies program spans, and
// returns every span (benchmark and program) recorded meanwhile.
func (s *suite) collecting(f func() error) ([]spanRec, reading, error) {
	n0 := len(s.tr.snapshot())
	var rd reading
	rd.a = obs.Default().Snapshot()
	c := collectRing(s.tr, s.cfg.pollEvery)
	err := f()
	rec, lost := c.finish()
	rd.b = obs.Default().Snapshot()
	s.recorded += rec
	s.lost += lost
	return s.tr.snapshot()[n0:], rd, err
}

func tracedSuite(ctx context.Context, p params, cfg traceConfig) (*outcome, error) {
	s := &suite{p: p, cfg: cfg, tr: &tracer{}, o: newOutcome()}
	defer obs.SetTraceSampling(0)
	for _, part := range []func(context.Context) error{s.hot, s.cold, s.figure, s.drift} {
		if err := part(ctx); err != nil {
			return nil, err
		}
	}
	spans := s.tr.snapshot()
	bench := 0
	for _, sp := range spans {
		if sp.Source == "bench" {
			bench++
		}
	}
	s.o.values["obs.spans_lost_frac"] = ratio(float64(s.lost), float64(s.recorded+bench))
	s.o.info["spans"] = float64(len(spans))
	if cfg.spansPath != "" {
		if err := s.tr.writeJSON(cfg.spansPath); err != nil {
			return nil, err
		}
	}
	return s.o, nil
}

// hot runs serve-hot untraced, then traced, on one primed stack.
func (s *suite) hot(ctx context.Context) error {
	o := s.o
	keys := hotKeys(s.p.seed, s.cfg.hot)
	obs.SetTraceSampling(0)
	st, err := newStack(s.tr)
	if err != nil {
		return err
	}
	defer st.close()
	if err := prime(ctx, st, keys); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(s.p.seed))
	untraced := hotSchedule(r, s.cfg.hot, s.cfg.hotPhase)
	traced := hotSchedule(r, s.cfg.hot, s.cfg.hotPhase)

	settle()
	rt0 := readRuntime()
	un := runOpenLoop(ctx, st, nil, keys, untraced, nil)
	setRuntimeMetrics(o, rt0, readRuntime(), len(untraced))
	o.values["loadgen.lag_p50_ms"], o.values["loadgen.lag_p99_ms"] = un.lagQuantiles()

	obs.SetTraceSampling(1)
	var tw openLoop
	spans, rd, _ := s.collecting(func() error {
		tw = runOpenLoop(ctx, st, s.tr, keys, traced, nil)
		return nil
	})
	obs.SetTraceSampling(0)
	for _, w := range []openLoop{un, tw} {
		for _, ok := range w.ok {
			o.attempted++
			if !ok {
				o.failed++
			}
		}
	}
	perUn := un.totalCPU().Seconds() / float64(max(len(untraced), 1))
	perTr := tw.totalCPU().Seconds() / float64(max(len(traced), 1))
	o.values["obs.trace_overhead_frac"] = ratio(perTr-perUn, perUn)

	ix := indexSpans(spans)
	var routerSelf, handlerSelf []float64
	for _, sp := range spans {
		switch sp.Name {
		case "router.serve":
			routerSelf = append(routerSelf, us(selfTime(sp, ix.below(sp, "api.handler"))))
		case "api.handler":
			handlerSelf = append(handlerSelf, us(selfTime(sp, ix.below(sp, "serve.allocate"))))
		}
	}
	o.values["router.self_us"] = mean(routerSelf)
	o.values["api.handler_self_us"] = mean(handlerSelf)
	o.values["api.encode_us"] = mean(durations(spans, "api.encode", time.Microsecond))
	o.values["api.decode_us"] = mean(durations(spans, "api.decode", time.Microsecond))
	o.values["serve.allocate_us"] = mean(durations(spans, "serve.allocate", time.Microsecond))
	o.values["serve.cache_hit_frac"] = ratio(rd.count("copa.serve.cache_hits"), rd.count("copa.serve.requests"))
	// The request's own span against the layers it decomposes into.
	req := mean(durations(spans, "client.request", time.Microsecond))
	o.info["hot.request_us"] = req
	o.info["hot.unexplained_us"] = req - o.values["router.self_us"] - o.values["api.handler_self_us"] -
		o.values["serve.allocate_us"] - o.values["api.encode_us"] - o.values["api.decode_us"]
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cold runs serve-cold traced, then replays some of its worlds through
// the evaluation ledger.
func (s *suite) cold(ctx context.Context) error {
	o := s.o
	obs.SetTraceSampling(0)
	st, err := warmStack(ctx, s.tr, s.p.seed, s.cfg.cold.scenarios, 0)
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(s.p.seed))
	keys, sched := coldSchedule(r, s.p.seed, s.cfg.cold, s.cfg.coldPhase)
	obs.SetTraceSampling(1)
	var res openLoop
	spans, rd, _ := s.collecting(func() error {
		res = runOpenLoop(ctx, st, s.tr, keys, sched, nil)
		return nil
	})
	obs.SetTraceSampling(0)
	st.close()
	for _, ok := range res.ok {
		o.attempted++
		if !ok {
			o.failed++
		}
	}
	reqs := rd.count("copa.router.requests")
	serveReqs := rd.count("copa.serve.requests")
	o.values["router.hedges_per_req"] = ratio(rd.count("copa.router.hedges"), reqs)
	o.values["router.retries_per_req"] = ratio(rd.count("copa.router.retries"), reqs)
	o.values["router.shed_frac"] = ratio(rd.count("copa.router.shed_interactive", "copa.router.shed_batch", "copa.router.shed_draining"), reqs)
	o.values["serve.evals_per_req"] = ratio(rd.timerCount("copa.serve.evaluate_seconds"), reqs)
	o.values["serve.batch_shared_frac"] = ratio(rd.count("copa.serve.batch_shared_evals"), reqs)
	o.values["serve.inflight_dedup_frac"] = ratio(rd.count("copa.serve.inflight_dedup"), reqs)
	o.values["serve.shed_frac"] = ratio(rd.count("copa.serve.shed_queue_full", "copa.serve.shed_expired", "copa.serve.shed_closed"), serveReqs)
	queue := durations(spans, "serve.queue", time.Millisecond)
	o.values["serve.queue_ms_p50"] = pct(queue, 0.5)
	o.values["serve.queue_ms_p99"] = pct(queue, 0.99)
	o.values["serve.evaluate_ms_p50"] = pct(durations(spans, "serve.evaluate", time.Millisecond), 0.5)

	l := newLedger()
	imp := channel.DefaultImpairments().AgedForBucket(0, serve.AgeBuckets)
	for i := 0; i < min(s.cfg.ledgerWorlds, len(keys)/2); i++ {
		k := keys[2*i]
		sc, err := cliflags.ParseScenario(k.Scenario)
		if err != nil {
			return err
		}
		o.attempted++
		if err := l.replay(sc, imp, serveWorld(sc, k.Seed), false); err != nil {
			o.failed++
			o.fail("ledger world %s/%d: %v", k.Scenario, k.Seed, err)
		}
	}
	l.report(o)
	return nil
}

// figure runs a short traced campaign and replays one figure topology
// through both of the campaign's passes.
func (s *suite) figure(ctx context.Context) error {
	o := s.o
	cfg := s.cfg.figure
	run, err := prepareFigure(s.p, cfg.scenario, cfg.skipPlus, s.cfg.figureTopologies, 0)
	if err != nil {
		return err
	}
	defer run.remove()
	workers := runtime.GOMAXPROCS(0)
	var wall time.Duration
	spans, _, err := s.collecting(func() error {
		fctx, sp := s.tr.start(ctx, "campaign")
		defer sp.end()
		t0 := time.Now()
		_, err := campaign.Run(fctx, run.spec, campaign.Options{Workers: workers, Checkpoint: run.journal})
		wall = time.Since(t0)
		return err
	})
	o.attempted += s.cfg.figureTopologies
	if err != nil {
		o.failed += s.cfg.figureTopologies
		o.fail("traced campaign: %v", err)
	}
	units := durations(spans, "campaign.unit", time.Second)
	var busy float64
	for _, u := range units {
		busy += u
	}
	o.values["campaign.unit_s_p50"] = pct(units, 0.5)
	o.values["campaign.worker_busy_frac"] = ratio(busy, float64(workers)*wall.Seconds())

	l := newLedger()
	sc := cfg.scenario
	w := func() (*channel.Deployment, *rng.Source) {
		return channel.DeploymentAt(s.p.seed, sc, 0), rng.NewSub(s.p.seed, domainLedger)
	}
	passes := []bool{false, true}
	if cfg.skipPlus {
		passes = passes[:1]
	}
	for _, plus := range passes {
		o.attempted++
		if err := l.replay(sc, channel.DefaultImpairments(), w, plus); err != nil {
			o.failed++
			o.fail("figure ledger (COPA+ %t): %v", plus, err)
		}
	}
	o.values["power.mercury_calls_per_topology"] = float64(l.power.mercury)
	o.values["power.figure_solve_frac"] = ratio(l.power.solveSec, l.allSec)
	o.values["ledger.figure_remainder_frac"] = l.remainderFrac()
	return nil
}

// drift runs the six controllers for a fixed number of traced rounds,
// classifying every Tick by what its Stats delta says it did.
func (s *suite) drift(context.Context) error {
	o := s.o
	ctls, err := newControllers(s.p.seed, s.cfg.drift.profiles)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var steady, incremental, exchange []float64
	hook := func(c int, start time.Time, d time.Duration, before, after drift.Stats) {
		s.tr.record("drift.tick", start, d)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case after.Exchanges > before.Exchanges:
			exchange = append(exchange, d.Seconds()*1e3)
		case after.Incremental > before.Incremental:
			incremental = append(incremental, d.Seconds()*1e3)
		default:
			steady = append(steady, d.Seconds()*1e6)
		}
	}
	res := runRounds(ctls, s.cfg.driftRounds, time.Time{}, hook, nil)
	o.attempted += len(res.latency)
	o.failed += res.failedRounds

	var sum drift.Stats
	for _, c := range ctls {
		st := c.Stats()
		sum.Exchanges += st.Exchanges
		sum.Renegotiations += st.Renegotiations
		sum.Incremental += st.Incremental
		sum.CertRevocations += st.CertRevocations
		sum.ControlBytes += st.ControlBytes
		sum.FullCSIBytes += st.FullCSIBytes
		sum.DeltaCSIBytes += st.DeltaCSIBytes
		sum.Elapsed += st.Elapsed
	}
	simS := sum.Elapsed.Seconds()
	o.values["drift.tick_steady_us"] = pct(steady, 0.5)
	o.values["drift.tick_incremental_ms"] = pct(incremental, 0.5)
	o.values["drift.tick_exchange_ms"] = pct(exchange, 0.5)
	o.values["drift.exchanges_per_sim_s"] = ratio(float64(sum.Exchanges), simS)
	o.values["drift.incremental_frac"] = ratio(float64(sum.Incremental), float64(sum.Incremental+sum.Renegotiations))
	o.values["drift.cert_revocations_per_sim_s"] = ratio(float64(sum.CertRevocations), simS)
	o.values["core.control_bytes_per_exchange"] = ratio(float64(sum.ControlBytes), float64(sum.Exchanges))
	o.values["csi.delta_bytes_frac"] = ratio(float64(sum.DeltaCSIBytes), float64(sum.DeltaCSIBytes+sum.FullCSIBytes))
	o.info["drift.ticks"] = float64(len(steady) + len(incremental) + len(exchange))
	return nil
}
