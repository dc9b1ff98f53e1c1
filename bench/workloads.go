package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"copa/internal/api"
	"copa/internal/rng"
	"copa/internal/serve"
)

// params is what every workload run receives from the command line.
type params struct {
	seed    int64
	window  time.Duration // the measured window, --seconds
	workdir string        // scratch files, inside the checkout
}

// workload is one set of inputs the benchmark runs. Why is recorded in
// BENCHMARK.json and README.md: which layers it stresses and which
// optimisation it should (or should not) show.
type workload struct {
	name, why string
	run       func(context.Context, params) (*outcome, error)
}

var workloads = []workload{
	{"serve-hot", "Zipf requests over 256 primed keys at 2000 req/s: api codec, router hop and serve cache do all the work, the evaluator none",
		func(ctx context.Context, p params) (*outcome, error) { return serveHot(ctx, p, defaultHot) }},
	{"serve-cold", "every world new at 4 worlds/s as max+fair pairs: the evaluator, queue, batching and dedup do the work",
		func(ctx context.Context, p params) (*outcome, error) { return serveCold(ctx, p, defaultCold) }},
	{"figure", "the Fig. 11 population through campaign.Run with COPA+: what a researcher waits for, mostly power.MercuryBest",
		func(ctx context.Context, p params) (*outcome, error) { return figure(ctx, p, defaultFigure) }},
	{"drift", "six drift controllers (3 pedestrian, 3 vehicular) ticking in lockstep: ITS exchange, CSI deltas, warm power path",
		func(ctx context.Context, p params) (*outcome, error) { return driftRounds(ctx, p, defaultDrift) }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Stream domains: every input is derived from the run seed through
// rng.Derive with one of these, so the same seed gives the same inputs
// and the workloads' inputs are independent of each other.
const (
	domainHot = iota + 0xbe0c
	domainCold
	domainWarm
	domainDrift
	domainLedger
)

// hotConfig sizes serve-hot.
type hotConfig struct {
	scenario string  // of every world: 4x2; tests use the cheaper 1x1
	worlds   int     // distinct worlds, each requested in both modes
	rate     float64 // requests per second
	setups   int     // set-ups timed; setup_s is their median
}

var defaultHot = hotConfig{scenario: "4x2", worlds: 128, rate: 2000, setups: 3}

// replyChecks is how many replies per serving run are compared with a
// direct Allocate.
const replyChecks = 8

// hotKeys lists the 2·worlds primed requests: world w's max request is
// key 2w, its fair request 2w+1.
func hotKeys(seed int64, cfg hotConfig) []api.AllocateRequest {
	keys := make([]api.AllocateRequest, 0, 2*cfg.worlds)
	for w := 0; w < cfg.worlds; w++ {
		s := rng.Derive(seed, domainHot, uint64(w))
		keys = append(keys,
			api.AllocateRequest{Scenario: cfg.scenario, Seed: s, Mode: "max"},
			api.AllocateRequest{Scenario: cfg.scenario, Seed: s, Mode: "fair"})
	}
	return keys
}

// count is how many arrivals rate per second makes over window.
func count(rate float64, window time.Duration) int {
	return int(math.Round(rate * window.Seconds()))
}

// hotSchedule draws the arrivals, each naming a world by Zipf(1.1)
// popularity, a mode, and a codec (half JSON, half binary).
func hotSchedule(r *rand.Rand, cfg hotConfig, window time.Duration) []arrival {
	zipf := rand.NewZipf(r, 1.1, 1, uint64(cfg.worlds-1))
	var sched []arrival
	for _, at := range arrivalTimes(r, count(cfg.rate, window), window) {
		w := int(zipf.Uint64())
		sched = append(sched, arrival{at: at, key: 2*w + r.Intn(2), binary: r.Intn(2) == 1})
	}
	return sched
}

// primeBatch is how many keys prime has in flight: two worlds' max and
// fair requests, enough to keep both backends' evaluators busy.
const primeBatch = 4

// prime requests every key once through the router, so each lands in its
// home backend's cache.
func prime(ctx context.Context, st *stack, keys []api.AllocateRequest) error {
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i := 0; i < len(keys); i += primeBatch {
		for j := i; j < min(i+primeBatch, len(keys)); j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				if rep := st.do(ctx, nil, keys[j], false); !rep.ok() {
					errs[j] = fmt.Errorf("priming %+v: %v", keys[j], rep.err)
				}
			}(j)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timedSetups runs setup n times and returns the median duration in
// seconds together with the last setup's product; earlier products are
// released with drop.
func timedSetups[T any](n int, setup func(i int) (T, error), drop func(T)) (float64, T, error) {
	var last T
	var secs []float64
	for i := 0; i < max(n, 1); i++ {
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			if i > 0 {
				drop(last)
			}
			return 0, last, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			drop(last)
		}
		last = v
	}
	return Median(secs), last, nil
}

// serveHot runs the hot-cache serving workload.
func serveHot(ctx context.Context, p params, cfg hotConfig) (*outcome, error) {
	o := newOutcome()
	keys := hotKeys(p.seed, cfg)
	setup, st, err := timedSetups(cfg.setups, func(int) (*stack, error) {
		st, err := newStack(nil)
		if err != nil {
			return nil, err
		}
		if err := prime(ctx, st, keys); err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	}, (*stack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	o.values["setup_s"] = setup

	r := rand.New(rand.NewSource(p.seed))
	sched := hotSchedule(r, cfg, p.window)
	keep := sampleIndices(r, len(sched), replyChecks)
	settle()
	res := runOpenLoop(ctx, st, nil, keys, sched, keep)
	res.summarize(o)
	return o, finishServe(o, keys, sched, res, keep)
}

// finishServe runs the reference check and reads peak memory.
func finishServe(o *outcome, keys []api.AllocateRequest, sched []arrival, res openLoop, keep []int) error {
	ref := serve.New(serve.Config{Workers: 1})
	defer ref.Close()
	if err := checkReplies(ref, keys, sched, res.replies, keep); err != nil {
		o.fail("%v", err)
	}
	rss, err := peakRSSMB()
	o.values["peak_rss_mb"] = rss
	return err
}

// coldConfig sizes serve-cold.
type coldConfig struct {
	scenarios []string // dealt in equal shares over the worlds; tests use only 1x1
	worldRate float64  // new worlds per second, each a max+fair pair
	setups    int
}

// 4 worlds/s keeps each backend's evaluator under a tenth busy. The
// tail is made of requests queued behind another evaluation or waiting
// for a processor one holds, so it grows with the load and, more, with
// any slowdown of the machine: at 12 worlds/s its p98 read 73–120 ms
// across interleaved runs of two seeds, and over six interleaved seeds
// its spread was 0.39 at 6 worlds/s and 0.20 at 4.
var defaultCold = coldConfig{scenarios: []string{"1x1", "4x2", "3x2"}, worldRate: 4, setups: 5}

// coldSchedule draws the world arrivals over the window; each world is
// new, and its max and fair requests are due at the same instant — the
// two APs of a pair after one ITS exchange. The scenarios are dealt in
// equal shares (to within one) in seeded order: an evaluation's cost
// depends mostly on its scenario, so a drawn mix would make the seed,
// not the program, move the result.
func coldSchedule(r *rand.Rand, seed int64, cfg coldConfig, window time.Duration) ([]api.AllocateRequest, []arrival) {
	var keys []api.AllocateRequest
	var sched []arrival
	times := arrivalTimes(r, count(cfg.worldRate, window), window)
	deal := r.Perm(len(times))
	for i, at := range times {
		sc := cfg.scenarios[deal[i]%len(cfg.scenarios)]
		s := rng.Derive(seed, domainCold, uint64(i))
		keys = append(keys,
			api.AllocateRequest{Scenario: sc, Seed: s, Mode: "max"},
			api.AllocateRequest{Scenario: sc, Seed: s, Mode: "fair"})
		sched = append(sched, arrival{at: at, key: 2 * i}, arrival{at: at, key: 2*i + 1})
	}
	return keys, sched
}

// warmStack builds a serving stack and runs one world of each scenario
// through it, outside the workload's key space, so lazily built state
// is in place before the window opens.
func warmStack(ctx context.Context, tr *tracer, seed int64, scenarios []string, i int) (*stack, error) {
	st, err := newStack(tr)
	if err != nil {
		return nil, err
	}
	for k, sc := range scenarios {
		req := api.AllocateRequest{Scenario: sc, Seed: rng.Derive(seed, domainWarm, uint64(i*len(scenarios)+k))}
		if rep := st.do(ctx, nil, req, false); !rep.ok() {
			st.close()
			return nil, fmt.Errorf("warm-up %+v: %v", req, rep.err)
		}
	}
	return st, nil
}

// serveCold runs the cold-world serving workload.
func serveCold(ctx context.Context, p params, cfg coldConfig) (*outcome, error) {
	o := newOutcome()
	setup, st, err := timedSetups(cfg.setups, func(i int) (*stack, error) {
		return warmStack(ctx, nil, p.seed, cfg.scenarios, i)
	}, (*stack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	o.values["setup_s"] = setup

	r := rand.New(rand.NewSource(p.seed))
	keys, sched := coldSchedule(r, p.seed, cfg, p.window)
	keep := sampleIndices(r, len(sched), replyChecks)
	settle()
	res := runOpenLoop(ctx, st, nil, keys, sched, keep)
	res.summarize(o)
	return o, finishServe(o, keys, sched, res, keep)
}
