package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"copa/internal/channel"
	"copa/internal/drift"
	"copa/internal/rng"
)

// driftConfig sizes the drift workload.
type driftConfig struct {
	// profiles gives controller i its mobility. Vehicular controllers
	// come first: their ticks are the longest (an ITS exchange on nearly
	// every tick), so a round finishes soonest when they start first.
	profiles []drift.Profile
	setups   int
	// checkRounds is how many rounds of the seed-chosen controller are
	// re-run serially for the Stats check.
	checkRounds int
}

var defaultDrift = driftConfig{
	profiles: []drift.Profile{
		drift.Vehicular, drift.Vehicular, drift.Vehicular,
		drift.Pedestrian, drift.Pedestrian, drift.Pedestrian,
	},
	setups:      5,
	checkRounds: 40,
}

// driftTestbed is the seed of the testbed the controllers run on. A
// controller's cost depends mostly on its deployment — across
// deployments a pedestrian pair renegotiates on 14% to 84% of its ticks
// — so drawing deployments from the run seed would make the seed, not
// the program, move the result. The deployments are therefore fixed
// (topologies 0–5 of the seed-1 4x2 testbed, the population copasim's
// figures use) and the run seed drives every controller's own streams:
// channel evolution, CSI measurement noise and the ITS exchanges.
const driftTestbed = 1

// newController builds controller i, with the given mobility, on
// topology i of the drift testbed.
func newController(seed int64, i int, prof drift.Profile) *drift.Controller {
	cfg := drift.DefaultConfig()
	cfg.SpeedMps = prof.SpeedMps
	cfg.Seed = rng.Derive(seed, domainDrift, uint64(i))
	// No timeline events are configured, so the duration bound is moot.
	return drift.NewController(channel.DeploymentAt(driftTestbed, channel.Scenario4x2, i), time.Hour, cfg)
}

// newControllers builds every controller and runs its first Tick, which
// is the initial full ITS exchange: set-up, not steady-state work.
func newControllers(seed int64, profiles []drift.Profile) ([]*drift.Controller, error) {
	ctls := make([]*drift.Controller, len(profiles))
	for i := range ctls {
		ctls[i] = newController(seed, i, profiles[i])
		if err := ctls[i].Tick(); err != nil {
			return nil, fmt.Errorf("controller %d initial exchange: %w", i, err)
		}
	}
	return ctls, nil
}

// tickHook observes one Tick: the controller, when it started and how
// long it took, and its Stats before and after. It is called from the
// worker goroutines.
type tickHook func(c int, start time.Time, d time.Duration, before, after drift.Stats)

// roundRun is the result of running rounds.
type roundRun struct {
	latency      []float64 // per round, ms
	failedRounds int
	// at and cpu are the wall clock and process CPU time at every round
	// boundary: before the first round and after each one.
	at  []time.Time
	cpu []time.Duration
}

// roundsPerSlice is the fewest rounds a slice of the window summarizes.
const roundsPerSlice = 20

// sliced splits the rounds into up to maxChunks consecutive slices and
// returns the medians over slices of CPU per round (µs) and rounds per
// second, so a few seconds of interference from outside the benchmark
// moves one slice, not the result.
func (r roundRun) sliced() (cpuPerRound, perSecond float64) {
	n := len(r.latency)
	k := max(1, min(maxChunks, n/roundsPerSlice))
	var cpu, rate []float64
	for j := 0; j < k; j++ {
		lo, hi := j*n/k, (j+1)*n/k
		if hi == lo {
			continue
		}
		cpu = append(cpu, (r.cpu[hi]-r.cpu[lo]).Seconds()*1e6/float64(hi-lo))
		rate = append(rate, float64(hi-lo)/r.at[hi].Sub(r.at[lo]).Seconds())
	}
	return Median(cpu), Median(rate)
}

// runRounds advances every controller one Tick per round, the ticks of
// a round spread over GOMAXPROCS goroutines, until rounds rounds have
// run (rounds > 0) or the deadline passes. after, when set, runs on the
// calling goroutine after each round; onTick, when set, sees every tick.
func runRounds(ctls []*drift.Controller, rounds int, deadline time.Time, onTick tickHook, after func(r int)) roundRun {
	var res roundRun
	jobs := make(chan int)
	errs := make([]error, len(ctls))
	dead := make([]bool, len(ctls))
	var round, workers sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for c := range jobs {
				var before drift.Stats
				if onTick != nil {
					before = *ctls[c].Stats()
				}
				t0 := time.Now()
				errs[c] = ctls[c].Tick()
				if onTick != nil {
					onTick(c, t0, time.Since(t0), before, *ctls[c].Stats())
				}
				round.Done()
			}
		}()
	}
	res.at = append(res.at, time.Now())
	res.cpu = append(res.cpu, cpuTime())
	for r := 0; (rounds > 0 && r < rounds) || (rounds == 0 && time.Now().Before(deadline)); r++ {
		t0 := res.at[len(res.at)-1]
		live := 0
		for c := range ctls {
			if !dead[c] {
				live++
				round.Add(1)
				jobs <- c
			}
		}
		if live == 0 {
			break // every controller has failed; there is nothing left to time
		}
		round.Wait()
		res.at = append(res.at, time.Now())
		res.cpu = append(res.cpu, cpuTime())
		res.latency = append(res.latency, res.at[len(res.at)-1].Sub(t0).Seconds()*1e3)
		failed := false
		for c, err := range errs {
			if err != nil {
				dead[c], errs[c], failed = true, nil, true
			}
		}
		if failed {
			res.failedRounds++
		}
		if after != nil {
			after(r)
		}
	}
	close(jobs)
	workers.Wait()
	return res
}

// driftRounds runs the controllers in lockstep rounds until the window
// closes. One round is one 5 ms control step of every pair.
func driftRounds(ctx context.Context, p params, cfg driftConfig) (*outcome, error) {
	o := newOutcome()
	setup, ctls, err := timedSetups(cfg.setups, func(int) ([]*drift.Controller, error) {
		return newControllers(p.seed, cfg.profiles)
	}, func([]*drift.Controller) {})
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setup

	pick := rand.New(rand.NewSource(p.seed)).Intn(len(ctls))
	var snap drift.Stats
	snapRounds := 0
	settle()
	res := runRounds(ctls, 0, time.Now().Add(p.window), nil, func(r int) {
		if r < cfg.checkRounds {
			snap, snapRounds = *ctls[pick].Stats(), r+1
		}
	})
	o.attempted = len(res.latency)
	o.failed = res.failedRounds
	o.values["p50_ms"] = Median(res.latency)
	o.values["p99_ms"] = tail(res.latency, o)
	o.values["cpu_us_per_op"], o.values["ops_per_s"] = res.sliced()
	o.info["sim_speedup"] = o.values["ops_per_s"] * drift.DefaultConfig().Step.Seconds()

	if err := checkDriftStats(p.seed, pick, cfg.profiles[pick], 1+snapRounds, snap); err != nil {
		o.fail("%v", err)
	}
	rss, err := peakRSSMB()
	o.values["peak_rss_mb"] = rss
	return o, err
}

// checkDriftStats re-runs controller c serially for the given number of
// ticks and requires its Stats to equal want, the Stats the concurrent
// run left after as many ticks.
func checkDriftStats(seed int64, c int, prof drift.Profile, ticks int, want drift.Stats) error {
	ctl := newController(seed, c, prof)
	for t := 0; t < ticks; t++ {
		if err := ctl.Tick(); err != nil {
			return fmt.Errorf("serial re-run of controller %d: %w", c, err)
		}
	}
	if got := *ctl.Stats(); got != want {
		return fmt.Errorf("controller %d after %d ticks: serial Stats %+v, concurrent run %+v", c, ticks, got, want)
	}
	return nil
}
