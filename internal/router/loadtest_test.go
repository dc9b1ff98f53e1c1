package router

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"copa/internal/rng"
)

// errInjectedDrop is the transport error a faultyTransport returns for
// a dropped request; the router treats it like any network failure.
var errInjectedDrop = errors.New("router test: injected drop")

// faultyTransport degrades one backend with seeded, reproducible
// faults: each request is dropped with probability dropRequest, and a
// request that is not dropped waits a uniform delay in [0, delayMax)
// first. Draws are serialized, so a fixed seed and request order give
// a fixed fault sequence.
type faultyTransport struct {
	dropRequest float64
	delayMax    time.Duration

	mu  sync.Mutex
	src *rng.Source
}

// draw makes one request's fault decisions under the lock: the drop
// first, then the delay only for a request that goes out.
func (t *faultyTransport) draw() (drop bool, delay time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.src.Bool(t.dropRequest) {
		return true, 0
	}
	return false, time.Duration(t.src.Float64() * float64(t.delayMax))
}

func (t *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	drop, delay := t.draw()
	if drop {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errInjectedDrop
	}
	if delay > 0 {
		select {
		case <-req.Context().Done():
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRouterLoadDegradedBackend runs mixed-priority traffic against a
// three-backend pool with one backend artificially degraded — extra
// latency and dropped requests injected through the TransportFor seam
// by a seeded faultyTransport — and asserts the hedging layer keeps
// the pool's p99 within SLO: a degraded third of the ring must cost
// hedges, not tail latency.
func TestRouterLoadDegradedBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	fleetServers := newFleet(t, 3)
	degraded := fleetServers[0].URL

	hedges0 := mHedges.Value()
	rt, ts := newTestRouter(t, Config{
		Backends:     urls(fleetServers),
		HedgeDefault: 20 * time.Millisecond, // adaptive from here
		TransportFor: func(backendURL string) http.RoundTripper {
			if backendURL != degraded {
				return nil // default transport
			}
			return &faultyTransport{
				dropRequest: 0.15,
				delayMax:    120 * time.Millisecond,
				src:         rng.New(42),
			}
		},
	})

	const (
		clients     = 8
		perClient   = 40
		distinctKey = 24 // repeats keep the caches warm, as real traffic would
		sloP99      = 250 * time.Millisecond
	)
	latencies := make([]time.Duration, 0, clients*perClient)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hdr := map[string]string{}
			if c%4 == 3 { // a quarter of the load is batch backfill
				hdr["X-Copa-Priority"] = PriorityBatch
			}
			for i := 0; i < perClient; i++ {
				seed := int64((c*perClient + i) % distinctKey)
				start := time.Now()
				resp, data := postAllocate(t, ts.URL, allocBody(seed), hdr)
				elapsed := time.Since(start)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d req %d: status %d: %s", c, i, resp.StatusCode, data)
					return
				}
				mu.Lock()
				latencies = append(latencies, elapsed)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	p99 := latencies[len(latencies)*99/100]
	t.Logf("fleet latency with 1/3 backends degraded: p50=%s p99=%s hedges=%d budget=%s",
		p50, p99, mHedges.Value()-hedges0, time.Duration(rt.Stats().HedgeBudgetMS*float64(time.Millisecond)))

	if mHedges.Value() == hedges0 {
		t.Error("no hedges fired though one backend injects up to 120ms of delay")
	}
	if raceEnabled {
		t.Skip("race detector inflates latency ~10x; skipping SLO assertion")
	}
	if p99 > sloP99 {
		t.Errorf("fleet p99 %s exceeds SLO %s despite hedging", p99, sloP99)
	}
}

// TestLatencyTrackerBudget exercises the adaptive budget directly: too
// few samples yield the default; a filled window yields the clamped
// p99.
func TestLatencyTrackerBudget(t *testing.T) {
	var lt latencyTracker
	def, lo, hi := 50*time.Millisecond, 2*time.Millisecond, time.Second

	if got := lt.hedgeBudget(def, lo, hi); got != def {
		t.Errorf("empty tracker budget = %s, want default %s", got, def)
	}
	for i := 0; i < trackerWindow; i++ {
		lt.record(10 * time.Millisecond)
	}
	lt.recomputed = time.Time{} // force refresh past the cache
	if got := lt.hedgeBudget(def, lo, hi); got != 10*time.Millisecond {
		t.Errorf("uniform 10ms window budget = %s, want 10ms", got)
	}
	// Clamping: a pathological p99 cannot push the budget past the max.
	for i := 0; i < trackerWindow; i++ {
		lt.record(time.Minute)
	}
	lt.recomputed = time.Time{}
	if got := lt.hedgeBudget(def, lo, hi); got != hi {
		t.Errorf("runaway p99 budget = %s, want clamp %s", got, hi)
	}
}

// TestLatencyTrackerQuantile pins the quantile math on a known ladder.
func TestLatencyTrackerQuantile(t *testing.T) {
	var lt latencyTracker
	if q := lt.quantile(0.99); q != 0 {
		t.Errorf("quantile of empty tracker = %s, want 0", q)
	}
	for i := 1; i <= 100; i++ {
		lt.record(time.Duration(i) * time.Millisecond)
	}
	if q := lt.quantile(0.50); q < 49*time.Millisecond || q > 52*time.Millisecond {
		t.Errorf("p50 of 1..100ms = %s", q)
	}
	if q := lt.quantile(0.99); q < 98*time.Millisecond || q > 100*time.Millisecond {
		t.Errorf("p99 of 1..100ms = %s", q)
	}
}

// TestRouterConcurrentChurn hammers the router while the backend set
// churns — the immutable poolState swap means this is exactly the
// race the design claims cannot happen. Run with -race.
func TestRouterConcurrentChurn(t *testing.T) {
	fleetServers := newFleet(t, 3)
	all := urls(fleetServers)
	rt, ts := newTestRouter(t, Config{Backends: all, HedgeBudget: 10 * time.Second})

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				rt.SetBackends(all[:2])
			case 1:
				rt.SetBackends(all[1:])
			default:
				rt.SetBackends(all)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, data := postAllocate(t, ts.URL, allocBody(int64(i%8)), nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("churn client %d req %d: status %d: %s", c, i, resp.StatusCode, data)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	if got := len(rt.Backends()); got == 0 {
		t.Error("backend set empty after churn")
	}
	if fmt.Sprint(rt) == "" {
		t.Error("String() empty")
	}
}
