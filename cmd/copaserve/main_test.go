package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/serve"
)

func postAllocate(t *testing.T, client *http.Client, url string, body string) (*http.Response, allocateResponse) {
	t.Helper()
	resp, err := client.Post(url+"/v1/allocate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/allocate: %v", err)
	}
	defer resp.Body.Close()
	var ar allocateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, ar
}

func TestAllocateEndpoint(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(newMux(srv))
	defer ts.Close()

	resp, ar := postAllocate(t, ts.Client(), ts.URL, `{"scenario":"1x1","seed":7,"mode":"max"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ar.Cached {
		t.Error("first request reported cached")
	}
	if ar.Selected.AggregateBps <= 0 {
		t.Errorf("selected aggregate %g not positive", ar.Selected.AggregateBps)
	}
	if len(ar.Outcomes) < 3 {
		t.Errorf("only %d outcomes returned", len(ar.Outcomes))
	}
	if _, ok := ar.Outcomes["CSMA"]; !ok {
		t.Error("outcomes are not keyed by strategy name")
	}

	resp2, ar2 := postAllocate(t, ts.Client(), ts.URL, `{"scenario":"1x1","seed":7,"mode":"max"}`)
	if resp2.StatusCode != http.StatusOK || !ar2.Cached {
		t.Fatalf("repeat: status %d cached %v", resp2.StatusCode, ar2.Cached)
	}
	if ar2.Selected != ar.Selected {
		t.Error("cached reply differs from the original")
	}

	// Error surface.
	for body, want := range map[string]int{
		`{"scenario":"9x9","seed":1}`:               http.StatusBadRequest,
		`{"scenario":"1x1","seed":1,"mode":"rand"}`: http.StatusBadRequest,
		`{"scenario":"1x1","impairments":"lab"}`:    http.StatusBadRequest,
		`{"scenario":"1x1","csi_age_ms":-3}`:        http.StatusBadRequest,
		`not json`:                                  http.StatusBadRequest,
		`{"scenario":"1x1","seed":2,"mode":"fair"}`: http.StatusOK,
	} {
		resp, _ := postAllocate(t, ts.Client(), ts.URL, body)
		if resp.StatusCode != want {
			t.Errorf("body %q: status = %d, want %d", body, resp.StatusCode, want)
		}
	}

	hresp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if hresp.StatusCode != http.StatusOK || st.Workers != 2 || st.Draining {
		t.Fatalf("healthz = %d, %+v", hresp.StatusCode, st)
	}

	dresp, err := ts.Client().Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/metrics = %d", dresp.StatusCode)
	}
}

// TestLoadMixedHitsAndMisses drives the daemon with concurrent clients
// over a mix of warm (cached) and cold seeds, and requires the sustained
// throughput the issue demands: ≥1000 req/s once the cache is warm.
func TestLoadMixedHitsAndMisses(t *testing.T) {
	srv := serve.New(serve.DefaultConfig())
	defer srv.Close()
	ts := httptest.NewServer(newMux(srv))
	defer ts.Close()

	// Warm the canonical two-AP scenario worlds the load will hit.
	const warmSeeds = 4
	for seed := 0; seed < warmSeeds; seed++ {
		body := fmt.Sprintf(`{"scenario":"4x2","seed":%d}`, seed)
		if resp, _ := postAllocate(t, ts.Client(), ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup seed %d: status %d", seed, resp.StatusCode)
		}
	}

	const (
		clients    = 8
		perClient  = 250
		coldEveryN = 100 // a sprinkle of misses among the hits
	)
	var hits, misses atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perClient; i++ {
				seed := (c*perClient + i) % warmSeeds
				scenario := "4x2"
				if i%coldEveryN == coldEveryN-1 {
					// Unique cold seed: forces a real evaluation (cheap 1x1).
					seed = 100000 + c*perClient + i
					scenario = "1x1"
				}
				body := fmt.Sprintf(`{"scenario":%q,"seed":%d}`, scenario, seed)
				resp, err := client.Post(ts.URL+"/v1/allocate", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var ar allocateResponse
				err = json.NewDecoder(resp.Body).Decode(&ar)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d err %v", c, resp.StatusCode, err)
					return
				}
				if ar.Cached {
					hits.Add(1)
				} else {
					misses.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := clients * perClient
	rps := float64(total) / elapsed.Seconds()
	t.Logf("%d requests in %v (%.0f req/s), %d cache hits, %d misses",
		total, elapsed, rps, hits.Load(), misses.Load())
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Fatalf("load was not mixed: %d hits, %d misses", hits.Load(), misses.Load())
	}
	if rps < 1000 && !raceEnabled {
		t.Errorf("sustained %.0f req/s, want ≥1000", rps)
	}
}

// TestQueueFullReturns503 forces admission-control shedding through the
// HTTP surface and checks both the status code and the metric.
func TestQueueFullReturns503(t *testing.T) {
	srv := serve.New(serve.Config{
		Workers: 1, QueueDepth: 1, CacheEntries: -1,
		// Deterministic slow blocker: stall 4x2 evaluations so the
		// burst below reliably finds the queue occupied.
		EvalHook: func(r serve.Request) {
			if r.Scenario == channel.Scenario4x2 {
				time.Sleep(150 * time.Millisecond)
			}
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(newMux(srv))
	defer ts.Close()

	before := obs.Default().Snapshot().Counters["copa.serve.shed_queue_full"]

	// Block the only worker with a slow 4x2 evaluation.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postAllocate(t, ts.Client(), ts.URL, `{"scenario":"4x2","seed":31}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("blocker status %d", resp.StatusCode)
		}
	}()
	time.Sleep(30 * time.Millisecond)

	shed := 0
	var burst sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 16; i++ {
		burst.Add(1)
		go func(i int) {
			defer burst.Done()
			body := fmt.Sprintf(`{"scenario":"1x1","seed":%d}`, 5000+i)
			resp, err := ts.Client().Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("burst %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("503 without Retry-After")
				}
				mu.Lock()
				shed++
				mu.Unlock()
			case http.StatusOK:
			default:
				t.Errorf("burst %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	burst.Wait()
	wg.Wait()
	if shed == 0 {
		t.Fatal("no request was shed with 503")
	}
	if got := obs.Default().Snapshot().Counters["copa.serve.shed_queue_full"]; got < before+uint64(shed) {
		t.Fatalf("shed_queue_full counter %d did not advance by %d", got, shed)
	}
}

// TestSigtermDrainsAndExitsZero runs the real daemon in-process, admits
// a slow request, sends SIGTERM, and requires the request to finish and
// the process loop to exit 0 within the drain budget.
func TestSigtermDrainsAndExitsZero(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "copaserve-out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-drain-timeout", "30s", "-workers", "1"}, f)
	}()

	// Wait for the daemon to announce its bound address.
	var url string
	deadline := time.Now().Add(5 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never announced its address")
		}
		data, _ := os.ReadFile(f.Name())
		if _, rest, ok := strings.Cut(string(data), "listening on "); ok {
			url = strings.Fields(rest)[0]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Admit a slow request, then SIGTERM while it is in flight.
	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/allocate", "application/json",
			strings.NewReader(`{"scenario":"4x2","seed":77}`))
		if err != nil {
			slowDone <- -1
			return
		}
		resp.Body.Close()
		slowDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case status := <-slowDone:
		if status != http.StatusOK {
			t.Errorf("in-flight request finished with %d, want 200", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never finished")
	}
	select {
	case code := <-done:
		if code != 0 {
			data, _ := os.ReadFile(f.Name())
			t.Fatalf("exit = %d, want 0\n%s", code, data)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	data, _ := os.ReadFile(f.Name())
	if !strings.Contains(string(data), "drained") {
		t.Fatalf("daemon did not report a drain:\n%s", data)
	}
}
