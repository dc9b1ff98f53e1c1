package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"time"

	"copa/internal/api"
	"copa/internal/obs"
	"copa/internal/router"
	"copa/internal/serve"
)

// The serving stack the two serve workloads drive: a default-config
// router over two backends, each serve.New(Config{Workers: 1}) behind
// api.NewHandler — two evaluators for two cores. No sockets: the client
// calls the router's handler directly, and the router reaches each
// backend through an http.RoundTripper that calls that backend's handler.
// The loopback network stack is not code this repository can change, and
// on two shared cores it only adds noise.

// latencyLimit is one coherence time (§4.1): an allocation that arrives
// later than this was computed from CSI that is no longer valid.
const latencyLimit = 30 * time.Millisecond

type stack struct {
	backends []*serve.Server
	rt       *router.Router
	front    http.Handler
}

// inproc is the router → backend hop: it calls the backend's handler in
// the calling goroutine. For a traced request it records the hop as
// api.handler and hands that span to the backend through the
// traceparent header.
type inproc struct {
	h  http.Handler
	tr *tracer
}

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := t.tr.child(req.Context(), "api.handler")
	if sp != nil {
		req = req.Clone(ctx)
		obs.InjectHTTP(ctx, req.Header)
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	sp.end()
	return rec.Result(), nil
}

func newStack(tr *tracer) (*stack, error) {
	urls := []string{"http://backend-0", "http://backend-1"}
	s := &stack{}
	handlers := map[string]http.Handler{}
	for _, u := range urls {
		srv := serve.New(serve.Config{Workers: 1})
		s.backends = append(s.backends, srv)
		handlers[u] = api.NewHandler(srv)
	}
	rt, err := router.New(router.Config{
		Backends:     urls,
		TransportFor: func(u string) http.RoundTripper { return inproc{h: handlers[u], tr: tr} },
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.rt = rt
	s.front = rt.Handler()
	return s, nil
}

func (s *stack) close() {
	if s.rt != nil {
		s.rt.Close()
	}
	for _, b := range s.backends {
		b.Close()
	}
}

// reply is what came back for one request.
type reply struct {
	status int
	resp   api.AllocateResponse
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// do sends one request through the router, with the binary codec both
// ways or JSON both ways, and decodes the answer.
func (s *stack) do(ctx context.Context, tr *tracer, req api.AllocateRequest, binary bool) reply {
	ctx, root := tr.start(ctx, "client.request")
	defer root.end()

	_, enc := tr.start(ctx, "api.encode")
	var body []byte
	var err error
	if binary {
		body, err = api.EncodeRequestBinary(req)
	} else {
		body, err = json.Marshal(req)
	}
	enc.end()
	if err != nil {
		return reply{err: fmt.Errorf("encode request: %w", err)}
	}

	rctx, rsp := tr.start(ctx, "router.serve")
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, "http://router/v1/allocate", bytes.NewReader(body))
	if err != nil {
		rsp.end()
		return reply{err: err}
	}
	if binary {
		hreq.Header.Set("Content-Type", api.ContentTypeBinary)
		hreq.Header.Set("Accept", api.ContentTypeBinary)
	} else {
		hreq.Header.Set("Content-Type", api.ContentTypeJSON)
	}
	rec := httptest.NewRecorder()
	s.front.ServeHTTP(rec, hreq)
	rsp.end()

	out := reply{status: rec.Code}
	if rec.Code != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		return out
	}
	_, dec := tr.start(ctx, "api.decode")
	if binary {
		out.resp, err = api.DecodeResponseBinary(rec.Body.Bytes())
	} else {
		err = json.Unmarshal(rec.Body.Bytes(), &out.resp)
	}
	dec.end()
	if err != nil {
		out.err = fmt.Errorf("decode response: %w", err)
		return out
	}
	if out.resp.Selected.Strategy == "" || len(out.resp.Outcomes) == 0 {
		out.err = fmt.Errorf("empty allocation for %+v", req)
	}
	return out
}

// arrival is one scheduled request: its offset from the start of the
// window, the request (an index into the workload's key list), and its
// codec.
type arrival struct {
	at     time.Duration
	key    int
	binary bool
}

// arrivalTimes returns the offsets of n arrivals of a Poisson process
// over [0, window), conditioned on its count: n uniform instants,
// sorted. Fixing the count keeps the offered work the same for every
// seed; only when requests arrive varies.
func arrivalTimes(r *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(r.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maxChunks is how many consecutive slices of its arrivals a window is
// summarized in; per-op CPU and the tail latency are the medians of the
// slices' values, so a few seconds of interference from outside the
// benchmark moves one slice, not the result. Every slice keeps at least
// chunkMin arrivals, enough for a p99 with ten samples beyond it.
const (
	maxChunks = 10
	chunkMin  = 1000
)

func chunksFor(n int) int { return max(1, min(maxChunks, n/chunkMin)) }

// openLoop is the measured result of one open-loop window.
type openLoop struct {
	latency []time.Duration // from due time; per arrival
	lag     []time.Duration // send − due; per arrival
	ok      []bool          // per arrival
	// replies holds the answers to the arrivals the caller asked to keep
	// (for the correctness check) and to every failed arrival; the rest
	// are dropped as they complete so they do not inflate the heap.
	replies map[int]reply
	wall    time.Duration // first due → last completion
	// cpu[j] is the process CPU time when slice j's first arrival was
	// sent; the last entry is read once every request has completed.
	cpu []time.Duration
	// hedges and evaluations are the router's hedged attempts and the
	// backends' world evaluations during the window.
	hedges, evaluations float64
}

// totalCPU is the process CPU time the whole window used.
func (r openLoop) totalCPU() time.Duration { return r.cpu[len(r.cpu)-1] - r.cpu[0] }

// chunk returns slice j's arrival index range.
func (r openLoop) chunk(j int) (lo, hi int) {
	k, n := len(r.cpu)-1, len(r.ok)
	return j * n / k, (j + 1) * n / k
}

// runOpenLoop dispatches every arrival on its own goroutine at its due
// time, regardless of how earlier requests are faring, and times each
// from when it was due — so a stall is charged to every request it
// delays. It returns once every request has completed.
func runOpenLoop(ctx context.Context, s *stack, tr *tracer, keys []api.AllocateRequest, sched []arrival, keep []int) openLoop {
	res := openLoop{
		latency: make([]time.Duration, len(sched)),
		lag:     make([]time.Duration, len(sched)),
		ok:      make([]bool, len(sched)),
		replies: map[int]reply{},
		cpu:     make([]time.Duration, 0, chunksFor(len(sched))+1),
	}
	kept := make([]bool, len(sched))
	for _, i := range keep {
		kept[i] = true
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := obs.Default().Snapshot()
	k := chunksFor(len(sched))
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if len(res.cpu) < k && i == len(res.cpu)*len(sched)/k {
			res.cpu = append(res.cpu, cpuTime())
		}
		res.lag[i] = time.Since(due)
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			rep := s.do(ctx, tr, keys[a.key], a.binary)
			res.latency[i] = time.Since(due)
			res.ok[i] = rep.ok()
			if kept[i] || !rep.ok() {
				mu.Lock()
				res.replies[i] = rep
				mu.Unlock()
			}
		}(i, a, due)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = append(res.cpu, cpuTime())
	rd := reading{before, obs.Default().Snapshot()}
	res.hedges = rd.count("copa.router.hedges")
	res.evaluations = rd.timerCount("copa.serve.evaluate_seconds")
	return res
}

// summarize stores the end-to-end serving metrics of a window.
func (r openLoop) summarize(o *outcome) {
	var lat, tails, cpuPerOp []float64
	within := 0
	for j := 0; j+1 < len(r.cpu); j++ {
		lo, hi := r.chunk(j)
		var chunkLat []float64
		for i := lo; i < hi; i++ {
			o.attempted++
			if !r.ok[i] {
				o.failed++
				continue
			}
			ms := r.latency[i].Seconds() * 1e3
			chunkLat = append(chunkLat, ms)
			lat = append(lat, ms)
			if r.latency[i] <= latencyLimit {
				within++
			}
		}
		if p, v, ok := Tail(chunkLat, 0.99); ok {
			tails = append(tails, v)
			o.info["tail_percentile"] = p
		}
		cpuPerOp = append(cpuPerOp, (r.cpu[j+1]-r.cpu[j]).Seconds()*1e6/float64(max(hi-lo, 1)))
	}
	n := float64(max(len(r.ok), 1))
	o.values["p50_ms"] = Median(lat)
	o.values["p99_ms"] = Median(tails)
	o.values["cpu_us_per_op"] = Median(cpuPerOp)
	o.values["ops_per_s"] = float64(len(lat)) / r.wall.Seconds()
	o.info["samples"] = float64(len(lat))
	o.info["slices"] = float64(len(cpuPerOp))
	// A failed or refused request counts as missing the limit.
	o.info["within_limit_frac"] = float64(within) / n
	o.info["loadgen.lag_p50_ms"], o.info["loadgen.lag_p99_ms"] = r.lagQuantiles()
	o.info["router.hedges"] = r.hedges
	o.info["serve.evaluations"] = r.evaluations
	for _, rep := range r.replies {
		if !rep.ok() {
			o.notes = append(o.notes, fmt.Sprintf("a failed request: %v", rep.err))
			break
		}
	}
}

func (r openLoop) lagQuantiles() (p50, p99 float64) {
	lag := make([]float64, len(r.lag))
	for i, d := range r.lag {
		lag[i] = d.Seconds() * 1e3
	}
	return Median(lag), Percentile(lag, 0.99)
}

// tail is the p99_ms rule for a whole sample: the highest percentile up
// to p99 that leaves ten samples beyond it (the median when there are
// too few for more). The sample count and the percentile used are kept
// as side information.
func tail(xs []float64, o *outcome) float64 {
	p, v, _ := Tail(xs, 0.99)
	o.info["samples"] = float64(len(xs))
	o.info["tail_percentile"] = p
	return v
}

// checkReplies compares sampled replies with a direct Allocate on a
// fresh reference server: every field must match except Cached, which
// only says which path answered.
func checkReplies(ref *serve.Server, keys []api.AllocateRequest, sched []arrival, replies map[int]reply, sample []int) error {
	for _, i := range sample {
		rep, kept := replies[i]
		if !kept {
			return fmt.Errorf("request %d: reply was not kept for checking", i)
		}
		if !rep.ok() {
			continue // counted as failed, not as a wrong answer
		}
		req := keys[sched[i].key]
		sreq, err := api.ParseRequest(req)
		if err != nil {
			return err
		}
		res, cached, err := ref.Allocate(context.Background(), sreq)
		if err != nil {
			return fmt.Errorf("reference allocate %+v: %w", req, err)
		}
		want := api.ToResponse(res, cached)
		got := rep.resp
		got.Cached = want.Cached
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("request %d %+v: served %+v, direct Allocate gives %+v", i, req, got, want)
		}
	}
	return nil
}

// sampleIndices picks up to k distinct indices in [0, n).
func sampleIndices(rng *rand.Rand, n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rng.Perm(n)[:k]
}
