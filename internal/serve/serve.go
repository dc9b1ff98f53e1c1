// Package serve turns the strategy evaluator into a concurrent
// allocation-as-a-service layer: callers submit (scenario, seed, mode,
// impairments, CSI age) requests and receive the strategy COPA's leader
// would pick, with the heavy EvaluateAll pass behind a fixed evaluator
// worker pool, a bounded LRU result cache with in-flight deduplication,
// and load-shedding admission control.
//
// The design follows DESIGN §8's one-workspace-per-goroutine rule: each
// worker owns one precoding.Workspace arena for its whole lifetime and
// hands it to every evaluator it constructs, so steady-state serving
// does not regrow arena chunks. The cache and the in-flight table are
// keyed by the evaluated world alone: a world is evaluated once and
// both selection modes are answered from that one EvaluateAll pass, so
// a max and a fair request for the same world never evaluate twice.
//
// Admission is a bounded queue: when it is full the request is shed
// immediately with ErrQueueFull (the HTTP front end maps this to 503).
// Each request waits until its own deadline at most (ErrExpired), and a
// queued world is dropped without evaluation once every request waiting
// on it has passed its deadline. Shutdown stops admission, drains
// queued work, and waits for the workers within a caller-supplied
// deadline.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// Sentinel errors the admission path returns. They are distinct so a
// transport front end can map them to distinct statuses (503 for
// shedding, 504 for deadline expiry).
var (
	// ErrQueueFull is returned when the admission queue is at capacity:
	// the request was shed without being evaluated.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrServerClosed is returned for requests arriving during or after
	// shutdown.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrExpired is returned when a request's own deadline passed before
	// its world was evaluated.
	ErrExpired = errors.New("serve: request deadline expired in queue")
)

// Config parameterizes a Server. The zero value of any field selects
// the default documented on it.
type Config struct {
	// Workers is the number of evaluator goroutines, each owning one
	// scratch arena (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with
	// ErrQueueFull (default 64).
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// DefaultDeadline applies to requests whose context carries no
	// deadline (default 2s).
	DefaultDeadline time.Duration
	// DrainTimeout bounds Close's graceful drain (default 5s).
	DrainTimeout time.Duration
	// Coherence is the CSI coherence time used to bucket request CSI
	// ages (default strategy.DefaultCoherence).
	Coherence time.Duration
	// EvalHook, when non-nil, runs on the worker goroutine immediately
	// before each world evaluation. It is a test seam: admission-control
	// and deduplication tests use it to make selected evaluations
	// deterministically slow instead of depending on evaluator latency.
	// Production configs leave it nil.
	EvalHook func(Request)
}

// DefaultConfig returns the production defaults.
func DefaultConfig() Config {
	return Config{
		Workers:         runtime.GOMAXPROCS(0),
		QueueDepth:      64,
		CacheEntries:    1024,
		DefaultDeadline: 2 * time.Second,
		DrainTimeout:    5 * time.Second,
		Coherence:       strategy.DefaultCoherence,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = d.CacheEntries
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = d.DefaultDeadline
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.Coherence <= 0 {
		c.Coherence = d.Coherence
	}
	return c
}

// Request identifies one allocation computation. Every field but Mode
// names the evaluated world and is part of the result-cache key (CSIAge
// after bucketing), so two Requests that agree on those fields share
// one evaluation and one cache entry, whatever their modes.
type Request struct {
	// Scenario is the antenna configuration to evaluate.
	Scenario channel.Scenario
	// Seed deterministically draws the deployment and its CSI noise —
	// the same contract as copad: equal seeds mean equal worlds.
	Seed int64
	// Mode selects max-throughput or incentive-compatible selection.
	Mode strategy.Mode
	// Impairments model the radio hardware (zero value is NOT defaulted;
	// pass channel.DefaultImpairments() for the calibrated model).
	Impairments channel.Impairments
	// CSIAge is how old the requester's channel state is. Ages are
	// quantized into AgeBuckets buckets per coherence time, so nearby
	// ages share a cache entry; older buckets see proportionally more
	// staleness error. Ignored in session mode (Time supersedes it).
	CSIAge time.Duration
	// MultiDecoder evaluates with per-subcarrier rate selection.
	MultiDecoder bool
	// Session switches the request into long-running session mode: the
	// CSI age is derived from the controller time Time instead of the
	// static CSIAge flag. Each coherence interval is an epoch with its
	// own CSI measurement (and its own cache identity); within an epoch
	// the age since that measurement quantizes into the same AgeBuckets
	// grid the static path uses, via the shared channel.AgeBucket helper
	// internal/drift also keys its validity horizons on.
	Session bool
	// Time is the session's controller time (virtual time since the
	// session began). Only meaningful when Session is set.
	Time time.Duration
}

// Result is one served allocation decision. Results may be shared
// between callers via the cache; treat them as immutable.
type Result struct {
	// Selected is the strategy COPA's decision rule picks for the
	// request's mode.
	Selected strategy.Outcome
	// Outcomes holds every evaluated strategy, keyed by kind (shared
	// across modes of the same evaluation — do not mutate).
	Outcomes map[strategy.Kind]strategy.Outcome
	// AgeBucket is the CSI age bucket the request quantized into.
	AgeBucket int
	// Epoch is the session epoch (controller time / coherence) the
	// allocation belongs to; always 0 for static requests.
	Epoch int64
	// ValidUntil is the controller time at which this allocation's age
	// bucket — and therefore its cache identity — expires: the start of
	// the next shared bucket boundary. For a static request it is the
	// CSIAge at which the next bucket would begin.
	ValidUntil time.Duration
}

// AgeBuckets is the number of CSI-age quantization steps per coherence
// time. Ages at or beyond one coherence time all land in the last
// bucket.
const AgeBuckets = 4

// ageBucket quantizes a CSI age against the coherence time. The
// boundary arithmetic lives in channel.AgeBucket so internal/drift (which
// derives allocation validity horizons from the same boundaries) can
// never disagree with the cache key about where a bucket starts.
func ageBucket(age, coherence time.Duration) int {
	return channel.AgeBucket(age, coherence, AgeBuckets)
}

// agedImpairments scales the staleness error with the request's CSI age
// bucket: the calibrated StalenessDB corresponds to CSI used within one
// coherence time (bucket 0); older buckets see linearly more aging
// error power (channel.Impairments.Aged — the same map campaign sweeps).
func agedImpairments(imp channel.Impairments, bucket int) channel.Impairments {
	return imp.AgedForBucket(bucket, AgeBuckets)
}

// key is the identity of an evaluated world: everything that changes
// the outcomes, with the session time already normalized into (epoch,
// ageBucket). The selection mode is not part of it — one evaluation
// answers both modes. It is a comparable value type so cache lookups
// allocate nothing.
type key struct {
	scenario  channel.Scenario
	seed      int64
	imp       channel.Impairments
	ageBucket int
	epoch     int64
	multi     bool
}

// results is one evaluated world's answer under each selection mode,
// indexed by slot. Both are built in one allocation when the world is
// evaluated, so a cache hit for either mode stays allocation-free.
type results [2]Result

// slot maps a selection mode to its results index the way
// strategy.Select reads the mode: ModeFair is the fair answer, any
// other value the max-throughput one.
func slot(m strategy.Mode) int {
	if m == strategy.ModeFair {
		return 1
	}
	return 0
}

// flight is one in-flight world evaluation that concurrent requests for
// the same world, in either mode, wait on instead of recomputing
// (singleflight). res/err are published before done is closed.
type flight struct {
	done chan struct{}
	res  *results
	err  error
	// deadline is the latest deadline among the flight's waiters: the
	// worker sheds the flight only once no waiter can still use it.
	// Guarded by Server.mu.
	deadline time.Time
}

// answer returns the resolved flight's result for mode.
func (f *flight) answer(mode strategy.Mode) (*Result, error) {
	if f.err != nil {
		if f.err == ErrExpired {
			mShedExpired.Inc()
		}
		return nil, f.err
	}
	return &f.res[slot(mode)], nil
}

// call is one admitted request on its way through the queue.
type call struct {
	key      key
	req      Request
	f        *flight
	enqueued time.Time
	// ctx carries the request's trace identity (never its cancellation —
	// abandoned flights still complete). stage is the currently-open
	// pipeline-stage span: serve.queue while queued, serve.evaluate
	// during evaluation. It is nil for untraced requests; every
	// transition is nil-safe.
	ctx   context.Context
	stage *obs.ActiveSpan
}

// Server is the allocation service. Create with New; it is safe for
// concurrent use.
type Server struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	cache    *lruCache
	inflight map[key]*flight

	queue      chan *call
	admitWG    sync.WaitGroup // in-progress queue sends, so close(queue) is safe
	workerWG   sync.WaitGroup
	closeQueue sync.Once
}

// New starts a Server with cfg's worker pool running.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newLRUCache(cfg.CacheEntries),
		inflight: make(map[key]*flight),
		queue:    make(chan *call, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	mWorkers.Set(float64(cfg.Workers))
	return s
}

// keyFor normalizes a request into its cache key. This is the only
// place the (epoch, bucket) pair is computed — evaluate and
// evaluateWorld read it back from the key, so one request can never see
// two different bucketings of the same age (the pre-session bug was
// exactly that: each stage re-derived the bucket from the raw age, and a
// session time past one coherence would collapse every later epoch into
// the final clamped bucket).
func (s *Server) keyFor(req Request) key {
	epoch, bucket := sessionEpoch(req, s.cfg.Coherence)
	return key{
		scenario:  req.Scenario,
		seed:      req.Seed,
		imp:       req.Impairments,
		ageBucket: bucket,
		epoch:     epoch,
		multi:     req.MultiDecoder,
	}
}

// sessionEpoch resolves a request's (epoch, age bucket) pair. A static
// request is epoch 0 with its CSIAge bucketed directly. A session
// request treats each coherence interval as an epoch with a fresh CSI
// measurement at its start: the age that buckets is the time elapsed
// since that epoch's measurement, so the bucket is always in [0,
// AgeBuckets) and an epoch can never straddle a bucket boundary.
func sessionEpoch(req Request, coherence time.Duration) (int64, int) {
	if !req.Session {
		return 0, ageBucket(req.CSIAge, coherence)
	}
	t := req.Time
	if t < 0 {
		t = 0
	}
	if coherence <= 0 {
		return 0, 0
	}
	epoch := int64(t / coherence)
	return epoch, ageBucket(t-time.Duration(epoch)*coherence, coherence)
}

// validUntil is the controller time at which a session allocation's age
// bucket expires: the next shared bucket boundary after Time (epoch
// start + channel.BucketStart of the following bucket).
func validUntil(epoch int64, bucket int, coherence time.Duration) time.Duration {
	return time.Duration(epoch)*coherence + channel.BucketStart(bucket+1, coherence, AgeBuckets)
}

// ShardKey renders req's evaluated world — every field of the internal
// cache key, with the session time already normalized into (epoch,
// ageBucket) exactly as keyFor does — as a deterministic string. The
// selection mode is not part of it. It is the contract between this
// cache and a consistent-hash front tier: two requests that would share
// a cache entry here produce equal shard keys, so a router hashing
// ShardKey routes both modes of a world to the same backend and the
// backend pool's caches shard instead of duplicating.
// A non-positive coherence uses the default the server itself defaults
// to, keeping router and backend bucketing aligned.
func ShardKey(req Request, coherence time.Duration) string {
	if coherence <= 0 {
		coherence = strategy.DefaultCoherence
	}
	epoch, bucket := sessionEpoch(req, coherence)
	return fmt.Sprintf("%s|%d|%d|%v|%d|%d|%t",
		req.Scenario.Name, req.Scenario.APAntennas*100+req.Scenario.ClientAntennas*10+req.Scenario.Streams,
		req.Seed, req.Impairments, bucket, epoch, req.MultiDecoder)
}

// Allocate serves one request: result cache first, then in-flight
// deduplication, then the admission queue and the evaluator pool. The
// returned bool reports whether the result was served without a
// dedicated evaluation (cache hit, or piggybacked on an in-flight
// evaluation of the same world in either mode). Cache hits are
// allocation-free.
//
// When ctx carries a sampled trace (obs.StartSpan at the transport
// edge), the request records a serve.allocate span with one child per
// pipeline stage — serve.cache, serve.admission, serve.queue,
// serve.evaluate — so a slow allocate decomposes into the
// stage that cost it. Untraced contexts skip all span work, preserving
// the allocation-free cache-hit contract.
func (s *Server) Allocate(ctx context.Context, req Request) (res *Result, shared bool, err error) {
	mRequests.Inc()
	defer mRequestSeconds.Begin().End()
	if sp := obs.ChildSpan(ctx, "serve.allocate"); sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp.Context())
		defer func() { sp.EndErr(err) }()
	}
	k := s.keyFor(req)

	// Stage: cache — the lock-held lookup against the result cache and
	// the in-flight table.
	cacheSp := obs.ChildSpan(ctx, "serve.cache")
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cacheSp.EndErr(ErrServerClosed)
		mShedClosed.Inc()
		return nil, false, ErrServerClosed
	}
	if rs, ok := s.cache.get(k); ok {
		s.mu.Unlock()
		cacheSp.SetAttr("cache", "hit")
		cacheSp.End()
		mCacheHits.Inc()
		return &rs[slot(req.Mode)], true, nil
	}
	if f, ok := s.inflight[k]; ok {
		// A joiner with a later deadline keeps the flight alive for
		// itself; it still waits only until its own deadline.
		deadline, ctxBound := s.deadline(ctx)
		if deadline.After(f.deadline) {
			f.deadline = deadline
		}
		s.mu.Unlock()
		cacheSp.SetAttr("cache", "inflight")
		cacheSp.End()
		mInflightDedup.Inc()
		res, err := awaitFlight(ctx, f, req.Mode, deadline, ctxBound)
		return res, true, err
	}
	cacheSp.SetAttr("cache", "miss")
	cacheSp.End()
	mCacheMisses.Inc()

	// Stage: admission — registering the flight and entering the queue.
	aSpan := obs.ChildSpan(ctx, "serve.admission")
	deadline, ctxBound := s.deadline(ctx)
	f := &flight{done: make(chan struct{}), deadline: deadline}
	s.inflight[k] = f
	s.admitWG.Add(1)
	s.mu.Unlock()

	c := &call{key: k, req: req, f: f, enqueued: time.Now(), ctx: ctx}
	c.stage = obs.ChildSpan(ctx, "serve.queue")
	select {
	case s.queue <- c:
		s.admitWG.Done()
		aSpan.End()
		mQueueDepth.Set(float64(len(s.queue)))
	default:
		s.admitWG.Done()
		c.stage.EndErr(ErrQueueFull)
		aSpan.EndErr(ErrQueueFull)
		mShedQueueFull.Inc()
		s.finish(c, nil, ErrQueueFull)
		return nil, false, ErrQueueFull
	}
	res, err = awaitFlight(ctx, f, req.Mode, deadline, ctxBound)
	return res, false, err
}

// deadline is a request's own deadline: DefaultDeadline from now, or
// its context's deadline if that is sooner, in which case ctxBound is
// true.
func (s *Server) deadline(ctx context.Context) (deadline time.Time, ctxBound bool) {
	deadline = time.Now().Add(s.cfg.DefaultDeadline)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		return d, true
	}
	return deadline, false
}

// awaitFlight blocks until the flight resolves, the caller's context is
// cancelled, or the caller's own deadline passes, and returns the
// flight's answer for mode. Only this waiter gets ErrExpired at its
// deadline; the flight lives on for any waiter with a later one. A
// deadline the context carries fires through ctx.Done, so only a
// DefaultDeadline-bound wait arms a timer. An abandoned flight still
// completes and populates the cache.
func awaitFlight(ctx context.Context, f *flight, mode strategy.Mode, deadline time.Time, ctxBound bool) (*Result, error) {
	var expire <-chan time.Time
	if !ctxBound {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-f.done:
		return f.answer(mode)
	case <-ctx.Done():
		if ctx.Err() != context.DeadlineExceeded {
			return nil, ctx.Err()
		}
	case <-expire:
	}
	select {
	case <-f.done: // resolved as the deadline passed: take the answer
		return f.answer(mode)
	default:
	}
	mShedExpired.Inc()
	return nil, ErrExpired
}

// finish resolves a call's flight: deregisters it, caches successful
// results, and wakes every waiter.
func (s *Server) finish(c *call, res *results, err error) {
	s.mu.Lock()
	delete(s.inflight, c.key)
	if err == nil && res != nil {
		s.cache.put(c.key, res)
	}
	s.mu.Unlock()
	c.f.res, c.f.err = res, err
	close(c.f.done)
}

// worker is one evaluator goroutine. It owns one workspace arena for
// its lifetime (DESIGN §8: a workspace is single-goroutine) and reuses
// it across every evaluation it runs. A call whose every waiter's
// deadline passed while it was queued is shed without evaluation.
func (s *Server) worker() {
	defer s.workerWG.Done()
	ws := &precoding.Workspace{}
	for c := range s.queue {
		mQueueSeconds.Observe(time.Since(c.enqueued))
		c.stage.End()
		mQueueDepth.Set(float64(len(s.queue)))
		if s.shedExpired(c) {
			continue
		}
		s.evaluate(ws, c)
	}
}

// shedExpired resolves c's flight with ErrExpired if its deadline — the
// latest of its waiters' — has passed. The check and the flight's
// deregistration share one critical section, so no request can join a
// flight that is being shed.
func (s *Server) shedExpired(c *call) bool {
	s.mu.Lock()
	expired := time.Now().After(c.f.deadline)
	if expired {
		delete(s.inflight, c.key)
	}
	s.mu.Unlock()
	if expired {
		c.f.err = ErrExpired
		close(c.f.done)
	}
	return expired
}

// evaluate runs one world once and resolves its flight with the answer
// for both selection modes.
func (s *Server) evaluate(ws *precoding.Workspace, c *call) {
	c.stage = obs.ChildSpan(c.ctx, "serve.evaluate")
	if s.cfg.EvalHook != nil {
		s.cfg.EvalHook(c.req)
	}
	sample := mEvaluateSeconds.Begin()
	ws.Reset()
	// The (epoch, bucket) pair comes off the cache key — the single
	// computation in keyFor — never re-derived from the raw age here.
	bucket, epoch := c.key.ageBucket, c.key.epoch
	outs, err := evaluateWorld(ws, c.req, bucket, epoch)
	sample.End()
	c.stage.EndErr(err)
	if err != nil {
		mEvaluateErrors.Inc()
		s.finish(c, nil, err)
		return
	}
	// ValidUntil is derived from the key alone (not from whether the
	// computing request was a session), so a cache entry shared between
	// a session request at time t and a static request with the same
	// (epoch, bucket) identity is byte-identical either way.
	res := Result{Outcomes: outs, AgeBucket: bucket, Epoch: epoch, ValidUntil: validUntil(epoch, bucket, s.cfg.Coherence)}
	rs := &results{res, res}
	rs[0].Selected = strategy.Select(strategy.ModeMax, outs)
	rs[1].Selected = strategy.Select(strategy.ModeFair, outs)
	s.finish(c, rs, nil)
}

// evaluateWorld rebuilds the request's deterministic world — the same
// seed-to-deployment contract cmd/copad uses — and runs every strategy
// on it, carving all scratch from the worker's arena. The CSI-noise
// stream is salted with the session epoch: each epoch models a fresh
// measurement of the same deployment, and epoch 0 draws the exact
// stream the static path always has.
func evaluateWorld(ws *precoding.Workspace, req Request, bucket int, epoch int64) (map[strategy.Kind]strategy.Outcome, error) {
	imp := agedImpairments(req.Impairments, bucket)
	src := rng.New(req.Seed)
	dep := channel.NewDeployment(src.Split(1), req.Scenario)
	ev := strategy.NewEvaluator(dep, imp, src.Split(2+uint64(epoch)))
	ev.MultiDecoder = req.MultiDecoder
	ev.UseWorkspace(ws)
	return ev.EvaluateAll()
}

// Stats is a point-in-time operational reading for health endpoints.
// Cache carries the full per-shard cache reading (hits, misses,
// evictions, entries) a fronting router uses to observe shard balance.
type Stats struct {
	Workers    int        `json:"workers"`
	QueueDepth int        `json:"queue_depth"`
	QueueCap   int        `json:"queue_cap"`
	Cache      CacheStats `json:"cache"`
	Draining   bool       `json:"draining"`
}

// Stats reports the server's current operational state.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Workers:    s.cfg.Workers,
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Cache:      s.cache.stats(),
		Draining:   s.closed,
	}
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Shutdown stops admission (new requests fail with ErrServerClosed),
// lets the workers drain every queued request, and waits for them to
// exit. It returns ctx's error if the drain outlives the context;
// queued work keeps draining in the background regardless.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		// All in-progress queue sends started before closed was set;
		// once they finish the channel can be closed safely and the
		// workers drain it to empty.
		s.admitWG.Wait()
		s.closeQueue.Do(func() { close(s.queue) })
	}
	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts down with the configured drain timeout.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}
