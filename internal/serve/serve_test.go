package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/obs"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// testConfig is a small, fast server for unit tests.
func testConfig() Config {
	return Config{
		Workers:         2,
		QueueDepth:      16,
		CacheEntries:    64,
		DefaultDeadline: 10 * time.Second,
		DrainTimeout:    10 * time.Second,
	}
}

// slow4x2Hook returns an EvalHook that stalls Scenario4x2 evaluations by d,
// giving admission-control tests a deterministic "slow blocker" regardless
// of how fast the evaluator itself has become.
func slow4x2Hook(d time.Duration) func(Request) {
	return func(r Request) {
		if r.Scenario == channel.Scenario4x2 {
			time.Sleep(d)
		}
	}
}

// req1x1 is the cheap canonical request unit tests evaluate.
func req1x1(seed int64, mode strategy.Mode) Request {
	return Request{
		Scenario:    channel.Scenario1x1,
		Seed:        seed,
		Mode:        mode,
		Impairments: channel.DefaultImpairments(),
	}
}

// serialReference computes the result the service must reproduce:
// the same seed-to-world derivation, evaluated on a fresh private
// evaluator.
func serialReference(t *testing.T, req Request, coherence time.Duration) strategy.Outcome {
	t.Helper()
	imp := agedImpairments(req.Impairments, ageBucket(req.CSIAge, coherence))
	src := rng.New(req.Seed)
	dep := channel.NewDeployment(src.Split(1), req.Scenario)
	ev := strategy.NewEvaluator(dep, imp, src.Split(2))
	ev.MultiDecoder = req.MultiDecoder
	outs, err := ev.EvaluateAll()
	if err != nil {
		t.Fatalf("serial EvaluateAll: %v", err)
	}
	return strategy.Select(req.Mode, outs)
}

func counter(name string) uint64 {
	return obs.Default().Snapshot().Counters[name]
}

func TestAllocateCachesAndMatchesSerial(t *testing.T) {
	s := New(testConfig())
	defer s.Close()

	req := req1x1(7, strategy.ModeMax)
	res, cached, err := s.Allocate(context.Background(), req)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if cached {
		t.Fatal("first request reported cached")
	}
	want := serialReference(t, req, s.cfg.Coherence)
	if res.Selected != want {
		t.Fatalf("served outcome %+v != serial reference %+v", res.Selected, want)
	}

	res2, cached2, err := s.Allocate(context.Background(), req)
	if err != nil {
		t.Fatalf("repeat Allocate: %v", err)
	}
	if !cached2 {
		t.Fatal("identical repeat request was not served from cache")
	}
	if res2 != res {
		t.Fatal("cache hit returned a different result object")
	}

	// The other selection mode is answered from the same evaluated
	// world: outcomes must agree value-for-value.
	fair := req1x1(7, strategy.ModeFair)
	resF, _, err := s.Allocate(context.Background(), fair)
	if err != nil {
		t.Fatalf("fair Allocate: %v", err)
	}
	if resF.Selected != serialReference(t, fair, s.cfg.Coherence) {
		t.Fatal("fair-mode outcome diverges from serial reference")
	}
	for k, o := range res.Outcomes {
		if resF.Outcomes[k] != o {
			t.Fatalf("outcome %v differs between modes of the same world", k)
		}
	}
}

// TestPoolMatchesSerialReference hammers the evaluator pool from many
// goroutines and requires every served outcome to equal a serially
// computed reference bit for bit — under -race this is the arena
// isolation proof for the one-workspace-per-worker design.
func TestPoolMatchesSerialReference(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	cfg.CacheEntries = -1 // disable caching: force every request through the pool
	cfg.QueueDepth = 256
	s := New(cfg)
	defer s.Close()

	const seeds = 6
	const rounds = 3
	want := make(map[Request]strategy.Outcome)
	var reqs []Request
	for seed := int64(1); seed <= seeds; seed++ {
		for _, mode := range []strategy.Mode{strategy.ModeMax, strategy.ModeFair} {
			r := req1x1(seed, mode)
			want[r] = serialReference(t, r, cfg.Coherence)
			reqs = append(reqs, r)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(reqs)*rounds)
	for round := 0; round < rounds; round++ {
		for _, r := range reqs {
			wg.Add(1)
			go func(r Request) {
				defer wg.Done()
				res, _, err := s.Allocate(context.Background(), r)
				if err != nil {
					errs <- err
					return
				}
				if res.Selected != want[r] {
					errs <- errors.New("pooled outcome diverges from serial reference")
				}
			}(r)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQueueFullSheds(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.EvalHook = slow4x2Hook(150 * time.Millisecond)
	s := New(cfg)
	defer s.Close()

	before := counter("copa.serve.shed_queue_full")

	// Occupy the worker with a slow (4x2) evaluation, then burst
	// distinct cheap requests: with one worker and a one-slot queue most
	// of the burst must shed.
	blocker := Request{Scenario: channel.Scenario4x2, Seed: 99, Impairments: channel.DefaultImpairments()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := s.Allocate(context.Background(), blocker); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the worker pick the blocker up

	shed := 0
	var burst sync.WaitGroup
	var mu sync.Mutex
	for i := int64(0); i < 24; i++ {
		burst.Add(1)
		go func(seed int64) {
			defer burst.Done()
			_, _, err := s.Allocate(context.Background(), req1x1(1000+seed, strategy.ModeMax))
			if errors.Is(err, ErrQueueFull) {
				mu.Lock()
				shed++
				mu.Unlock()
			} else if err != nil {
				t.Errorf("burst: %v", err)
			}
		}(i)
	}
	burst.Wait()
	wg.Wait()
	if shed == 0 {
		t.Fatal("no request was shed with ErrQueueFull")
	}
	if got := counter("copa.serve.shed_queue_full"); got < before+uint64(shed) {
		t.Fatalf("shed_queue_full counter %d did not advance by %d", got, shed)
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.DefaultDeadline = time.Millisecond
	cfg.EvalHook = slow4x2Hook(150 * time.Millisecond)
	s := New(cfg)
	defer s.Close()

	before := counter("copa.serve.shed_expired")
	blocker := Request{Scenario: channel.Scenario4x2, Seed: 99, Impairments: channel.DefaultImpairments()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = s.Allocate(context.Background(), blocker)
	}()
	time.Sleep(20 * time.Millisecond)

	// Queued behind a >1ms evaluation with a 1ms deadline: must be shed
	// as expired, not evaluated.
	_, _, err := s.Allocate(context.Background(), req1x1(5, strategy.ModeMax))
	wg.Wait()
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
	if got := counter("copa.serve.shed_expired"); got <= before {
		t.Fatal("shed_expired counter did not advance")
	}
}

// queueBehindBlocker starts a slow 4x2 evaluation on s's single worker
// and returns once it is running, so worlds requested next wait in the
// queue. wait blocks until the blocker is answered.
func queueBehindBlocker(t *testing.T, s *Server) (wait func()) {
	t.Helper()
	blocker := Request{Scenario: channel.Scenario4x2, Seed: 99, Impairments: channel.DefaultImpairments()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = s.Allocate(context.Background(), blocker)
	}()
	time.Sleep(20 * time.Millisecond)
	return func() { <-done }
}

// awaitInflight blocks until s has registered a flight for req's world.
func awaitInflight(t *testing.T, s *Server, req Request) {
	t.Helper()
	k := s.keyFor(req)
	for start := time.Now(); time.Since(start) < 5*time.Second; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		_, ok := s.inflight[k]
		s.mu.Unlock()
		if ok {
			return
		}
	}
	t.Fatal("flight never registered")
}

// TestJoinerKeepsItsOwnDeadline: a request that joins a flight started
// by a request with a shorter deadline is answered, even though the
// first request's deadline passed while the world was queued.
func TestJoinerKeepsItsOwnDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.EvalHook = slow4x2Hook(150 * time.Millisecond)
	s := New(cfg)
	defer s.Close()
	wait := queueBehindBlocker(t, s)
	defer wait()

	maxReq := req1x1(61, strategy.ModeMax)
	var maxErr error
	maxDone := make(chan struct{})
	go func() {
		defer close(maxDone)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		_, _, maxErr = s.Allocate(ctx, maxReq)
	}()
	awaitInflight(t, s, maxReq)

	res, cached, err := s.Allocate(context.Background(), req1x1(61, strategy.ModeFair))
	if err != nil {
		t.Fatalf("joined fair request: %v, want a result", err)
	}
	if !cached || res == nil {
		t.Fatalf("joined fair request: cached=%v res=%v, want the shared flight's answer", cached, res)
	}
	<-maxDone
	if !errors.Is(maxErr, ErrExpired) {
		t.Fatalf("5ms max request: err = %v, want ErrExpired", maxErr)
	}
}

// TestShorterJoinerExpiresAlone: a joiner with a shorter deadline gets
// ErrExpired at its own deadline, and the request that started the
// flight is still answered.
func TestShorterJoinerExpiresAlone(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.EvalHook = slow4x2Hook(150 * time.Millisecond)
	s := New(cfg)
	defer s.Close()
	wait := queueBehindBlocker(t, s)
	defer wait()

	first := req1x1(62, strategy.ModeMax)
	var firstRes *Result
	var firstErr error
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		firstRes, _, firstErr = s.Allocate(context.Background(), first)
	}()
	awaitInflight(t, s, first)

	before := counter("copa.serve.shed_expired")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := s.Allocate(ctx, req1x1(62, strategy.ModeFair))
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("5ms joiner: err = %v, want ErrExpired", err)
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Fatalf("5ms joiner waited %v: it must end at its own deadline, not the flight's", waited)
	}
	if got := counter("copa.serve.shed_expired"); got != before+1 {
		t.Fatalf("shed_expired advanced by %d, want 1 (it counts requests)", got-before)
	}
	<-firstDone
	if firstErr != nil || firstRes == nil {
		t.Fatalf("first request: res=%v err=%v, want an answer", firstRes, firstErr)
	}
}

func TestInflightDeduplication(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.EvalHook = slow4x2Hook(150 * time.Millisecond)
	s := New(cfg)
	defer s.Close()

	before := counter("copa.serve.inflight_dedup")
	blocker := Request{Scenario: channel.Scenario4x2, Seed: 99, Impairments: channel.DefaultImpairments()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = s.Allocate(context.Background(), blocker)
	}()
	time.Sleep(20 * time.Millisecond)

	// Two identical requests while the worker is busy: the second must
	// piggyback on the first's flight, and both get the same object.
	req := req1x1(42, strategy.ModeMax)
	results := make([]*Result, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := s.Allocate(context.Background(), req)
			if err != nil {
				t.Errorf("dedup request: %v", err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if results[0] == nil || results[0] != results[1] {
		t.Fatal("identical concurrent requests did not share one computation")
	}
	if got := counter("copa.serve.inflight_dedup"); got <= before {
		t.Fatal("inflight_dedup counter did not advance")
	}
}

func TestAgeBucketing(t *testing.T) {
	coh := 40 * time.Millisecond
	cases := []struct {
		age  time.Duration
		want int
	}{
		{0, 0}, {5 * time.Millisecond, 0},
		{10 * time.Millisecond, 1}, {19 * time.Millisecond, 1},
		{20 * time.Millisecond, 2}, {39 * time.Millisecond, 3},
		{40 * time.Millisecond, 4}, {time.Hour, 4},
	}
	for _, c := range cases {
		if got := ageBucket(c.age, coh); got != c.want {
			t.Errorf("ageBucket(%v) = %d, want %d", c.age, got, c.want)
		}
	}

	// Staleness error must grow monotonically with the bucket.
	imp := channel.DefaultImpairments()
	prev := imp.StalenessDB
	for b := 1; b <= AgeBuckets; b++ {
		got := agedImpairments(imp, b).StalenessDB
		if got <= prev {
			t.Fatalf("bucket %d staleness %f not above bucket %d's %f", b, got, b-1, prev)
		}
		prev = got
	}

	cfg := testConfig()
	cfg.Coherence = coh
	s := New(cfg)
	defer s.Close()
	base := req1x1(3, strategy.ModeMax)
	base.CSIAge = 11 * time.Millisecond
	if _, _, err := s.Allocate(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	sameBucket := base
	sameBucket.CSIAge = 14 * time.Millisecond
	if _, cached, err := s.Allocate(context.Background(), sameBucket); err != nil || !cached {
		t.Fatalf("same-bucket age did not share the cache entry (cached=%v, err=%v)", cached, err)
	}
	otherBucket := base
	otherBucket.CSIAge = 25 * time.Millisecond
	if _, cached, err := s.Allocate(context.Background(), otherBucket); err != nil || cached {
		t.Fatalf("different-bucket age wrongly shared the cache entry (cached=%v, err=%v)", cached, err)
	}
}

func TestCacheBoundAndEviction(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 2
	s := New(cfg)
	defer s.Close()

	before := counter("copa.serve.cache_evictions")
	for seed := int64(1); seed <= 4; seed++ {
		if _, _, err := s.Allocate(context.Background(), req1x1(seed, strategy.ModeMax)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Stats().Cache.Entries; n > 2 {
		t.Fatalf("cache holds %d entries, bound is 2", n)
	}
	if got := counter("copa.serve.cache_evictions"); got <= before {
		t.Fatal("cache_evictions counter did not advance")
	}
	// Seed 1 was evicted: it must recompute (miss), seed 4 must hit.
	if _, cached, _ := s.Allocate(context.Background(), req1x1(4, strategy.ModeMax)); !cached {
		t.Fatal("most recent entry was not retained")
	}
	if _, cached, _ := s.Allocate(context.Background(), req1x1(1, strategy.ModeMax)); cached {
		t.Fatal("evicted entry was wrongly served from cache")
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	s := New(cfg)

	// Queue several requests, then shut down: every admitted request
	// must complete, and post-shutdown admission must be rejected.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for seed := int64(1); seed <= 4; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, _, err := s.Allocate(context.Background(), req1x1(seed, strategy.ModeMax))
			errs <- err
		}(seed)
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, ErrServerClosed) {
			t.Fatalf("admitted request failed with %v", err)
		}
	}
	if _, _, err := s.Allocate(context.Background(), req1x1(9, strategy.ModeMax)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-shutdown Allocate: err = %v, want ErrServerClosed", err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func timerCount(name string) uint64 {
	return obs.Default().Snapshot().Timers[name].Count
}

// TestModesShareOneEvaluation: a world is evaluated once for both
// selection modes. Concurrent max and fair requests share one flight,
// a later request in the other mode is a cache hit, and each mode
// still gets strategy.Select of its own policy.
func TestModesShareOneEvaluation(t *testing.T) {
	t.Run("inflight", func(t *testing.T) {
		cfg := testConfig()
		cfg.CacheEntries = -1 // only the flight can share the evaluation
		release := make(chan struct{})
		cfg.EvalHook = func(Request) { <-release }
		s := New(cfg)
		defer s.Close()

		evals := timerCount("copa.serve.evaluate_seconds")
		dedup := counter("copa.serve.inflight_dedup")
		reqs := []Request{req1x1(77, strategy.ModeMax), req1x1(77, strategy.ModeFair)}
		results := make([]*Result, len(reqs))
		var wg sync.WaitGroup
		for i, r := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, _, err := s.Allocate(context.Background(), r)
				if err != nil {
					t.Errorf("%v request: %v", r.Mode, err)
				}
				results[i] = res
			}()
		}
		// The evaluation is held until one request has joined the
		// other's flight.
		for deadline := time.Now().Add(5 * time.Second); counter("copa.serve.inflight_dedup") == dedup; {
			if time.Now().After(deadline) {
				close(release)
				t.Fatal("neither mode joined the other's in-flight evaluation")
			}
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
		if got := timerCount("copa.serve.evaluate_seconds") - evals; got != 1 {
			t.Fatalf("both modes of one world ran %d evaluations, want 1", got)
		}
		for i, r := range reqs {
			if results[i] == nil || results[i].Selected != serialReference(t, r, cfg.Coherence) {
				t.Fatalf("%v outcome diverges from serial reference", r.Mode)
			}
		}
	})

	t.Run("cached", func(t *testing.T) {
		s := New(testConfig())
		defer s.Close()
		if _, _, err := s.Allocate(context.Background(), req1x1(78, strategy.ModeMax)); err != nil {
			t.Fatal(err)
		}
		// A mode outside {max, fair} selects the way strategy.Select
		// reads it: as max.
		for _, mode := range []strategy.Mode{strategy.ModeFair, strategy.ModeMax, strategy.Mode(7)} {
			r := req1x1(78, mode)
			res, cached, err := s.Allocate(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			if !cached {
				t.Errorf("mode %d after max was not served from cache", mode)
			}
			if res.Selected != serialReference(t, r, s.cfg.Coherence) {
				t.Errorf("mode %d outcome diverges from serial reference", mode)
			}
		}
	})
}

// TestShardKey pins the contract a consistent-hash front tier relies
// on: two requests have equal shard keys exactly when they share a
// cache entry, so both modes of a world reach one backend.
func TestShardKey(t *testing.T) {
	coh := 40 * time.Millisecond
	s := &Server{cfg: Config{Coherence: coh}}
	base := req1x1(5, strategy.ModeMax)
	with := func(edit func(*Request)) Request {
		r := base
		edit(&r)
		return r
	}
	at := func(tm time.Duration) Request {
		return with(func(r *Request) { r.Session, r.Time = true, tm })
	}
	cases := []struct {
		name  string
		a, b  Request
		equal bool
	}{
		{"modes of one world", base, req1x1(5, strategy.ModeFair), true},
		{"seed", base, req1x1(6, strategy.ModeMax), false},
		{"scenario", base, with(func(r *Request) { r.Scenario = channel.Scenario4x2 }), false},
		{"impairments", base, with(func(r *Request) { r.Impairments = channel.PerfectHardware() }), false},
		{"age bucket", base, with(func(r *Request) { r.CSIAge = 25 * time.Millisecond }), false},
		{"epoch", at(11 * time.Millisecond), at(coh + 11*time.Millisecond), false},
		{"multi-decoder", base, with(func(r *Request) { r.MultiDecoder = true }), false},
		{"session times in one bucket", at(11 * time.Millisecond), at(14 * time.Millisecond), true},
	}
	for _, c := range cases {
		ka, kb := ShardKey(c.a, coh), ShardKey(c.b, coh)
		if (ka == kb) != c.equal {
			t.Errorf("%s: ShardKey %q vs %q, want equal=%v", c.name, ka, kb, c.equal)
		}
		if (s.keyFor(c.a) == s.keyFor(c.b)) != c.equal {
			t.Errorf("%s: the cache keys disagree with the shard keys", c.name)
		}
	}
}
