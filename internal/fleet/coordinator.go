package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"copa/internal/campaign"
	"copa/internal/obs"
)

// ErrClosed is returned by Wait when the coordinator was shut down
// before the campaign completed.
var ErrClosed = errors.New("fleet: coordinator closed before campaign completed")

// CoordinatorOptions configure one coordinator. Like the engine's
// Options, nothing here affects the campaign's result bytes — only
// durability, scheduling, and reporting.
type CoordinatorOptions struct {
	// Checkpoint is the unit-journal path; the lease journal rides
	// beside it as <Checkpoint>.leases. Empty disables both.
	Checkpoint string
	// Resume loads an existing checkpoint instead of failing on it.
	// Checkpoints are interchangeable with campaign.Run's: a campaign
	// started single-process finishes under a coordinator and vice
	// versa, fingerprint-checked either way.
	Resume bool
	// LeaseTTL is how long a granted unit stays assigned without a
	// heartbeat before it is reclaimed (default 10s).
	LeaseTTL time.Duration
	// GrantWait is the retry delay handed to workers when every
	// remaining unit is leased out (default 200ms).
	GrantWait time.Duration
	// OnProgress, when non-nil, runs after every merged-or-accepted
	// unit — local or remote — with the fleet-wide view. Called with
	// the coordinator's mutex held; keep it cheap.
	OnProgress func(campaign.Progress)
	// ProgressEvery, when positive, logs a progress line (done/total,
	// units/s, ETA, live workers) at most once per interval.
	ProgressEvery time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	name     string
	joined   time.Time
	lastSeen time.Time
	live     bool
	done     uint64
}

// Coordinator owns a campaign's unit queue: it leases units to
// registered workers, journals and merges their results in ascending
// unit order, and completes with a Result byte-identical to
// campaign.Run on the same spec.
type Coordinator struct {
	spec campaign.Spec
	fp   string
	opt  CoordinatorOptions
	// epoch identifies this incarnation; a restart invalidates every
	// outstanding lease wholesale by changing it.
	epoch int64
	// tp is the campaign root span's traceparent, handed to workers at
	// join so remote unit spans share the campaign's TraceID.
	tp   string
	span *obs.ActiveSpan

	mu         sync.Mutex
	leases     *leaseTable
	merge      *campaign.Merger
	doneUnits  []bool
	completed  int
	resumed    int
	total      int
	jnl        *campaign.Journal
	lj         *leaseJournal
	workers    map[int]*workerState
	nextWorker int
	started    time.Time
	lastLog    time.Time
	gauges     []*obs.Gauge
	shardDone  []int
	result     *campaign.Result
	err        error
	done       bool
	closed     bool

	finished chan struct{}
	stopTick chan struct{}
}

// NewCoordinator opens (or resumes) a campaign for distribution. The
// context roots the campaign trace: every fleet RPC span and every
// remote unit span stitches under one TraceID. A fully-resumed
// checkpoint completes immediately — Wait returns without any worker
// joining.
func NewCoordinator(ctx context.Context, spec campaign.Spec, opt CoordinatorOptions) (*Coordinator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 10 * time.Second
	}
	if opt.GrantWait <= 0 {
		opt.GrantWait = 200 * time.Millisecond
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	_, span := obs.StartSpan(ctx, "fleet.campaign")
	c := &Coordinator{
		spec:     spec,
		fp:       spec.Fingerprint(),
		opt:      opt,
		epoch:    time.Now().UnixNano(),
		span:     span,
		merge:    campaign.NewMerger(spec),
		total:    spec.Units(),
		workers:  make(map[int]*workerState),
		finished: make(chan struct{}),
		stopTick: make(chan struct{}),
	}
	if sc := span.Context(); sc.Valid() {
		c.tp = sc.Traceparent()
	}
	c.doneUnits = make([]bool, c.total)
	c.leases = newLeaseTable(opt.LeaseTTL, opt.now)
	c.started = opt.now()
	c.lastLog = c.started
	c.shardDone = make([]int, spec.Shards)
	c.gauges = campaign.ShardGauges(spec.Shards)

	if opt.Checkpoint != "" {
		jnl, done, err := campaign.OpenJournal(opt.Checkpoint, spec, opt.Resume)
		if err != nil {
			span.EndErr(err)
			return nil, err
		}
		lj, err := openLeaseJournal(opt.Checkpoint+".leases", c.fp, opt.Resume)
		if err != nil {
			jnl.Close()
			span.EndErr(err)
			return nil, err
		}
		c.jnl, c.lj = jnl, lj
		if err := lj.record(leaseEvent{T: "epoch", Epoch: c.epoch}); err != nil {
			c.closeJournals()
			span.EndErr(err)
			return nil, err
		}
		for u, res := range done {
			mUnitsMerged.Add(uint64(c.merge.Add(res)))
			c.doneUnits[u] = true
			c.completed++
			_, _, sh := spec.UnitCoord(u)
			c.shardDone[sh]++
		}
		c.resumed = c.completed
		mUnitsResumed.Add(uint64(c.resumed))
	}
	for u := 0; u < c.total; u++ {
		if !c.doneUnits[u] {
			c.leases.addPending(u)
		}
	}
	unitsPerShard := spec.Cells()
	for sh, g := range c.gauges {
		g.Set(float64(c.shardDone[sh]) / float64(unitsPerShard))
	}
	mMergeLag.Set(float64(c.merge.Pending()))
	c.mu.Lock()
	if c.completed == c.total {
		c.finishLocked(nil)
	}
	c.mu.Unlock()

	go c.tick()
	return c, nil
}

// tick periodically reclaims expired leases and refreshes worker
// liveness, so reassignment happens even while no RPCs arrive.
func (c *Coordinator) tick() {
	interval := c.opt.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopTick:
			return
		case <-t.C:
			c.mu.Lock()
			c.expireLocked()
			c.refreshLivenessLocked()
			c.mu.Unlock()
		}
	}
}

// expireLocked sweeps overdue leases back into the queue, journaling
// each reclamation.
func (c *Coordinator) expireLocked() {
	for _, l := range c.leases.expire() {
		obs.Logger().Debug("fleet lease expired", "unit", l.unit, "worker", l.worker)
		if err := c.lj.record(leaseEvent{T: "expire", Unit: l.unit, Worker: l.worker, Lease: l.token}); err != nil {
			c.failLocked(fmt.Errorf("fleet: lease journal: %w", err))
			return
		}
	}
}

// refreshLivenessLocked marks workers dead after two missed TTLs.
func (c *Coordinator) refreshLivenessLocked() {
	cutoff := c.opt.now().Add(-2 * c.opt.LeaseTTL)
	live := 0
	for _, w := range c.workers {
		if w.live && w.lastSeen.Before(cutoff) {
			w.live = false
		}
		if w.live {
			live++
		}
	}
	mWorkersLive.Set(float64(live))
}

// failLocked aborts the campaign with err; Wait observes it.
func (c *Coordinator) failLocked(err error) {
	if !c.done {
		c.finishLocked(err)
	}
}

// finishLocked seals the campaign: on success the merged columns become
// the Result (bytes identical to campaign.Run's, because both merge
// through a campaign.Merger in the same ascending unit order).
func (c *Coordinator) finishLocked(err error) {
	if c.done {
		return
	}
	c.done = true
	c.err = err
	if err == nil {
		c.result = c.merge.Result()
	}
	c.span.EndErr(err)
	close(c.finished)
}

// progressLocked refreshes rate/ETA gauges and fires the callbacks.
// Like the engine, the rate counts only units completed by THIS
// incarnation: resumed units were paid for by a previous process.
func (c *Coordinator) progressLocked() {
	prog := campaign.Progress{Done: c.completed, Total: c.total}
	if elapsed := c.opt.now().Sub(c.started).Seconds(); elapsed > 0 {
		prog.UnitsPerSec = float64(c.completed-c.resumed) / elapsed
	}
	if prog.UnitsPerSec > 0 {
		prog.ETA = time.Duration(float64(c.total-c.completed) / prog.UnitsPerSec * float64(time.Second))
	}
	mUnitsPerSec.Set(prog.UnitsPerSec)
	mETASeconds.Set(prog.ETA.Seconds())
	if c.opt.OnProgress != nil {
		c.opt.OnProgress(prog)
	}
	if c.opt.ProgressEvery > 0 && (c.opt.now().Sub(c.lastLog) >= c.opt.ProgressEvery || c.completed == c.total) {
		c.lastLog = c.opt.now()
		live := 0
		for _, w := range c.workers {
			if w.live {
				live++
			}
		}
		obs.Logger().Info("fleet progress",
			"done", c.completed, "total", c.total,
			"units_per_sec", fmt.Sprintf("%.2f", prog.UnitsPerSec),
			"eta", prog.ETA.Round(time.Second).String(),
			"workers_live", live, "merge_lag", c.merge.Pending())
	}
}

// Handler returns the coordinator's RPC mux (mount it on any server;
// copacampaign serves it directly).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathSpec, c.handleSpec)
	mux.HandleFunc("POST "+PathJoin, c.handleJoin)
	mux.HandleFunc("POST "+PathLease, c.handleLease)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("POST "+PathComplete, c.handleComplete)
	return mux
}

// startRPCSpan continues the caller's trace into a coordinator-side span.
// Workers inject the campaign root's traceparent on every RPC, so these
// spans — and the remote unit spans between them — share one TraceID.
// Requests that predate the worker learning the traceparent (spec fetch,
// the join itself) carry none; those parent directly on the campaign
// root so the whole conversation still lands in one trace.
func (c *Coordinator) startRPCSpan(r *http.Request, name string) *obs.ActiveSpan {
	ctx := obs.ExtractHTTP(r.Context(), r.Header)
	if _, ok := obs.SpanFromContext(ctx); !ok {
		ctx = obs.ContextWithSpan(ctx, c.span.Context())
	}
	return obs.ChildSpan(ctx, name)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	sample := mRPCSeconds.Begin()
	defer sample.End()
	writeJSON(w, http.StatusOK, SpecResponse{Protocol: ProtocolVersion, Fingerprint: c.fp, Spec: c.spec})
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	sample := mRPCSeconds.Begin()
	defer sample.End()
	sp := c.startRPCSpan(r, "fleet.join")
	var req JoinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sp.EndErr(err)
		writeError(w, http.StatusBadRequest, "bad join body: %v", err)
		return
	}
	if req.Protocol != ProtocolVersion {
		err := fmt.Errorf("fleet: protocol %d, coordinator speaks %d", req.Protocol, ProtocolVersion)
		sp.EndErr(err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Fingerprint != c.fp {
		// The worker decoded our spec into something that hashes
		// differently: mismatched binaries or a corrupted config. Refuse
		// before any work is leased.
		err := fmt.Errorf("fleet: spec fingerprint mismatch (worker %.12s…, coordinator %.12s…): mixed binaries or configs", req.Fingerprint, c.fp)
		sp.EndErr(err)
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	c.mu.Lock()
	id := c.nextWorker
	c.nextWorker++
	now := c.opt.now()
	c.workers[id] = &workerState{name: req.Name, joined: now, lastSeen: now, live: true}
	mWorkersJoined.Inc()
	live := 0
	for _, ws := range c.workers {
		if ws.live {
			live++
		}
	}
	mWorkersLive.Set(float64(live))
	c.mu.Unlock()
	sp.SetAttr("worker", strconv.Itoa(id))
	sp.End()
	obs.Logger().Info("fleet worker joined", "worker", id, "name", req.Name)
	writeJSON(w, http.StatusOK, JoinResponse{
		Worker:      id,
		Epoch:       c.epoch,
		LeaseTTLMS:  c.opt.LeaseTTL.Milliseconds(),
		Traceparent: c.tp,
	})
}

// checkEpochLocked rejects requests from a previous coordinator
// incarnation (their leases died with it; the worker must rejoin).
func (c *Coordinator) checkEpochLocked(epoch int64) error {
	if epoch != c.epoch {
		return fmt.Errorf("fleet: stale epoch %d (coordinator is at %d); rejoin", epoch, c.epoch)
	}
	return nil
}

// touchLocked refreshes a worker's liveness on any RPC.
func (c *Coordinator) touchLocked(worker int) {
	if ws, ok := c.workers[worker]; ok {
		ws.lastSeen = c.opt.now()
		if !ws.live {
			ws.live = true
		}
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	sample := mRPCSeconds.Begin()
	defer sample.End()
	sp := c.startRPCSpan(r, "fleet.lease")
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sp.EndErr(err)
		writeError(w, http.StatusBadRequest, "bad lease body: %v", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkEpochLocked(req.Epoch); err != nil {
		sp.EndErr(err)
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	c.touchLocked(req.Worker)
	c.expireLocked()
	if c.done {
		sp.SetAttr("status", StatusDone)
		sp.End()
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusDone})
		return
	}
	l, ok := c.leases.grant(req.Worker)
	if !ok {
		sp.SetAttr("status", StatusWait)
		sp.End()
		writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusWait, WaitMS: c.opt.GrantWait.Milliseconds()})
		return
	}
	if err := c.lj.record(leaseEvent{T: "grant", Unit: l.unit, Worker: req.Worker, Lease: l.token}); err != nil {
		c.failLocked(fmt.Errorf("fleet: lease journal: %w", err))
		sp.EndErr(err)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	sp.SetAttr("status", StatusLease)
	sp.SetAttr("unit", strconv.Itoa(l.unit))
	sp.End()
	writeJSON(w, http.StatusOK, LeaseResponse{Status: StatusLease, Unit: l.unit, Lease: l.token})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	sample := mRPCSeconds.Begin()
	defer sample.End()
	sp := c.startRPCSpan(r, "fleet.heartbeat")
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sp.EndErr(err)
		writeError(w, http.StatusBadRequest, "bad heartbeat body: %v", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkEpochLocked(req.Epoch); err != nil {
		sp.EndErr(err)
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	c.touchLocked(req.Worker)
	c.expireLocked()
	expired := c.leases.renew(req.Leases)
	sp.End()
	writeJSON(w, http.StatusOK, HeartbeatResponse{Expired: expired, Done: c.done})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	sample := mRPCSeconds.Begin()
	defer sample.End()
	sp := c.startRPCSpan(r, "fleet.complete")
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		sp.EndErr(err)
		writeError(w, http.StatusBadRequest, "bad complete body: %v", err)
		return
	}
	res := req.Result
	if res == nil || res.Unit < 0 || res.Unit >= c.total || res.Columns == nil {
		err := fmt.Errorf("fleet: malformed unit result")
		sp.EndErr(err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkEpochLocked(req.Epoch); err != nil {
		sp.EndErr(err)
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	c.touchLocked(req.Worker)
	sp.SetAttr("unit", strconv.Itoa(res.Unit))

	// Dedup: deterministic units make "first completion wins" exact —
	// a duplicate (transport replay, or a reassigned unit finished by
	// both holders) carries identical bytes, so dropping it cannot
	// change the merge.
	if c.doneUnits[res.Unit] {
		mUnitsDuplicate.Inc()
		sp.SetAttr("duplicate", "true")
		sp.End()
		writeJSON(w, http.StatusOK, CompleteResponse{Accepted: true, Duplicate: true, Done: c.done})
		return
	}
	// Accept even when the lease has expired: the work is already done
	// and deterministic. A live lease for a *different* unit quoting
	// this token is a protocol violation, though.
	if l, ok := c.leases.byToken[req.Lease]; ok && l.unit != res.Unit {
		err := fmt.Errorf("fleet: lease %d is for unit %d, not %d", req.Lease, l.unit, res.Unit)
		sp.EndErr(err)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Journal before merging, exactly like the engine's collector: a
	// coordinator killed between the two resumes with the unit durable.
	if c.jnl != nil {
		if err := c.jnl.Record(res); err != nil {
			c.failLocked(fmt.Errorf("fleet: journaling unit %d: %w", res.Unit, err))
			sp.EndErr(err)
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	if err := c.lj.record(leaseEvent{T: "complete", Unit: res.Unit, Worker: req.Worker, Lease: req.Lease}); err != nil {
		c.failLocked(fmt.Errorf("fleet: lease journal: %w", err))
		sp.EndErr(err)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	c.leases.complete(res.Unit)
	mUnitsMerged.Add(uint64(c.merge.Add(res)))
	mMergeLag.Set(float64(c.merge.Pending()))
	c.doneUnits[res.Unit] = true
	c.completed++
	if ws, ok := c.workers[req.Worker]; ok {
		ws.done++
		if elapsed := c.opt.now().Sub(ws.joined).Seconds(); elapsed > 0 {
			workerGauge(req.Worker).Set(float64(ws.done) / elapsed)
		}
	}
	_, _, sh := c.spec.UnitCoord(res.Unit)
	c.shardDone[sh]++
	c.gauges[sh].Set(float64(c.shardDone[sh]) / float64(c.spec.Cells()))
	c.progressLocked()
	if c.completed == c.total {
		c.finishLocked(nil)
	}
	sp.End()
	writeJSON(w, http.StatusOK, CompleteResponse{Accepted: true, Done: c.done})
}

// Wait blocks until the campaign completes (returning the merged
// Result), fails, or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) (*campaign.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.finished:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.result, c.err
	}
}

// Stats is a snapshot of the coordinator's fleet view (test and
// monitoring hook).
type Stats struct {
	Workers      int  `json:"workers"`
	WorkersLive  int  `json:"workers_live"`
	Completed    int  `json:"completed"`
	Resumed      int  `json:"resumed"`
	Total        int  `json:"total"`
	LeasesActive int  `json:"leases_active"`
	MergeLag     int  `json:"merge_lag"`
	Done         bool `json:"done"`
}

// Stats returns the current fleet snapshot.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := 0
	for _, w := range c.workers {
		if w.live {
			live++
		}
	}
	return Stats{
		Workers:      len(c.workers),
		WorkersLive:  live,
		Completed:    c.completed,
		Resumed:      c.resumed,
		Total:        c.total,
		LeasesActive: c.leases.active(),
		MergeLag:     c.merge.Pending(),
		Done:         c.done,
	}
}

func (c *Coordinator) closeJournals() {
	if c.jnl != nil {
		c.jnl.Close()
		c.jnl = nil
	}
	if c.lj != nil {
		c.lj.close()
		c.lj = nil
	}
}

// Close shuts the coordinator down: the expiry ticker stops, journals
// flush and close, and — if the campaign had not completed — Wait
// unblocks with ErrClosed. Completed units stay durable in the
// checkpoint; a new coordinator (or campaign.Run) resumes them.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.stopTick)
	if !c.done {
		c.finishLocked(ErrClosed)
	}
	c.closeJournals()
	return nil
}
