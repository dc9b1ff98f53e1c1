package campaign

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"copa/internal/obs"
	"copa/internal/precoding"
)

// Options configure one engine run without affecting its results:
// worker count, checkpointing, and resume change only wall time and
// durability, never a byte of the final aggregates.
type Options struct {
	// Workers is the number of evaluator goroutines, each owning one
	// scratch arena (default: GOMAXPROCS).
	Workers int
	// Checkpoint is the JSONL journal path; empty disables
	// checkpointing.
	Checkpoint string
	// Resume loads an existing checkpoint instead of failing on it.
	Resume bool
	// OnProgress, when non-nil, is called from the collector after
	// every completed unit (for CLI progress lines; obs metrics are
	// always maintained).
	OnProgress func(done, total int)
	// ProgressEvery, when positive, makes the collector log a progress
	// line (done/total, units/s, ETA) at most once per interval.
	ProgressEvery time.Duration
}

// progress is the collector's running view of a campaign, passed to
// the periodic log line and mirrored into the copa.campaign.* gauges.
type progress struct {
	Done, Total int
	// UnitsPerSec is the completion rate of THIS run (resumed units
	// journaled by a prior run don't count toward the rate).
	UnitsPerSec float64
	// ETA is the remaining wall time at the current rate (0 until the
	// first unit of this run completes).
	ETA time.Duration
}

// Run executes a campaign to completion: it shards the spec's scenario
// space into units, skips units already journaled in the checkpoint,
// fans the rest out over the worker pool, journals each as it
// completes, and streams it through a merger in ascending unit order.
// Cancelling ctx stops the engine promptly — in-flight units abort
// unjournaled, completed ones are already durable — and returns
// ctx.Err(); a later Resume run recomputes only what is missing and
// returns aggregates byte-identical to an uninterrupted run.
func Run(ctx context.Context, spec Spec, opt Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	span := obs.ChildSpan(ctx, "campaign.run")
	if span != nil {
		ctx = obs.ContextWithSpan(ctx, span.Context())
	}
	var runErr error
	defer func() { span.EndErr(runErr) }()
	mRuns.Inc()

	total := spec.Units()
	merge := newMerger(spec)
	var jnl *journal
	var done map[int]*UnitResult // journaled by a prior run; dropped once merged
	if opt.Checkpoint != "" {
		var err error
		jnl, done, err = openJournal(opt.Checkpoint, spec, opt.Resume)
		if err != nil {
			runErr = err
			return nil, err
		}
		defer jnl.Close()
		mUnitsResumed.Add(uint64(len(done)))
	}

	// The feeder owns the unit queue; workers pull units, evaluate,
	// and push onto out; the collector (this goroutine) journals and
	// merges. A worker error or ctx cancellation closes stop, which
	// ends the feeder — workers then drain the closed feed and exit,
	// closing out via the WaitGroup.
	feed := make(chan int)
	out := make(chan *UnitResult)
	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abort()
	}
	checkCancel := func() error {
		select {
		case <-stop:
			return context.Canceled
		default:
			return ctx.Err()
		}
	}

	// The feeder sees only which units are journaled, not their
	// results, so the collector can drop done once the merger has them.
	var journaled []bool // nil on a fresh run
	if len(done) > 0 {
		journaled = make([]bool, total)
		for u := range done {
			journaled[u] = true
		}
	}
	go func() { // feeder
		defer close(feed)
		for u := 0; u < total; u++ {
			if journaled != nil && journaled[u] {
				continue // already journaled by a prior run
			}
			select {
			case feed <- u:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { // worker: one arena for its whole lifetime
			defer wg.Done()
			ws := &precoding.Workspace{}
			for u := range feed {
				mUnitsInFlight.Add(1)
				usp := obs.ChildSpan(ctx, "campaign.unit")
				usp.SetAttr("unit", strconv.Itoa(u))
				sample := mUnitSeconds.Begin()
				res, err := EvalUnit(spec, u, ws, checkCancel)
				sample.End()
				usp.EndErr(err)
				mUnitsInFlight.Add(-1)
				if err != nil {
					if err != context.Canceled && ctx.Err() == nil {
						mUnitsFailed.Inc()
						fail(err)
					}
					continue
				}
				select {
				case out <- res:
				case <-stop:
					// Collector gone (error path); drop the unit.
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Collector: journal and merge every unit that finishes, including
	// ones completing after cancellation — work already paid for
	// becomes durable, which is what makes kill-and-resume cheap.
	started := time.Now()
	completed := len(done)
	unitsPerShard := spec.Cells()
	shardDone := make([]int, spec.Shards)
	gauges := shardGauges(spec.Shards)
	for u, res := range done {
		merge.Add(res)
		_, _, sh := spec.UnitCoord(u)
		shardDone[sh]++
	}
	done = nil // the merger holds the journaled units it could not fold yet
	for sh, g := range gauges {
		g.Set(float64(shardDone[sh]) / float64(unitsPerShard))
	}
	resumed := completed
	lastLog := started
	for res := range out {
		completed++
		mUnitsDone.Inc()
		_, _, sh := spec.UnitCoord(res.Unit)
		shardDone[sh]++
		gauges[sh].Set(float64(shardDone[sh]) / float64(unitsPerShard))

		// Rate and ETA count only THIS run's completions: resumed units
		// were paid for by a previous process and would inflate both.
		prog := progress{Done: completed, Total: total}
		if elapsed := time.Since(started).Seconds(); elapsed > 0 {
			prog.UnitsPerSec = float64(completed-resumed) / elapsed
		}
		if prog.UnitsPerSec > 0 {
			prog.ETA = time.Duration(float64(total-completed) / prog.UnitsPerSec * float64(time.Second))
		}
		mUnitsPerSec.Set(prog.UnitsPerSec)
		mETASeconds.Set(prog.ETA.Seconds())

		if jnl != nil {
			ckSpan := obs.ChildSpan(ctx, "campaign.checkpoint")
			err := jnl.Record(res)
			ckSpan.EndErr(err)
			if err != nil {
				fail(fmt.Errorf("campaign: journaling unit %d: %w", res.Unit, err))
			}
			mCheckpointUnix.Set(float64(time.Now().Unix()))
		}
		merge.Add(res)
		if opt.OnProgress != nil {
			opt.OnProgress(completed, total)
		}
		if opt.ProgressEvery > 0 && (time.Since(lastLog) >= opt.ProgressEvery || completed == total) {
			lastLog = time.Now()
			obs.Logger().Info("campaign progress",
				"done", completed, "total", total,
				"units_per_sec", fmt.Sprintf("%.2f", prog.UnitsPerSec),
				"eta", prog.ETA.Round(time.Second).String())
		}
	}
	abort() // release any worker blocked on out after an error

	if err := ctx.Err(); err != nil {
		runErr = err
		return nil, err
	}
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		runErr = err
		return nil, err
	}
	if completed != total {
		runErr = fmt.Errorf("campaign: %d/%d units completed", completed, total)
		return nil, runErr
	}
	return merge.Result(), nil
}

// merger folds completed units into a campaign's columns in ascending
// unit order — the one fixed order that makes the floating-point
// Moments merge, and therefore the serialized Result, byte-identical
// across worker counts, interleavings, resumes, and processes. Units
// may arrive in any order: each one is merged as soon as it extends the
// contiguous prefix of merged units, and only the ones ahead of a gap
// are held. A merger is not safe for concurrent use.
type merger struct {
	spec    Spec
	cols    map[string]*Column
	pending map[int]*UnitResult // completed, awaiting an earlier unit; nil until one arrives early
	next    int                 // lowest unit not yet merged
}

// newMerger returns an empty merger for spec's units.
func newMerger(spec Spec) *merger {
	return &merger{spec: spec, cols: make(map[string]*Column)}
}

// Add takes one completed unit (each unit exactly once) and merges
// every held unit that now extends the prefix. It returns how many
// units it merged.
func (m *merger) Add(ur *UnitResult) int {
	if ur.Unit != m.next {
		if m.pending == nil {
			m.pending = make(map[int]*UnitResult)
		}
		m.pending[ur.Unit] = ur
		return 0
	}
	merged := 0
	for ur != nil {
		delete(m.pending, ur.Unit)
		for _, name := range sortedColNames(ur.Columns) {
			c, ok := m.cols[name]
			if !ok {
				c = NewColumn()
				m.cols[name] = c
			}
			c.Merge(ur.Columns[name])
		}
		m.next++
		merged++
		ur = m.pending[m.next]
	}
	return merged
}

// Pending returns how many added units wait for an earlier one.
func (m *merger) Pending() int { return len(m.pending) }

// Result returns the merged campaign; it is complete once every unit
// of the spec has been added.
func (m *merger) Result() *Result {
	return &Result{Spec: m.spec, Units: m.next, Columns: m.cols}
}

func sortedColNames(cols map[string]*Column) []string {
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	// Insertion sort: column sets are small (a handful of schemes).
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
