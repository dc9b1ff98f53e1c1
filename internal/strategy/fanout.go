package strategy

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"copa/internal/obs"
	"copa/internal/precoding"
)

// A task is one strategy evaluation under one follower designation.
// Tasks index the result slots of a fanout; the constants run in
// EvaluateAll's serial order, which is the order results are assembled
// in.
type task uint8

const (
	taskCSMA task = iota
	taskCOPASeq
	taskConcBF
	taskNull1 // KindNull, follower 1 (the canonical designation)
	taskNull0 // KindNull, follower 0 (SDA only)
	taskConcNull1
	taskConcNull0
	numTasks
)

// taskResult is one task's result slot.
type taskResult struct {
	out  Outcome
	tx   [2]*precoding.Transmission
	took time.Duration // zero while instrumentation is off
}

// fanout is one EvaluateAll's shared state: the precoders the serial
// prologue built, the task table in cost order, and a result slot per
// task. Participants claim tasks through next, so the caller and any
// helpers it borrowed drain one table. Every field but next and the
// result slots is written before the first task is handed out.
type fanout struct {
	bf    [2]*precoding.Precoder
	nulls [2]*nullingState // by follower designation; nil if not planned
	order [numTasks]task
	n     int32
	next  atomic.Int32
	limit int32 // the token budget when helpers were borrowed
	res   [numTasks]taskResult
	wg    sync.WaitGroup
}

// add appends a task to the table.
func (f *fanout) add(t task) {
	f.order[f.n] = t
	f.n++
}

// drain runs tasks from f's table on lane ev until none are left and
// returns how many it ran. ev is the calling evaluator itself or a
// helper's lane; either way it carves only from its own arena. A helper
// also stops once an evaluation that started since it was borrowed
// needs the processor: the caller finishes the table.
func (ev *Evaluator) drain(f *fanout, helper bool) (ran int) {
	timed := obs.Enabled()
	for ; ; ran++ {
		if helper && helpers.busy.Load() > f.limit {
			return ran
		}
		i := f.next.Add(1) - 1
		if i >= f.n {
			return ran
		}
		t := f.order[i]
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		r := &f.res[t]
		switch t {
		case taskCSMA:
			r.out, r.tx = ev.csma(f.bf)
		case taskCOPASeq:
			r.out, r.tx = ev.copaSeq(f.bf)
		case taskConcBF:
			r.out, r.tx = ev.concBF(f.bf)
		case taskNull1:
			r.out, r.tx = ev.nullVariant(KindNull, f.nulls[1])
		case taskNull0:
			r.out, r.tx = ev.nullVariant(KindNull, f.nulls[0])
		case taskConcNull1:
			r.out, r.tx = ev.nullVariant(KindConcNull, f.nulls[1])
		case taskConcNull0:
			r.out, r.tx = ev.nullVariant(KindConcNull, f.nulls[0])
		}
		if timed {
			r.took = time.Since(t0)
		}
	}
}

// helpers is the process-wide budget of processors that evaluations may
// borrow. busy counts tokens: one per running EvaluateAll and one per
// helper job. An evaluation hands tasks to a helper only while busy is
// below GOMAXPROCS, so saturated callers (a campaign with one worker per
// processor, a serving pool whose workers are all evaluating) get no
// helpers and run exactly the serial path, and a helper gives its
// processor back between tasks once busy exceeds the budget.
//
// Helper goroutines each own one arena for their lifetime, so borrowing
// allocates nothing per evaluation (no sync.Pool: its hit rate follows
// GC timing, DESIGN §8). They are started on demand and live as long as
// the process; an idle one blocks on jobs and holds only its arena.
// Every helper job holds a token and every evaluation holds one, so at
// most GOMAXPROCS−1 helpers ever exist.
var helpers struct {
	busy    atomic.Int32
	started atomic.Int32
	spawn   sync.Mutex
	jobs    chan *Evaluator
}

func init() { helpers.jobs = make(chan *Evaluator) }

// borrowHelpers takes up to want idle-processor tokens out of limit and
// returns how many it got. The caller must hold its own evaluation token
// and send one job per token to helpers.jobs.
func borrowHelpers(want int, limit int32) int {
	got := 0
	for got < want {
		b := helpers.busy.Load()
		if b >= limit {
			break
		}
		if !helpers.busy.CompareAndSwap(b, b+1) {
			continue
		}
		got++
		// b+1 tokens are held and at least one is an evaluation's, so at
		// most b helper jobs are outstanding: b helpers serve them all.
		if helpers.started.Load() < b {
			startHelpers(b)
		}
	}
	return got
}

// startHelpers brings the helper goroutine count up to n.
func startHelpers(n int32) {
	helpers.spawn.Lock()
	defer helpers.spawn.Unlock()
	for helpers.started.Load() < n {
		helpers.started.Add(1)
		go helper()
	}
}

// helper runs borrowed task tables on its own arena, through a lane: a
// shallow copy of the lending evaluator's read-only configuration wired
// to that arena.
func helper() {
	ws := &precoding.Workspace{}
	var lane Evaluator
	for ev := range helpers.jobs {
		ev.laneInto(&lane, ws)
		mHelperTasks.Add(uint64(lane.drain(&ev.fan, true)))
		lane = Evaluator{} // drop the finished world's references
		helpers.busy.Add(-1)
		ev.fan.wg.Done()
	}
}

// laneInto makes dst a lane of ev: the same world and configuration,
// scoring with ws as its arena. A lane reads the shared precoders from
// the fanout it drains, never from ev's caches.
func (ev *Evaluator) laneInto(dst *Evaluator, ws *precoding.Workspace) {
	*dst = Evaluator{
		Truth:        ev.Truth,
		Est:          ev.Est,
		Impairments:  ev.Impairments,
		Alloc:        ev.Alloc,
		Overhead:     ev.Overhead,
		Coherence:    ev.Coherence,
		MultiDecoder: ev.MultiDecoder,
		ws:           ws,
	}
	dst.Alloc.Scratch = ws
}

// EvaluateAll runs every strategy applicable to the scenario and returns
// the outcomes by kind. Infeasible strategies (nulling for single-antenna
// APs) are simply absent.
//
// A serial prologue builds what the strategies share — the beamformers
// and the nulling setups — on the evaluator's own arena. The strategy
// evaluations then read only that state, so they run as independent
// tasks: on the caller's goroutine, plus on helper goroutines when
// processors are idle (see helpers). Outcomes, TransmissionsFor and
// allocation counts are identical either way.
func (ev *Evaluator) EvaluateAll() (map[Kind]Outcome, error) {
	defer mEvalAllSeconds.Begin().End()
	helpers.busy.Add(1)
	defer helpers.busy.Add(-1)

	f := &ev.fan
	f.n = 0
	f.next.Store(0)
	f.res = [numTasks]taskResult{}
	timed := obs.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}

	// Prologue. The beamformers are CSMA's first step when the
	// strategies run one by one, and the nulling setups Null's, so their
	// time is billed there.
	var err error
	f.bf, err = ev.beamformers(ev.Truth.Scenario.Streams)
	var setupBF, setupNull time.Duration
	if timed {
		setupBF = time.Since(t0)
		t0 = time.Now()
	}
	if err != nil {
		if timed {
			evalTimers[KindCSMA].Observe(setupBF)
		}
		return nil, err
	}
	f.nulls = [2]*nullingState{}
	if st, err := ev.nullingStateFor(1); err == nil {
		f.nulls[1] = st
		if st.plan.sdaOn >= 0 {
			if st0, err := ev.nullingStateFor(0); err == nil {
				f.nulls[0] = st0
			}
		}
	}
	if timed {
		setupNull = time.Since(t0)
	}

	// Tasks in descending cost, so the last task to finish is short.
	f.add(taskConcBF)
	if f.nulls[1] != nil {
		f.add(taskConcNull1)
		if f.nulls[0] != nil {
			f.add(taskConcNull0)
		}
	}
	f.add(taskCOPASeq)
	if f.nulls[1] != nil {
		f.add(taskNull1)
		if f.nulls[0] != nil {
			f.add(taskNull0)
		}
	}
	f.add(taskCSMA)

	f.limit = int32(runtime.GOMAXPROCS(0))
	lent := borrowHelpers(int(f.n)-1, f.limit)
	f.wg.Add(lent)
	for i := 0; i < lent; i++ {
		helpers.jobs <- ev
	}
	ev.drain(f, false)
	f.wg.Wait()

	// Assemble in the serial order: the first designation's transmissions
	// are the ones TransmissionsFor returns.
	out := make(map[Kind]Outcome)
	for _, t := range [...]task{taskCSMA, taskCOPASeq, taskConcBF} {
		r := &f.res[t]
		out[r.out.Kind] = r.out
		ev.remember(r.out.Kind, r.tx)
	}
	if f.nulls[1] != nil {
		for _, p := range [...][2]task{{taskNull1, taskNull0}, {taskConcNull1, taskConcNull0}} {
			first := &f.res[p[0]]
			o := first.out
			if f.nulls[0] != nil {
				o = averageOutcomes(o, f.res[p[1]].out)
			}
			out[o.Kind] = o
			ev.remember(o.Kind, first.tx)
		}
	}

	if timed {
		evalTimers[KindCSMA].Observe(setupBF + f.res[taskCSMA].took)
		evalTimers[KindCOPASeq].Observe(f.res[taskCOPASeq].took)
		evalTimers[KindConcBF].Observe(f.res[taskConcBF].took)
		evalTimers[KindNull].Observe(setupNull + f.res[taskNull1].took + f.res[taskNull0].took)
		evalTimers[KindConcNull].Observe(f.res[taskConcNull1].took + f.res[taskConcNull0].took)
	}
	return out, nil
}
