package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"copa/internal/obs"
)

// Tracing for the per-layer run. The benchmark records its own spans,
// around each call it makes into a layer's public function, and keeps
// them in memory; spans the program records itself (serve's pipeline
// stages, the router's hop, campaign units) land in obs's fixed-size
// ring and are copied out by a poller before they are overwritten. Both
// kinds share obs's trace and span identifiers, so they form one tree:
// the benchmark passes its span's identity into the program through the
// context (and the traceparent header on the backend hop).

// spanRec is one finished span as the traced run writes it out.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Trace  string `json:"trace_id"`
	ID     string `json:"span_id"`
	Parent string `json:"parent_id,omitempty"`
	// Source is "bench" for the benchmark's own spans and "program" for
	// spans copied from the program's ring.
	Source string `json:"source"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the benchmark's spans and the program spans copied from
// the obs ring. A nil *tracer records nothing, so untraced code paths
// pay one nil check.
type tracer struct {
	mu    sync.Mutex
	spans []spanRec
	ids   atomic.Uint64
}

// bspan is an open benchmark span.
type bspan struct {
	t      *tracer
	name   string
	start  time.Time
	sc     obs.SpanContext
	parent obs.SpanID
}

func (t *tracer) nextID() uint64 {
	// splitmix64 over a counter: unique, never zero in practice, cheap.
	z := t.ids.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31) | 1
}

// start opens a span: a child of ctx's span when it carries one, else
// the root of a new trace. The returned context carries the span's
// identity into the program, which parents its own spans on it.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *bspan) {
	if t == nil {
		return ctx, nil
	}
	sc := obs.SpanContext{Sampled: true}
	var parent obs.SpanID
	if p, ok := obs.SpanFromContext(ctx); ok && p.Valid() {
		sc.TraceID, parent = p.TraceID, p.SpanID
	} else {
		binary.LittleEndian.PutUint64(sc.TraceID[0:8], t.nextID())
		binary.LittleEndian.PutUint64(sc.TraceID[8:16], t.nextID())
	}
	binary.LittleEndian.PutUint64(sc.SpanID[:], t.nextID())
	s := &bspan{t: t, name: name, start: time.Now(), sc: sc, parent: parent}
	return obs.ContextWithSpan(ctx, sc), s
}

// child opens a span only when ctx already carries a sampled trace, as
// obs.ChildSpan does: code reached by both traced and untraced requests
// records spans for the traced ones only.
func (t *tracer) child(ctx context.Context, name string) (context.Context, *bspan) {
	if p, ok := obs.SpanFromContext(ctx); !ok || !p.Sampled || !p.Valid() {
		return ctx, nil
	}
	return t.start(ctx, name)
}

// end records the span.
func (s *bspan) end() {
	if s == nil {
		return
	}
	s.t.add(s.name, s.start, time.Now(), s.sc, s.parent)
}

// record adds a finished root span for work timed by its caller.
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	_, s := t.start(context.Background(), name)
	t.add(name, start, start.Add(d), s.sc, s.parent)
}

func (t *tracer) add(name string, start, end time.Time, sc obs.SpanContext, parent obs.SpanID) {
	rec := spanRec{
		Name:   name,
		Start:  start.UnixNano(),
		End:    end.UnixNano(),
		Trace:  sc.TraceID.String(),
		ID:     sc.SpanID.String(),
		Source: "bench",
	}
	if !parent.IsZero() {
		rec.Parent = parent.String()
	}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeJSON dumps every span, ordered by start time.
func (t *tracer) writeJSON(path string) error {
	spans := t.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// ringKey identifies one record of the obs ring across polls.
type ringKey struct {
	trace, id, name string
	start           time.Time
	dur             time.Duration
}

// ringCollector copies the program's spans out of obs's ring while a
// traced phase runs. The ring holds the most recent 1024 spans; a span
// recorded and overwritten between two polls is lost, and counted.
type ringCollector struct {
	t        *tracer
	base     uint64
	seen     map[ringKey]struct{}
	got      int
	stop     chan struct{}
	done     chan struct{}
	interval time.Duration
}

// collectRing starts polling the ring every interval into t.
func collectRing(t *tracer, interval time.Duration) *ringCollector {
	c := &ringCollector{
		t:        t,
		seen:     map[ringKey]struct{}{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		interval: interval,
	}
	// Records already in the ring predate the phase.
	for _, r := range obs.Tracing().Recent(0) {
		c.seen[keyOf(r)] = struct{}{}
	}
	c.base = obs.Tracing().Total()
	go c.loop()
	return c
}

func keyOf(r obs.SpanRecord) ringKey {
	return ringKey{trace: r.Trace, id: r.ID, name: r.Name, start: r.Start, dur: r.Duration}
}

func (c *ringCollector) loop() {
	defer close(c.done)
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.poll()
		}
	}
}

// poll copies every record not seen in the previous poll.
func (c *ringCollector) poll() {
	recent := obs.Tracing().Recent(0)
	now := make(map[ringKey]struct{}, len(recent))
	var fresh []spanRec
	for _, r := range recent {
		k := keyOf(r)
		now[k] = struct{}{}
		if _, ok := c.seen[k]; ok {
			continue
		}
		fresh = append(fresh, spanRec{
			Name:   r.Name,
			Start:  r.Start.UnixNano(),
			End:    r.Start.Add(r.Duration).UnixNano(),
			Trace:  r.Trace,
			ID:     r.ID,
			Parent: r.Parent,
			Source: "program",
		})
	}
	c.seen = now
	c.got += len(fresh)
	c.t.mu.Lock()
	c.t.spans = append(c.t.spans, fresh...)
	c.t.mu.Unlock()
}

// finish stops polling, takes a last poll, and returns how many program
// spans were recorded during the phase and how many of those were lost.
func (c *ringCollector) finish() (recorded, lost int) {
	close(c.stop)
	<-c.done
	c.poll()
	recorded = int(obs.Tracing().Total() - c.base)
	return recorded, max(recorded-c.got, 0)
}

// covered returns how much of [lo, hi) the intervals of spans cover.
func covered(lo, hi int64, spans []spanRec) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return time.Duration(total)
}

// selfTime is a span's duration minus the part of it that the given
// child spans cover.
func selfTime(s spanRec, children []spanRec) time.Duration {
	return s.dur() - covered(s.Start, s.End, children)
}

// spanIndex groups spans for self-time queries.
type spanIndex struct {
	byID    map[string]spanRec
	byTrace map[string][]spanRec
}

func indexSpans(spans []spanRec) spanIndex {
	ix := spanIndex{byID: map[string]spanRec{}, byTrace: map[string][]spanRec{}}
	for _, s := range spans {
		if s.ID != "" {
			ix.byID[s.ID] = s
		}
		if s.Trace != "" {
			ix.byTrace[s.Trace] = append(ix.byTrace[s.Trace], s)
		}
	}
	return ix
}

// descends reports whether s has anc among its ancestors.
func (ix spanIndex) descends(s spanRec, anc string) bool {
	for hops := 0; s.Parent != "" && hops < 64; hops++ {
		if s.Parent == anc {
			return true
		}
		p, ok := ix.byID[s.Parent]
		if !ok {
			return false
		}
		s = p
	}
	return false
}

// below returns the spans named name that descend from s.
func (ix spanIndex) below(s spanRec, name string) []spanRec {
	var out []spanRec
	for _, c := range ix.byTrace[s.Trace] {
		if c.Name == name && ix.descends(c, s.ID) {
			out = append(out, c)
		}
	}
	return out
}

// durations returns the durations of every span named name, counted in
// unit.
func durations(spans []spanRec, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}
