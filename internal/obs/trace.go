package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SpanRecord is one finished span kept in a tracer's ring buffer.
// Spans are started with StartSpan or ChildSpan, so every record
// carries its trace identity.
type SpanRecord struct {
	// Name identifies the operation ("its.exchange", "scenario.4x2").
	Name string `json:"name"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// Duration is how long the span ran.
	Duration time.Duration `json:"duration_ns"`
	// Err holds the error text for spans ended with EndErr, "" on
	// success.
	Err string `json:"err,omitempty"`
	// Trace, ID and Parent link spans into one request tree: all spans
	// of a request share Trace, and Parent names the enclosing span's ID
	// ("" for the root).
	Trace  string `json:"trace_id,omitempty"`
	ID     string `json:"span_id,omitempty"`
	Parent string `json:"parent_id,omitempty"`
	// Attrs are the span's annotations, in SetAttr order.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Tracer records spans into a fixed-size ring buffer: the most recent
// capacity spans are retained, older ones are overwritten. Recording is
// a short critical section on a mutex — spans mark exchange- and
// scenario-granularity operations, not per-subcarrier work.
type Tracer struct {
	mu    sync.Mutex
	ring  []SpanRecord
	next  int
	total uint64
}

// NewTracer returns a tracer retaining the most recent capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{ring: make([]SpanRecord, 0, capacity)}
}

// record appends one finished span to the ring, overwriting the oldest
// retained span once the ring is full.
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	t.mu.Unlock()
}

// Total returns how many spans have ever been recorded (including ones
// already evicted from the ring).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// TraceSpans returns every retained span belonging to the given trace
// ID (32 hex digits), oldest first — one stitched request tree, in
// roughly causal order.
func (t *Tracer) TraceSpans(traceID string) []SpanRecord {
	if t == nil || traceID == "" {
		return nil
	}
	recent := t.Recent(0)
	var out []SpanRecord
	for i := len(recent) - 1; i >= 0; i-- { // Recent is newest-first
		if recent[i].Trace == traceID {
			out = append(out, recent[i])
		}
	}
	return out
}

// WriteJSON dumps every retained span as an indented JSON array,
// oldest first — the -trace-out format. Spans carry
// trace_id/span_id/parent_id so two processes' dumps can be joined on
// trace_id.
func (t *Tracer) WriteJSON(w io.Writer) error {
	recent := t.Recent(0)
	// Reverse newest-first into causal order.
	for i, j := 0, len(recent)-1; i < j; i, j = i+1, j-1 {
		recent[i], recent[j] = recent[j], recent[i]
	}
	if recent == nil {
		recent = []SpanRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recent)
}

// Recent returns up to n retained spans, newest first. n <= 0 returns
// everything retained.
func (t *Tracer) Recent(n int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	have := len(t.ring)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]SpanRecord, 0, n)
	for i := 0; i < n; i++ {
		// next-1 is the newest slot; walk backwards through the ring.
		idx := (t.next - 1 - i + have) % have
		out = append(out, t.ring[idx])
	}
	return out
}
