package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"net/http"
	"sync/atomic"
	"time"
)

// This file is the request-scoped half of the tracer: spans linked by
// TraceID/SpanID/parent, carried through context.Context, and
// propagated across process boundaries as a W3C traceparent-style HTTP
// header or a compact 25-byte binary field in ITS control frames. The
// Tracer ring in trace.go is the storage layer that /debug/spans and
// RecentSpans read.

// TraceID identifies one end-to-end request across every process it
// touches. The zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace. The zero value means
// "none" (a root span's parent).
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated identity of an in-flight span: enough
// to parent a child span in another goroutine or another process. It is
// a small comparable value type.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled records the root's sampling decision; descendants and
	// remote continuations inherit it instead of re-drawing.
	Sampled bool
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// idState is the span/trace ID generator: a splitmix64 sequence seeded
// from crypto/rand once at init, so IDs are unique across processes
// without per-ID syscalls or locks.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// Fall back to the wall clock; uniqueness within a process still
		// holds via the counter.
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	idState.Store(binary.LittleEndian.Uint64(seed[:]))
}

// nextID advances the splitmix64 sequence (Steele et al.; the same
// generator internal/rng builds on).
func nextID() uint64 {
	z := idState.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newTraceID() TraceID {
	var t TraceID
	binary.LittleEndian.PutUint64(t[0:8], nextID())
	binary.LittleEndian.PutUint64(t[8:16], nextID())
	return t
}

func newSpanID() SpanID {
	var s SpanID
	binary.LittleEndian.PutUint64(s[:], nextID())
	return s
}

// sampleBits holds the root-span sampling rate as float64 bits
// (default 1: every new trace is recorded).
var sampleBits atomic.Uint64

func init() { sampleBits.Store(math.Float64bits(1)) }

// SetTraceSampling sets the probability in [0, 1] that a NEW trace
// (a root span with no inherited context) is recorded. Child spans and
// remote continuations always follow their parent's decision, so a
// trace is either captured whole or not at all.
func SetTraceSampling(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	sampleBits.Store(math.Float64bits(rate))
}

// TraceSampling returns the current root sampling rate.
func TraceSampling() float64 { return math.Float64frombits(sampleBits.Load()) }

// sampleTrace draws one root sampling decision from the ID stream.
func sampleTrace() bool {
	rate := math.Float64frombits(sampleBits.Load())
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	// 53 uniform bits → [0,1), the usual float construction.
	return float64(nextID()>>11)/(1<<53) < rate
}

// ctxKey keys the SpanContext in a context.Context.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sc; StartSpan/ChildSpan use it
// as the parent. StartSpan installs its own context automatically; a
// ChildSpan that parents further spans passes
// ContextWithSpan(ctx, sp.Context()) down, behind an sp != nil check so
// the untraced path stays allocation-free.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// SpanFromContext returns the span context ctx carries, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok
}

// ActiveSpan is one in-flight hierarchical span started with StartSpan
// or ChildSpan. All methods are nil-safe: a nil *ActiveSpan (returned
// when instrumentation is off or the trace is unsampled) is a free
// no-op, so call sites never branch.
type ActiveSpan struct {
	t       *Tracer
	name    string
	start   time.Time
	sc      SpanContext
	parent  SpanID
	attrs   []Attr
	elapsed func() time.Duration // test hook; nil = time.Since(start)
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Context returns the span's propagable identity (zero when nil).
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr annotates the span. Attributes ride in the span record;
// they are for exchange/request-granularity context (cause, retries,
// cache disposition), not per-subcarrier data.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span successfully.
func (s *ActiveSpan) End() { s.finish("") }

// EndErr finishes the span, recording err's text if non-nil.
func (s *ActiveSpan) EndErr(err error) {
	if err != nil {
		s.finish(err.Error())
		return
	}
	s.finish("")
}

func (s *ActiveSpan) finish(errText string) {
	if s == nil || s.t == nil {
		return
	}
	d := time.Since(s.start)
	if s.elapsed != nil {
		d = s.elapsed()
	}
	s.t.record(SpanRecord{
		Name:     s.name,
		Start:    s.start,
		Duration: d,
		Err:      errText,
		Trace:    s.sc.TraceID.String(),
		ID:       s.sc.SpanID.String(),
		Parent:   parentString(s.parent),
		Attrs:    s.attrs,
	})
	s.t = nil // double-End is a no-op
}

func parentString(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

// StartSpan starts a hierarchical span on the default tracer: a child
// of ctx's span if it carries one, otherwise the root of a fresh trace
// (subject to SetTraceSampling). The returned context carries the new
// span's identity for children and propagation. When instrumentation
// is off — or the trace is unsampled — the span is nil and ctx is
// returned unchanged, with zero allocations.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	return defTracer.StartSpan(ctx, name)
}

// ChildSpan is StartSpan that refuses to start a new trace: it returns
// a live span only when ctx already carries a sampled trace. Pipeline
// stages use it so library calls with an untraced context (the
// zero-allocation cache-hit contract) stay span-free, while the same
// code under a traced request records every stage.
func ChildSpan(ctx context.Context, name string) *ActiveSpan {
	return defTracer.ChildSpan(ctx, name)
}

// StartSpan starts a hierarchical span on t; see the package-level
// StartSpan.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil || !gate.Load() {
		return ctx, nil
	}
	sc := SpanContext{Sampled: true}
	var parent SpanID
	if p, ok := SpanFromContext(ctx); ok {
		if !p.Sampled {
			return ctx, nil
		}
		sc.TraceID, parent = p.TraceID, p.SpanID
	}
	if sc.TraceID.IsZero() {
		if !sampleTrace() {
			// Remember the negative decision so descendants skip fast.
			return ContextWithSpan(ctx, SpanContext{}), nil
		}
		sc.TraceID = newTraceID()
	}
	sc.SpanID = newSpanID()
	s := &ActiveSpan{t: t, name: name, start: time.Now(), sc: sc, parent: parent}
	return ContextWithSpan(ctx, sc), s
}

// ChildSpan starts a span only under an existing sampled trace; see the
// package-level ChildSpan.
func (t *Tracer) ChildSpan(ctx context.Context, name string) *ActiveSpan {
	if t == nil || !gate.Load() {
		return nil
	}
	p, ok := SpanFromContext(ctx)
	if !ok || !p.Sampled || p.TraceID.IsZero() {
		return nil
	}
	return &ActiveSpan{
		t:      t,
		name:   name,
		start:  time.Now(),
		sc:     SpanContext{TraceID: p.TraceID, SpanID: newSpanID(), Sampled: true},
		parent: p.SpanID,
	}
}

// Wire formats. Two encodings of the same 25 bytes of identity:
//
//	HTTP:   traceparent: 00-<32 hex trace>-<16 hex span>-<2 hex flags>
//	binary: version(1)=0, trace(16), span(8) — flags implicit (carried
//	        trace contexts are always sampled; unsampled ones are
//	        simply not carried)

// TraceparentHeader is the canonical header name (lowercase, as the
// W3C spec writes it; net/http canonicalizes on Set/Get either way).
const TraceparentHeader = "traceparent"

// Traceparent renders the context as a traceparent header value, or ""
// when the context is invalid or unsampled.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() || !sc.Sampled {
		return ""
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a traceparent header value. Unknown versions
// and malformed values report ok=false; the flags octet's sampled bit
// is honored.
func ParseTraceparent(v string) (SpanContext, bool) {
	// 2 + 1 + 32 + 1 + 16 + 1 + 2
	if len(v) != 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	if v[0] != '0' || v[1] != '0' { // only version 00
		return SpanContext{}, false
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(v[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(v[36:52])); err != nil {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(v[53:55])); err != nil {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&1 != 0
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// InjectHTTP stamps ctx's span identity onto h as a traceparent
// header. No-op when ctx carries no sampled span.
func InjectHTTP(ctx context.Context, h http.Header) {
	if sc, ok := SpanFromContext(ctx); ok {
		if tp := sc.Traceparent(); tp != "" {
			h.Set(TraceparentHeader, tp)
		}
	}
}

// ExtractHTTP returns ctx extended with the traceparent carried by h,
// if any: spans started under the returned context continue the
// remote caller's trace.
func ExtractHTTP(ctx context.Context, h http.Header) context.Context {
	if sc, ok := ParseTraceparent(h.Get(TraceparentHeader)); ok && sc.Sampled {
		return ContextWithSpan(ctx, sc)
	}
	return ctx
}

// traceCtxBinaryLen is the wire size of a binary trace context.
const traceCtxBinaryLen = 1 + 16 + 8

// TraceContextBinary encodes ctx's span identity as the compact binary
// field ITS frames carry (nil when ctx has no sampled span — the frame
// then omits the field and stays byte-identical to the pre-tracing
// format).
func TraceContextBinary(ctx context.Context) []byte {
	sc, ok := SpanFromContext(ctx)
	if !ok || !sc.Valid() || !sc.Sampled {
		return nil
	}
	b := make([]byte, traceCtxBinaryLen)
	b[0] = 0 // version
	copy(b[1:17], sc.TraceID[:])
	copy(b[17:25], sc.SpanID[:])
	return b
}

// ContextWithRemoteBinary returns ctx extended with a binary trace
// context previously produced by TraceContextBinary; malformed or
// empty fields leave ctx unchanged.
func ContextWithRemoteBinary(ctx context.Context, b []byte) context.Context {
	if len(b) != traceCtxBinaryLen || b[0] != 0 {
		return ctx
	}
	var sc SpanContext
	copy(sc.TraceID[:], b[1:17])
	copy(sc.SpanID[:], b[17:25])
	sc.Sampled = true
	if !sc.Valid() {
		return ctx
	}
	return ContextWithSpan(ctx, sc)
}
