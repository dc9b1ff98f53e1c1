package obs

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

func TestSpanHierarchy(t *testing.T) {
	tr := NewTracer(64)
	ctx, root := tr.StartSpan(context.Background(), "root")
	if root == nil {
		t.Fatal("root span is nil with instrumentation on")
	}
	rootSC := root.Context()
	if !rootSC.Valid() || !rootSC.Sampled {
		t.Fatalf("root context %+v not valid+sampled", rootSC)
	}
	if got, ok := SpanFromContext(ctx); !ok || got != rootSC {
		t.Fatalf("ctx carries %+v, want %+v", got, rootSC)
	}

	cctx, child := tr.StartSpan(ctx, "child")
	if child.Context().TraceID != rootSC.TraceID {
		t.Fatal("child did not inherit the trace ID")
	}
	if child.Context().SpanID == rootSC.SpanID {
		t.Fatal("child reused the parent's span ID")
	}
	leaf := tr.ChildSpan(cctx, "leaf")
	if leaf == nil || leaf.Context().TraceID != rootSC.TraceID {
		t.Fatal("ChildSpan did not continue the trace")
	}
	leaf.SetAttr("cause", "none")
	leaf.End()
	child.EndErr(errors.New("boom"))
	root.End()
	root.End() // double-End must be a no-op
	if got := tr.Total(); got != 3 {
		t.Fatalf("recorded %d spans, want 3", got)
	}

	spans := tr.TraceSpans(rootSC.TraceID.String())
	if len(spans) != 3 {
		t.Fatalf("TraceSpans returned %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != "" {
		t.Fatalf("root parent = %q, want empty", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Fatal("child not parented to root")
	}
	if byName["leaf"].Parent != byName["child"].ID {
		t.Fatal("leaf not parented to child")
	}
	if byName["child"].Err != "boom" {
		t.Fatalf("child err = %q, want boom", byName["child"].Err)
	}
	if a := byName["leaf"].Attrs; len(a) != 1 || a[0] != (Attr{Key: "cause", Value: "none"}) {
		t.Fatalf("leaf attrs = %v", a)
	}
}

func TestChildSpanRequiresTrace(t *testing.T) {
	tr := NewTracer(8)
	if sp := tr.ChildSpan(context.Background(), "orphan"); sp != nil {
		t.Fatal("ChildSpan started a span without an enclosing trace")
	}
	// Nil spans must be free no-ops end to end.
	var sp *ActiveSpan
	sp.SetAttr("k", "v")
	sp.EndErr(errors.New("x"))
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.Total() != 0 {
		t.Fatal("no-op spans were recorded")
	}
}

func TestTraceSampling(t *testing.T) {
	defer SetTraceSampling(1)
	tr := NewTracer(8)

	SetTraceSampling(0)
	ctx, sp := tr.StartSpan(context.Background(), "unsampled")
	if sp != nil {
		t.Fatal("got a span at sampling rate 0")
	}
	// The negative decision must stick: no descendant may start a trace.
	if _, sp2 := tr.StartSpan(ctx, "descendant"); sp2 != nil {
		t.Fatal("descendant re-drew the sampling decision")
	}
	if tr.ChildSpan(ctx, "child") != nil {
		t.Fatal("ChildSpan under an unsampled root")
	}

	SetTraceSampling(1)
	// An inherited sampled context bypasses the rate entirely.
	SetTraceSampling(0)
	remote := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	rctx := ContextWithSpan(context.Background(), remote)
	if _, sp := tr.StartSpan(rctx, "continued"); sp == nil {
		t.Fatal("sampled remote parent was dropped at local rate 0")
	} else {
		sp.End()
	}

	SetTraceSampling(0.5)
	if got := TraceSampling(); got != 0.5 {
		t.Fatalf("TraceSampling() = %v, want 0.5", got)
	}
	// Clamping.
	SetTraceSampling(7)
	if TraceSampling() != 1 {
		t.Fatal("rate not clamped to 1")
	}
	SetTraceSampling(-3)
	if TraceSampling() != 0 {
		t.Fatal("rate not clamped to 0")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	tp := sc.Traceparent()
	if len(tp) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", tp, len(tp))
	}
	got, ok := ParseTraceparent(tp)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}

	if (SpanContext{}).Traceparent() != "" {
		t.Fatal("invalid context rendered a traceparent")
	}
	if (SpanContext{TraceID: sc.TraceID, SpanID: sc.SpanID}).Traceparent() != "" {
		t.Fatal("unsampled context rendered a traceparent")
	}

	for _, bad := range []string{
		"",
		"00-short",
		"01-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01", // unknown version
		"00-" + sc.TraceID.String() + "x" + sc.SpanID.String() + "-01", // bad separator
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-" + sc.SpanID.String() + "-01",
		"00-00000000000000000000000000000000-" + sc.SpanID.String() + "-01", // zero trace
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent accepted %q", bad)
		}
	}

	// Flags octet 00 → parsed but unsampled.
	un := tp[:53] + "00"
	got, ok = ParseTraceparent(un)
	if !ok || got.Sampled {
		t.Fatalf("flags 00: got %+v ok=%v, want unsampled", got, ok)
	}
}

func TestHTTPPropagation(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	ctx := ContextWithSpan(context.Background(), sc)

	h := make(http.Header)
	InjectHTTP(ctx, h)
	if h.Get(TraceparentHeader) != sc.Traceparent() {
		t.Fatalf("injected %q, want %q", h.Get(TraceparentHeader), sc.Traceparent())
	}

	out := ExtractHTTP(context.Background(), h)
	if got, ok := SpanFromContext(out); !ok || got != sc {
		t.Fatalf("extracted %+v ok=%v, want %+v", got, ok, sc)
	}

	// No header → unchanged context; no injection without a span.
	if ExtractHTTP(context.Background(), make(http.Header)) != context.Background() {
		t.Fatal("ExtractHTTP modified a header-less context")
	}
	empty := make(http.Header)
	InjectHTTP(context.Background(), empty)
	if len(empty) != 0 {
		t.Fatal("InjectHTTP wrote a header with no span in context")
	}
}

func TestBinaryPropagation(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	ctx := ContextWithSpan(context.Background(), sc)

	b := TraceContextBinary(ctx)
	if len(b) != traceCtxBinaryLen {
		t.Fatalf("binary length %d, want %d", len(b), traceCtxBinaryLen)
	}
	out := ContextWithRemoteBinary(context.Background(), b)
	if got, ok := SpanFromContext(out); !ok || got != sc {
		t.Fatalf("binary round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}

	if TraceContextBinary(context.Background()) != nil {
		t.Fatal("span-less context produced a binary trace field")
	}
	for _, bad := range [][]byte{nil, {}, b[:10], append([]byte{9}, b[1:]...), make([]byte, traceCtxBinaryLen)} {
		if got := ContextWithRemoteBinary(context.Background(), bad); got != context.Background() {
			t.Fatalf("malformed field %v changed the context", bad)
		}
	}
}

func TestStartSpanDisabledGate(t *testing.T) {
	restore := Disabled()
	defer restore()
	tr := NewTracer(8)
	ctx, sp := tr.StartSpan(context.Background(), "off")
	if sp != nil || ctx != context.Background() {
		t.Fatal("disabled gate still produced a span or a new context")
	}
	if tr.ChildSpan(ctx, "off") != nil {
		t.Fatal("disabled gate still produced a child span")
	}
	if n := testing.AllocsPerRun(100, func() {
		c, s := tr.StartSpan(context.Background(), "off")
		_ = c
		s.End()
	}); n != 0 {
		t.Fatalf("disabled StartSpan allocates %v/op, want 0", n)
	}
}

// TestChildSpanUntracedAllocs pins the cost of instrumented library
// code called without a trace: with instrumentation on, ChildSpan on a
// trace-less or unsampled context and every method on the resulting nil
// span allocate nothing.
func TestChildSpanUntracedAllocs(t *testing.T) {
	for name, ctx := range map[string]context.Context{
		"background": context.Background(),
		"unsampled":  ContextWithSpan(context.Background(), SpanContext{}),
	} {
		if n := testing.AllocsPerRun(100, func() {
			sp := ChildSpan(ctx, "untraced")
			sp.SetAttr("k", "v")
			sp.EndErr(nil)
		}); n != 0 {
			t.Errorf("%s: untraced ChildSpan allocates %v/op, want 0", name, n)
		}
	}
}

// TestHierarchicalSpanStress races many goroutines starting/ending
// nested spans against readers; under -race this is the tracing layer's
// concurrency safety net (satellite: race-stress for hierarchical
// spans).
func TestHierarchicalSpanStress(t *testing.T) {
	tr := NewTracer(256)
	const goroutines, perG, depth = 8, 200, 4

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range tr.Recent(16) {
					_ = tr.TraceSpans(s.Trace)
				}
			}
		}()
	}
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, root := tr.StartSpan(context.Background(), "stress.root")
				spans := make([]*ActiveSpan, 0, depth)
				for d := 0; d < depth; d++ {
					var sp *ActiveSpan
					ctx, sp = tr.StartSpan(ctx, "stress.child")
					sp.SetAttr("d", "x")
					spans = append(spans, sp)
				}
				for d := len(spans) - 1; d >= 0; d-- {
					spans[d].End()
				}
				root.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	const want = goroutines * perG * (depth + 1)
	if got := tr.Total(); got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
	// Every retained trace must be internally consistent: each non-root
	// parent ID resolves to another span of the same trace.
	for _, rec := range tr.Recent(0) {
		if rec.Parent == "" {
			continue
		}
		found := false
		for _, other := range tr.TraceSpans(rec.Trace) {
			if other.ID == rec.Parent {
				found = true
				break
			}
		}
		// The parent may have been evicted from the ring; only flag
		// impossible links (parent == self).
		if found && rec.Parent == rec.ID {
			t.Fatalf("span %q is its own parent", rec.Name)
		}
	}
}

// FuzzParseTraceparent: no header value panics the parser, and a
// context that parses renders back through Traceparent to itself, or
// to "" when it is unsampled.
func FuzzParseTraceparent(f *testing.F) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	f.Add(tp)
	f.Add(tp[:53] + "00")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-03")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		out := sc.Traceparent()
		if !sc.Sampled {
			if out != "" {
				t.Fatalf("unsampled context %+v rendered %q", sc, out)
			}
			return
		}
		back, ok := ParseTraceparent(out)
		if !ok || back != sc {
			t.Fatalf("%q parsed to %+v, rendered %q, re-parsed to %+v (ok=%v)", v, sc, out, back, ok)
		}
	})
}

// FuzzContextWithRemoteBinary fuzzes the trace field an ITS INIT carries
// from a peer: no input panics; a rejected field leaves the parent
// context as it was; an accepted one yields a sampled span that encodes
// back to the same bytes and does not alias the frame; and the parser's
// allocations do not grow with the input.
func FuzzContextWithRemoteBinary(f *testing.F) {
	sc := SpanContext{TraceID: TraceID{1, 2, 3}, SpanID: SpanID{4, 5, 6}, Sampled: true}
	good := TraceContextBinary(ContextWithSpan(context.Background(), sc))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add(append([]byte{1}, good[1:]...))
	f.Add(make([]byte, traceCtxBinaryLen))
	f.Add([]byte{})
	parent := ContextWithSpan(context.Background(), SpanContext{TraceID: TraceID{9}, SpanID: SpanID{9}, Sampled: true})
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := append([]byte(nil), data...)
		var out context.Context
		const limit = 1 << 10
		if n := allocatedBytes(limit, func() { out = ContextWithRemoteBinary(parent, frame) }); n > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes", len(data), n)
		}
		if out == parent {
			return
		}
		got, ok := SpanFromContext(out)
		if !ok || !got.Valid() || !got.Sampled {
			t.Fatalf("accepted field %x gave span %+v (ok=%v)", data, got, ok)
		}
		for i := range frame {
			frame[i] ^= 0xff
		}
		if enc := TraceContextBinary(out); !bytes.Equal(enc, data) {
			t.Fatalf("accepted field %x encodes back to %x", data, enc)
		}
	})
}

// allocatedBytes returns the heap bytes fn allocates. TotalAlloc is
// process-wide and the fuzzing engine allocates on its own goroutines,
// so a reading above limit is retried and the least of three kept: a
// parser that really over-allocates does so on every run.
func allocatedBytes(limit uint64, fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3 && least > limit; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
