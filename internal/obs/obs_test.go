package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("test.c") != c {
		t.Fatal("counter not idempotent")
	}
	g := r.Gauge("test.g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c, g := r.Counter("x"), r.Gauge("x")
	h, tm := r.Histogram("x", nil), r.Timer("x")
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveInt(1)
	tm.Observe(time.Second)
	tm.Begin().End()
	if c.Value() != 0 || g.Value() != 0 || h.Value().Count != 0 || tm.Value().Count != 0 {
		t.Fatal("nil handles must read zero")
	}
	if len(r.Snapshot().Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var tr *Tracer
	_, sp := tr.StartSpan(context.Background(), "x")
	sp.End()
	tr.ChildSpan(context.Background(), "x").End()
	if tr.Total() != 0 || tr.Recent(0) != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestDisabledGate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gate.c")
	h := r.Histogram("gate.h", []float64{1, 2})
	restore := Disabled()
	c.Inc()
	h.Observe(1)
	if !Enabled() {
		restore()
	} else {
		t.Fatal("Disabled did not switch the gate off")
	}
	if c.Value() != 0 || h.Value().Count != 0 {
		t.Fatal("updates leaked through a disabled gate")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("restore did not re-enable instrumentation")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.h", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	v := h.Value()
	if v.Count != 6 {
		t.Fatalf("count = %d, want 6", v.Count)
	}
	want := []uint64{2, 1, 1, 1, 1} // ≤1, ≤2, ≤4, ≤8, overflow
	for i, c := range v.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if math.Abs(v.Sum-113.0) > 1e-9 {
		t.Fatalf("sum = %v, want 113", v.Sum)
	}
	if m := v.Mean(); math.Abs(m-113.0/6) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	if q := v.Quantile(0.5); q < 0 || q > 4 {
		t.Fatalf("median = %v out of plausible range", q)
	}
	if q := v.Quantile(1); q != 8 {
		t.Fatalf("p100 = %v, want last bound 8", q)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("test.t")
	tm.Observe(3 * time.Millisecond)
	s := tm.Begin()
	s.End()
	v := tm.Value()
	if v.Count != 2 {
		t.Fatalf("timer count = %d, want 2", v.Count)
	}
	if v.Sum < 0.003 || v.Sum > 1 {
		t.Fatalf("timer sum = %v s, implausible", v.Sum)
	}
}

func TestRegistryTypeCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-type name reuse")
		}
	}()
	r := NewRegistry()
	r.Counter("dup")
	r.Gauge("dup")
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, exp[i], want)
		}
	}
	lin := LinearBuckets(0, 3, 3)
	for i, want := range []float64{0, 3, 6} {
		if lin[i] != want {
			t.Fatalf("LinearBuckets[%d] = %v, want %v", i, lin[i], want)
		}
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		_, sp := tr.StartSpan(ctx, "op")
		sp.End()
	}
	_, sp := tr.StartSpan(ctx, "evt")
	sp.End()
	if got := tr.Total(); got != 7 {
		t.Fatalf("total = %d, want 7", got)
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("retained = %d, want ring capacity 4", len(recent))
	}
	if recent[0].Name != "evt" {
		t.Fatalf("newest span = %q, want evt", recent[0].Name)
	}
	if two := tr.Recent(2); len(two) != 2 {
		t.Fatalf("Recent(2) = %d spans", len(two))
	}
}

func TestTracerErrSpans(t *testing.T) {
	tr := NewTracer(4)
	ctx := context.Background()
	_, ok := tr.StartSpan(ctx, "ok")
	ok.EndErr(nil)
	_, bad := tr.StartSpan(ctx, "bad")
	bad.EndErr(io.ErrUnexpectedEOF)
	recent := tr.Recent(0)
	if recent[0].Err != io.ErrUnexpectedEOF.Error() || recent[1].Err != "" {
		t.Fatalf("error spans mis-recorded: %+v", recent)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	SetLogOutput(&buf)
	defer SetLogOutput(nil)
	defer SetVerbose(false)

	Logger().Debug("hidden")
	Logger().Info("shown", "scenario", "4x2", "seed", 1)
	SetVerbose(true)
	Logger().Debug("now visible")

	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatal("debug logged at info level")
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "scenario=4x2") {
		t.Fatalf("info line missing: %q", out)
	}
	if !strings.Contains(out, "now visible") {
		t.Fatal("verbose mode did not enable debug")
	}
}

func TestSetLoggerAndLevel(t *testing.T) {
	var buf bytes.Buffer
	custom := slog.New(slog.NewJSONHandler(&buf, nil))
	SetLogger(custom)
	Logger().Info("json line")
	SetLogger(nil)
	if !strings.Contains(buf.String(), `"msg":"json line"`) {
		t.Fatalf("custom logger not used: %q", buf.String())
	}
	SetLogLevel(slog.LevelWarn)
	defer SetLogLevel(slog.LevelInfo)
	if logLevel.Level() != slog.LevelWarn {
		t.Fatal("SetLogLevel did not stick")
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	// Touch a default-registry metric so /debug/vars has copa content.
	C("copa.test.debugmux").Inc()
	srv := httptest.NewServer(DebugMux())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/vars")
	if code != 200 || !strings.Contains(body, "copa.test.debugmux") {
		t.Fatalf("expvar missing metric (code %d)", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("expvar output is not JSON: %v", err)
	}

	code, body = get("/debug/metrics")
	if code != 200 {
		t.Fatalf("/debug/metrics code %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/metrics not a snapshot: %v", err)
	}
	if _, ok := snap.Counters["copa.test.debugmux"]; !ok {
		t.Fatal("snapshot endpoint missing counter")
	}

	if code, _ = get("/debug/spans"); code != 200 {
		t.Fatalf("/debug/spans code %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline code %d", code)
	}
	if code, _ = get("/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Fatalf("pprof goroutine code %d", code)
	}
}

func TestServeDebug(t *testing.T) {
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("debug server code %d", resp.StatusCode)
	}
}
