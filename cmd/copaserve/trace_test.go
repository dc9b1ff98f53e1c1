package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"copa/internal/obs"
	"copa/internal/serve"
)

// TestAllocateTraceCompleteness is the tracing acceptance test: one
// cache-miss /v1/allocate yields one trace whose stage spans — cache,
// admission, queue, evaluate — are all children of the request
// span and sum (within scheduling tolerance) to its duration.
func TestAllocateTraceCompleteness(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(newMux(srv))
	defer ts.Close()

	// A cold 4x2 world: the evaluation is slow enough (tens of ms) to
	// dominate scheduling noise in the stage breakdown.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate",
		strings.NewReader(`{"scenario":"4x2","seed":990001}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// The response must name the trace so a client can fetch the tree.
	tp := resp.Header.Get(obs.TraceparentHeader)
	sc, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	traceID := sc.TraceID.String()

	spans := obs.Tracing().TraceSpans(traceID)
	byName := map[string]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	root, ok := byName["http.allocate"]
	if !ok {
		t.Fatalf("trace %s has no http.allocate root; spans: %v", traceID, names(spans))
	}
	if root.Parent != "" {
		t.Fatalf("http.allocate has parent %q, want root", root.Parent)
	}
	alloc, ok := byName["serve.allocate"]
	if !ok {
		t.Fatalf("trace missing serve.allocate; spans: %v", names(spans))
	}
	if alloc.Parent != root.ID {
		t.Fatalf("serve.allocate parented to %q, want %q", alloc.Parent, root.ID)
	}

	stages := []string{"serve.cache", "serve.admission", "serve.queue", "serve.evaluate"}
	var sum time.Duration
	for _, name := range stages {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("trace missing stage %s; spans: %v", name, names(spans))
		}
		if s.Parent != alloc.ID {
			t.Errorf("%s parented to %q, want serve.allocate %q", name, s.Parent, alloc.ID)
		}
		sum += s.Duration
	}
	// The stages are disjoint sub-intervals of the request span: their
	// sum cannot meaningfully exceed it, and with evaluate dominating it
	// must account for most of it.
	if sum > alloc.Duration*3/2 {
		t.Errorf("stage sum %v exceeds request span %v", sum, alloc.Duration)
	}
	if sum < alloc.Duration/2 {
		t.Errorf("stage sum %v covers under half of request span %v — a stage is missing time", sum, alloc.Duration)
	}
}

// TestCrossProcessPropagation plays the client role of a distributed
// trace: a local root span is injected as a traceparent header, crosses
// the HTTP boundary, and the server's spans join the client's trace —
// stitched by TraceID, parented across the wire.
func TestCrossProcessPropagation(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(newMux(srv))
	defer ts.Close()

	ctx, clientSpan := obs.StartSpan(context.Background(), "client.request")
	if clientSpan == nil {
		t.Fatal("client root span not started")
	}
	clientID := clientSpan.Context()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate",
		strings.NewReader(`{"scenario":"1x1","seed":990002}`))
	if err != nil {
		t.Fatal(err)
	}
	obs.InjectHTTP(ctx, req.Header)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	clientSpan.End()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	// The server must CONTINUE the client's trace, not root its own.
	echo, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok || echo.TraceID != clientID.TraceID {
		t.Fatalf("response trace %v, want client trace %v", echo.TraceID, clientID.TraceID)
	}

	spans := obs.Tracing().TraceSpans(clientID.TraceID.String())
	byName := map[string]obs.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	server, ok := byName["http.allocate"]
	if !ok {
		t.Fatalf("server side recorded no http.allocate in the client's trace; spans: %v", names(spans))
	}
	if server.Parent != clientID.SpanID.String() {
		t.Fatalf("server span parented to %q, want the client span %q", server.Parent, clientID.SpanID)
	}
	client, ok := byName["client.request"]
	if !ok {
		t.Fatal("client span not recorded")
	}
	if client.Trace != server.Trace {
		t.Fatalf("client trace %s != server trace %s", client.Trace, server.Trace)
	}
	if _, ok := byName["serve.evaluate"]; !ok {
		t.Fatalf("server pipeline stages did not join the trace; spans: %v", names(spans))
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
