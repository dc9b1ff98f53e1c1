package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"copa/internal/serve"
)

func testServer(t *testing.T) *serve.Server {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 1, CacheEntries: 32, Coherence: 10 * time.Millisecond})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestContentNegotiation drives one request through every codec
// pairing and checks the decoded payloads agree: the codec is a
// transport detail, never a semantic one.
func TestContentNegotiation(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testServer(t)))
	defer ts.Close()

	ar := AllocateRequest{Scenario: "4x2", Seed: 3}
	jsonBody, err := json.Marshal(ar)
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := EncodeRequestBinary(ar)
	if err != nil {
		t.Fatal(err)
	}

	post := func(body []byte, contentType, accept string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	// JSON in, JSON out (the default pairing).
	resp, body := post(jsonBody, ContentTypeJSON, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json request: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
		t.Fatalf("json request: content type %q", ct)
	}
	var viaJSON AllocateResponse
	if err := json.Unmarshal(body, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if viaJSON.Selected.Strategy == "" {
		t.Fatal("json response missing selected strategy")
	}

	// Binary in, binary out.
	resp, body = post(binBody, ContentTypeBinary, ContentTypeBinary)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary request: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("binary request: content type %q", ct)
	}
	viaBin, err := DecodeResponseBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	// Both decoders saw the same cached result.
	if viaBin.Selected != viaJSON.Selected || viaBin.Epoch != viaJSON.Epoch {
		t.Fatalf("codecs disagree: binary %+v json %+v", viaBin.Selected, viaJSON.Selected)
	}
	if !viaBin.Cached {
		t.Error("second request for the same key was not served from cache")
	}

	// Binary in, JSON out: Accept wins independently of Content-Type.
	resp, body = post(binBody, ContentTypeBinary, ContentTypeJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed request: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &viaJSON); err != nil {
		t.Fatalf("mixed request: body is not JSON: %v", err)
	}

	// Malformed binary body is a 400, and errors are always JSON so
	// every client can parse them.
	resp, body = post([]byte{0xff, 0x01}, ContentTypeBinary, ContentTypeBinary)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage binary: status %d", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error body not JSON error: %v %q", err, body)
	}
}

func TestHealthzExposesCacheStats(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testServer(t)))
	defer ts.Close()

	for i := 0; i < 2; i++ { // second hit is a cache hit
		resp, err := http.Post(ts.URL+"/v1/allocate", ContentTypeJSON,
			bytes.NewReader([]byte(`{"scenario":"4x2","seed":1}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Cache.Misses < 1 || hz.Cache.Hits < 1 {
		t.Errorf("cache stats not populated: %+v", hz.Cache)
	}
	if hz.Cache.Entries < 1 || hz.Cache.Capacity < 1 {
		t.Errorf("cache occupancy not populated: %+v", hz.Cache)
	}
}

// FuzzParseRequestJSON: no JSON body panics the request parser, and a
// body that parses re-encodes to one that parses to the same
// serve.Request and the same shard key.
func FuzzParseRequestJSON(f *testing.F) {
	f.Add([]byte(`{"scenario":"4x2","seed":7,"mode":"fair"}`))
	f.Add([]byte(`{"scenario":"1x1","seed":-3,"impairments":"perfect","csi_age_ms":25,"multi_decoder":true}`))
	f.Add([]byte(`{"scenario":"3x2","seed":1,"mode":"max","session":true,"time_ms":1234.5}`))
	f.Add([]byte(`{"scenario":"4x2","time_ms":3}`))
	f.Add([]byte(`{}`))
	f.Add([]byte{})
	parse := func(body []byte) (AllocateRequest, serve.Request, error) {
		ar, err := DecodeRequestBody(ContentTypeJSON, body)
		if err != nil {
			return ar, serve.Request{}, err
		}
		req, err := ParseRequest(ar)
		return ar, req, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ar, req, err := parse(body)
		if err != nil {
			return
		}
		enc, err := json.Marshal(ar)
		if err != nil {
			t.Fatalf("parsed request %+v does not re-encode: %v", ar, err)
		}
		_, back, err := parse(enc)
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", enc, err)
		}
		if back != req {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, back)
		}
		if a, b := serve.ShardKey(req, 0), serve.ShardKey(back, 0); a != b {
			t.Fatalf("round trip changed the shard key: %q -> %q", a, b)
		}
	})
}

// TestMalformedRequestsGet4xx sends the handler bodies and methods no
// well-behaved client would: each must be answered with a 4xx, never a
// 5xx, and within a fixed deadline.
func TestMalformedRequestsGet4xx(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testServer(t)))
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	valid, err := EncodeRequestBinary(AllocateRequest{Scenario: "4x2", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	badVersion := append([]byte{binaryVersion + 1}, valid[1:]...)
	oversized := append([]byte(`{"scenario":"4x2","seed":1,"mode":"`), bytes.Repeat([]byte("x"), maxRequestBody)...)
	oversized = append(oversized, `"}`...)

	for _, c := range []struct {
		name, method, path, contentType string
		body                            []byte
	}{
		{"truncated JSON", http.MethodPost, "/v1/allocate", ContentTypeJSON, []byte(`{"scenario":"4x2","se`)},
		{"ill-typed JSON", http.MethodPost, "/v1/allocate", ContentTypeJSON, []byte(`{"scenario":4,"seed":"three"}`)},
		{"not JSON", http.MethodPost, "/v1/allocate", ContentTypeJSON, []byte("scenario=4x2")},
		{"empty body", http.MethodPost, "/v1/allocate", ContentTypeJSON, nil},
		{"unknown scenario", http.MethodPost, "/v1/allocate", ContentTypeJSON, []byte(`{"scenario":"9x9","seed":1}`)},
		{"unknown mode", http.MethodPost, "/v1/allocate", ContentTypeJSON, []byte(`{"scenario":"4x2","seed":1,"mode":"greedy"}`)},
		{"body over limit", http.MethodPost, "/v1/allocate", ContentTypeJSON, oversized},
		{"bad binary version", http.MethodPost, "/v1/allocate", ContentTypeBinary, badVersion},
		{"truncated binary", http.MethodPost, "/v1/allocate", ContentTypeBinary, valid[:len(valid)/2]},
		{"JSON under binary type", http.MethodPost, "/v1/allocate", ContentTypeBinary, []byte(`{"scenario":"4x2","seed":1}`)},
		{"GET allocate", http.MethodGet, "/v1/allocate", "", nil},
		{"POST healthz", http.MethodPost, "/v1/healthz", ContentTypeJSON, []byte(`{}`)},
	} {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if c.contentType != "" {
				req.Header.Set("Content-Type", c.contentType)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("no answer within %v: %v", client.Timeout, err)
			}
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("status %d, want 4xx", resp.StatusCode)
			}
		})
	}
}
