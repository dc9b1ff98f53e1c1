package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunFleetEndToEnd drives the full two-role CLI path: a pure
// coordinator (-workers 0, so every unit is evaluated remotely) plus
// one -join worker (same binary, second run() call), output
// byte-identical to the plain in-process run.
func TestRunFleetEndToEnd(t *testing.T) {
	dir := t.TempDir()

	localOut := filepath.Join(dir, "local.json")
	if code := run(campaignArgs("-out", localOut), os.Stdout); code != 0 {
		t.Fatalf("local run exit code %d", code)
	}
	want, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}

	fleetOut := filepath.Join(dir, "fleet.json")
	addrFile := filepath.Join(dir, "coordinator.url")
	var wg sync.WaitGroup
	wg.Add(1)
	coordCode := -1
	go func() {
		defer wg.Done()
		coordCode = run(campaignArgs(
			"-serve-coordinator", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-workers", "0",
			"-out", fleetOut,
		), os.Stdout)
	}()

	// The -addr-file handshake: poll until the coordinator announces
	// where it bound, exactly as a wrapper script would.
	var base string
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			base = strings.TrimSpace(string(data))
			break
		}
	}
	if base == "" {
		t.Fatal("coordinator never wrote -addr-file")
	}

	if code := run([]string{"-join", base, "-workers", "2", "-q"}, os.Stdout); code != 0 {
		t.Fatalf("worker exit code %d", code)
	}
	wg.Wait()
	if coordCode != 0 {
		t.Fatalf("coordinator exit code %d", coordCode)
	}

	got, err := os.ReadFile(fleetOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fleet CLI output differs from in-process CLI output")
	}
}

// TestServeHTTPDeliversFinalResponse reproduces the coordinator's lost
// final reply. The fleet.complete call that finishes the campaign
// unblocks Wait while its response is still unwritten; stopping the
// server the moment Wait returns must still deliver that response.
func TestServeHTTPDeliversFinalResponse(t *testing.T) {
	finished := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(finished)
		time.Sleep(50 * time.Millisecond)
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := serveHTTP(ln, h, 5*time.Second)

	type reply struct {
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String(), "application/json", nil)
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{string(body), err}
	}()
	<-finished
	stop()
	if r := <-got; r.err != nil || r.body != "done" {
		t.Fatalf("final response lost: body %q, err %v", r.body, r.err)
	}
}

func TestRunFleetFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-serve-coordinator", ":0", "-join", "http://x"},
		{"-join", "http://x", "-checkpoint", "c.jsonl"},
		{"-join", "http://x", "-workers", "0"},
		{"-addr-file", "a.url"},
		{"-serve-coordinator", ":0", "-lease-ttl", "0s"},
	}
	for _, args := range cases {
		if code := run(append(campaignArgs(), args...), os.Stdout); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}
