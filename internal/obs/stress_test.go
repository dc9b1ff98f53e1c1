package obs

import (
	"context"
	"sync"
	"testing"
)

// TestRegistryStress hammers one registry from many goroutines — run
// under -race this is the registry's concurrency safety net.
func TestRegistryStress(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		perG       = 2000
	)
	c := r.Counter("stress.counter")
	g := r.Gauge("stress.gauge")
	h := r.Histogram("stress.hist", LinearBuckets(0, 8, 8))
	tr := NewTracer(64)

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.ObserveInt(i % 64)
				// Get-or-create races on the maps too.
				r.Counter("stress.counter").Add(0)
				if i%100 == 0 {
					_, sp := tr.StartSpan(context.Background(), "stress")
					sp.End()
				}
			}
		}(w)
	}
	// Concurrent readers while writers run.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Snapshot()
				_ = tr.Recent(8)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	const total = goroutines * perG
	if got := c.Value(); got != total {
		t.Fatalf("counter = %d, want %d (lost updates)", got, total)
	}
	if got := g.Value(); got != total {
		t.Fatalf("gauge = %v, want %d (lost CAS adds)", got, total)
	}
	v := h.Value()
	if v.Count != total {
		t.Fatalf("histogram count = %d, want %d", v.Count, total)
	}
	var bucketSum uint64
	for _, n := range v.Counts {
		bucketSum += n
	}
	if bucketSum != v.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, v.Count)
	}
}

// TestSnapshotConsistency takes snapshots while writers are mid-flight
// and checks the invariants every snapshot must satisfy: a histogram's
// Count equals the sum of its bucket Counts (no torn reads), and
// counters/histograms are monotone across successive snapshots.
func TestSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("consist.counter")
	h := r.Histogram("consist.hist", LinearBuckets(0, 1, 16))

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				c.Inc()
				h.ObserveInt((w + i) % 32)
			}
		}(w)
	}

	var prevCount, prevCounter uint64
	for i := 0; i < 300; i++ {
		s := r.Snapshot()
		hv := s.Histograms["consist.hist"]
		var bucketSum uint64
		for _, n := range hv.Counts {
			bucketSum += n
		}
		if bucketSum != hv.Count {
			t.Fatalf("snapshot %d torn: bucket sum %d != count %d", i, bucketSum, hv.Count)
		}
		if hv.Count < prevCount {
			t.Fatalf("snapshot %d: histogram count went backwards (%d < %d)", i, hv.Count, prevCount)
		}
		if s.Counters["consist.counter"] < prevCounter {
			t.Fatalf("snapshot %d: counter went backwards", i)
		}
		prevCount, prevCounter = hv.Count, s.Counters["consist.counter"]
	}
	close(done)
	wg.Wait()

	// After quiescence, sum-derived count must equal exact observations.
	final := h.Value()
	var bucketSum uint64
	for _, n := range final.Counts {
		bucketSum += n
	}
	if bucketSum != final.Count {
		t.Fatalf("final bucket sum %d != count %d", bucketSum, final.Count)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncDisabled(b *testing.B) {
	defer Disabled()()
	r := NewRegistry()
	c := r.Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.hist", LinearBuckets(0, 4, 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveInt(i & 63)
	}
}
