package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"copa/internal/rng"
)

// exactQuantile is the nearest-rank sample quantile the sketch
// approximates (rank q·(n−1), no interpolation).
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(q * float64(len(sorted)-1))
	return sorted[rank]
}

func TestSketchQuantileAccuracy(t *testing.T) {
	// The documented bound: any quantile is the midpoint of the bucket
	// holding the exact nearest-rank sample, so it is within half a
	// bucket's relative width (at most 1/(2·subBuckets) ≈ 0.39%) of it.
	src := rng.New(3)
	const n = 50000
	xs := make([]float64, n)
	sk := NewSketch()
	for i := range xs {
		xs[i] = math.Exp(src.Norm()*0.8) * 1e8
		sk.Add(xs[i])
	}
	sort.Float64s(xs)
	const bound = 1.0 / (2 * sketchSubBuckets)
	for _, q := range []float64{0, 0.01, 0.10, 0.50, 0.90, 0.99, 1} {
		got := sk.Quantile(q)
		want := exactQuantile(xs, q)
		if rel := math.Abs(got-want) / want; rel > bound {
			t.Errorf("q=%.2f: sketch %.6g vs exact %.6g (rel %.5f > %.5f)", q, got, want, rel, bound)
		}
	}
}

func TestSketchMergeAccuracy(t *testing.T) {
	// Aggregates merged from arbitrary partitions must equal the
	// single-stream sketch exactly (counts are integers), and their
	// quantiles must stay within the documented error of the exact
	// sample quantiles.
	src := rng.New(4)
	const n, parts = 20000, 7
	xs := make([]float64, n)
	whole := NewSketch()
	shards := make([]*Sketch, parts)
	for i := range shards {
		shards[i] = NewSketch()
	}
	for i := range xs {
		xs[i] = src.Uniform(-90, -20) // dBm-scale, exercises negatives
		whole.Add(xs[i])
		shards[i%parts].Add(xs[i])
	}
	merged := NewSketch()
	for _, s := range shards {
		merged.Merge(s)
	}
	a, _ := json.Marshal(whole)
	b, _ := json.Marshal(merged)
	if string(a) != string(b) {
		t.Fatal("merged sketch differs from single-stream sketch")
	}
	// Merge order must not matter either.
	backwards := NewSketch()
	for i := parts - 1; i >= 0; i-- {
		backwards.Merge(shards[i])
	}
	c, _ := json.Marshal(backwards)
	if string(a) != string(c) {
		t.Fatal("sketch merge is order-dependent")
	}

	sort.Float64s(xs)
	const bound = 1.0 / (2 * sketchSubBuckets)
	for _, q := range []float64{0.05, 0.25, 0.50, 0.75, 0.95} {
		got := merged.Quantile(q)
		want := exactQuantile(xs, q)
		if rel := math.Abs(got-want) / math.Abs(want); rel > bound {
			t.Errorf("q=%.2f: merged %.6g vs exact %.6g (rel %.5f > %.5f)", q, got, want, rel, bound)
		}
	}
}

func TestSketchEmptyQuantileIsNaN(t *testing.T) {
	sk := NewSketch()
	for _, q := range []float64{0, 0.5, 1} {
		if v := sk.Quantile(q); !math.IsNaN(v) {
			t.Errorf("empty sketch q=%g quantile is %g, not NaN", q, v)
		}
	}
	if pts := sk.CDF(); pts != nil {
		t.Errorf("empty sketch CDF is %v, not nil", pts)
	}
}

// TestQuickSketchQuantileMonotone: quantiles never decrease in q.
func TestQuickSketchQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		sk := NewSketch()
		x := float64(seed%97) + 1
		for i := 0; i < 20; i++ {
			x = math.Mod(x*1.7+3, 100)
			sk.Add(x)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1; q += 0.1 {
			v := sk.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSketchSignsAndZero(t *testing.T) {
	sk := NewSketch()
	for _, v := range []float64{-4, -2, 0, 0, 2, 4} {
		sk.Add(v)
	}
	if n := sk.Count(); n != 6 {
		t.Fatalf("count %d, want 6", n)
	}
	if q := sk.Quantile(0.5); math.Abs(q) > 0.01 {
		t.Errorf("median %g, want ≈0", q)
	}
	if q := sk.Quantile(0); q > -3.9 {
		t.Errorf("min-quantile %g, want ≈-4", q)
	}
	if q := sk.Quantile(1); q < 3.9 {
		t.Errorf("max-quantile %g, want ≈4", q)
	}
	cdf := sk.CDF()
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value <= cdf[i-1].Value || cdf[i].P < cdf[i-1].P {
			t.Fatalf("CDF not monotone at %d: %+v", i, cdf)
		}
	}
	if last := cdf[len(cdf)-1]; last.P != 1 {
		t.Errorf("CDF ends at %g, want 1", last.P)
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	src := rng.New(5)
	sk := NewSketch()
	for i := 0; i < 1000; i++ {
		sk.Add(src.Uniform(-1e9, 1e9))
	}
	sk.Add(0)
	data, err := json.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, _ := json.Marshal(&back)
	if string(data) != string(data2) {
		t.Fatal("JSON round-trip not stable")
	}
	if back.Count() != sk.Count() {
		t.Fatalf("count %d after round-trip, want %d", back.Count(), sk.Count())
	}
}

func TestSketchBucketRelativeWidth(t *testing.T) {
	// Every value must land in a bucket whose midpoint is within the
	// documented relative error, across magnitudes and signs.
	for _, v := range []float64{1e-12, 0.37, 1, 1.5, 2, 1e6, 8.25e9, -3.7e-5, -42} {
		mid := bucketMid(keyOf(v))
		if rel := math.Abs(mid-v) / math.Abs(v); rel > 1.0/(2*sketchSubBuckets) {
			t.Errorf("v=%g: midpoint %g off by %.5f relative", v, mid, rel)
		}
	}
}

func TestSketchJSONRejectsInvalidBuckets(t *testing.T) {
	// A key outside int32 would wrap when stored: 2^32 decodes as key 0
	// and its samples vanish on the next marshal. A key keyOf never
	// produces reads back as a ±Inf or 0 quantile.
	for _, data := range []string{
		`{"zero":0,"buckets":[[0,5]]}`,
		`{"zero":0,"buckets":[[7,-1]]}`,
		`{"zero":0,"buckets":[[4294967296,5]]}`,
		`{"zero":0,"buckets":[[2147483648,5]]}`,
		`{"zero":0,"buckets":[[-2147483649,5]]}`,
		`{"zero":0,"buckets":[[2147483647,3]]}`,
		`{"zero":0,"buckets":[[-2147483648,3]]}`,
		`{"zero":0,"buckets":[[5,3]]}`,
		`{"zero":0,"buckets":[[4056959,3]]}`,
		`{"zero":0,"buckets":[[-4325504,3]]}`,
		`{"zero":0,"buckets":[[4194560,1],[4194560,1]]}`,
	} {
		var sk Sketch
		err := json.Unmarshal([]byte(data), &sk)
		if err == nil || !strings.Contains(err.Error(), "invalid sketch bucket") {
			t.Errorf("%s: error %v, want invalid sketch bucket", data, err)
		}
	}
	// The extreme keys keyOf produces load and read back finite.
	lo, hi := keyOf(math.SmallestNonzeroFloat64), keyOf(math.MaxFloat64)
	if lo != 4056960 || hi != 4325503 {
		t.Fatalf("key range [%d, %d], want [4056960, 4325503]", lo, hi)
	}
	data := fmt.Sprintf(`{"zero":1,"buckets":[[%d,2],[%d,1],[%d,1],[%d,1]]}`, -hi, -lo, lo, hi)
	var sk Sketch
	if err := json.Unmarshal([]byte(data), &sk); err != nil {
		t.Fatalf("extreme keys rejected: %v", err)
	}
	if sk.Count() != 6 {
		t.Fatalf("count %d, want 6", sk.Count())
	}
	for _, q := range []float64{0, 1} {
		if v := sk.Quantile(q); math.IsInf(v, 0) || v == 0 {
			t.Errorf("Quantile(%g) = %g, want finite nonzero", q, v)
		}
	}
}
