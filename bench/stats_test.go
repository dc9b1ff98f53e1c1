package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestEmptySampleContracts(t *testing.T) {
	for name, v := range map[string]float64{
		"Median":     Median(nil),
		"Mean":       Mean([]float64{}),
		"Percentile": Percentile(nil, 0.3),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of an empty sample = %v, want NaN", name, v)
		}
	}
	if _, _, _, err := Quartiles(nil); err == nil {
		t.Error("Quartiles of an empty sample: want an error")
	}
	if _, _, ok := Tail(nil, 0.99); ok {
		t.Error("Tail of an empty sample: want !ok")
	}
}

func TestSingleSample(t *testing.T) {
	xs := []float64{7.5}
	for _, p := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if v := Percentile(xs, p); v != 7.5 {
			t.Errorf("Percentile(%v) = %v, want 7.5", p, v)
		}
	}
	q1, q2, q3, err := Quartiles(xs)
	if err != nil || q1 != 7.5 || q2 != 7.5 || q3 != 7.5 {
		t.Errorf("Quartiles = %v %v %v %v, want 7.5 ×3", q1, q2, q3, err)
	}
	if Median(xs) != 7.5 || Mean(xs) != 7.5 {
		t.Errorf("Median/Mean of one sample differ from it")
	}
}

func TestKnownValues(t *testing.T) {
	if v := Median([]float64{4, 1, 3, 2}); v != 2.5 {
		t.Errorf("even median = %v, want 2.5", v)
	}
	if v := Percentile([]float64{1, 2, 3}, 1); v != 3 {
		t.Errorf("p100 = %v, want 3", v)
	}
	// statistics.quantiles(data, n=4) in Python for each input.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{5, 3, 4, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{6, 3, 2, 4, 5, 1}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3, err := Quartiles(c.in)
		if err != nil || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("Quartiles(%v) = %v %v %v (%v), want %v", c.in, q1, q2, q3, err, c.want)
		}
	}
}

func TestPercentilesMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+r.Intn(60))
		for i := range xs {
			xs[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(4)))
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.01 {
			v := Percentile(xs, p)
			if v < last {
				t.Fatalf("trial %d: percentile decreased at p=%.2f: %v < %v", trial, p, v, last)
			}
			last = v
		}
		q1, q2, q3, err := Quartiles(xs)
		if err != nil || q1 > q2 || q2 > q3 {
			t.Fatalf("trial %d: quartiles not ordered: %v %v %v (%v)", trial, q1, q2, q3, err)
		}
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{1, 5, 20, 21, 50, 100, 999, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, v, ok := Tail(xs, 0.99)
		if !ok || p > 0.99 || p < 0.5 {
			t.Fatalf("n=%d: Tail = %v, %v, %v", n, p, v, ok)
		}
		if n <= 2*tailBeyond {
			if p != 0.5 || v != Median(xs) {
				t.Errorf("n=%d: Tail = p%v %v, want the median", n, p, v)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p=%.4f leaves %d samples beyond, want ≥ %d", n, p, beyond, tailBeyond)
		}
		if n >= 1000 && p != 0.99 {
			t.Errorf("n=%d: p = %v, want 0.99", n, p)
		}
	}
}
