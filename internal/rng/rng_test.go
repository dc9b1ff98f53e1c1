package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children with different tags differ; same tag from same parent
	// state matches.
	p1, p2 := New(7), New(7)
	c1, c2 := p1.Split(1), p2.Split(1)
	for i := 0; i < 10; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("same split diverged")
		}
	}
	p3 := New(7)
	d := p3.Split(2)
	same := true
	e := New(7).Split(1)
	for i := 0; i < 10; i++ {
		if d.Float64() != e.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different tags produced identical streams")
	}
}

func TestSplitDoesNotPerturbSiblingOrder(t *testing.T) {
	// Drawing more values from one child must not change another child
	// derived from a later parent state in a fixed call order.
	mk := func(extraDraws int) float64 {
		p := New(3)
		c1 := p.Split(1)
		for i := 0; i < extraDraws; i++ {
			c1.Float64()
		}
		c2 := p.Split(2)
		return c2.Float64()
	}
	if mk(0) != mk(50) {
		t.Error("sibling stream perturbed by consumption in another child")
	}
}

func TestDeriveStateless(t *testing.T) {
	// Derive must not depend on call order or on any stream state.
	a := Derive(7, 3, 5)
	New(7).Float64() // consuming an unrelated stream changes nothing
	Derive(7, 99)
	if b := Derive(7, 3, 5); a != b {
		t.Fatal("Derive is not a pure function of (seed, path)")
	}
	// Path composition: Derive(s, a, b) is the b-th child of the a-th child.
	if Derive(7, 3, 5) != Derive(Derive(7, 3), 5) {
		t.Error("path elements do not compose")
	}
	// NewSub streams match a Source seeded with the derived seed.
	x, y := NewSub(11, 4), New(Derive(11, 4))
	for i := 0; i < 10; i++ {
		if x.Float64() != y.Float64() {
			t.Fatal("NewSub diverged from New(Derive(...))")
		}
	}
}

func TestDeriveCollisions(t *testing.T) {
	// No collisions across a campaign-scale grid of (seed, shard, index)
	// paths: 3 seeds × 50k indices plus two-level paths. A 64-bit mix has
	// ~2⁻⁶⁴ pairwise collision odds, so any hit here is a real defect
	// (e.g. an accidental fixed point or a path that ignores an element).
	seen := make(map[int64][3]uint64, 200000)
	check := func(d int64, id [3]uint64) {
		if prev, ok := seen[d]; ok {
			t.Fatalf("collision: %v and %v both derive %#x", prev, id, uint64(d))
		}
		seen[d] = id
	}
	for _, seed := range []int64{0, 1, -42} {
		for i := uint64(0); i < 50000; i++ {
			check(Derive(seed, i), [3]uint64{uint64(seed), i, 0})
		}
	}
	for shard := uint64(0); shard < 64; shard++ {
		for i := uint64(0); i < 256; i++ {
			check(Derive(9, shard, i), [3]uint64{9, shard, i})
		}
	}
	// Adjacent single-level and two-level paths must differ too.
	if Derive(9, 0, 1) == Derive(9, 1) || Derive(9, 1, 0) == Derive(9, 1) {
		t.Error("multi-level path collides with single-level path")
	}
}

func TestDeriveIndependence(t *testing.T) {
	// First draws of sibling substreams must look i.i.d. uniform: decile
	// histogram flat, and no correlation between adjacent indices.
	const n = 10000
	var buckets [10]int
	var sumProd, sumA, sumB float64
	prev := 0.0
	for i := 0; i < n; i++ {
		v := NewSub(123, uint64(i)).Float64()
		buckets[int(v*10)]++
		if i > 0 {
			sumProd += v * prev
			sumA += v
			sumB += prev
		}
		prev = v
	}
	for d, c := range buckets {
		if c < n/10-300 || c > n/10+300 {
			t.Errorf("decile %d has %d draws, want ≈%d", d, c, n/10)
		}
	}
	// Covariance of adjacent-index first draws ≈ 0 (±0.01 at n=10k).
	m := float64(n - 1)
	cov := sumProd/m - (sumA/m)*(sumB/m)
	if math.Abs(cov) > 0.01 {
		t.Errorf("adjacent substreams correlated: cov %.4f", cov)
	}
}

func TestCNVariance(t *testing.T) {
	src := New(11)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := src.CN(4.0)
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	mean := sum / n
	if math.Abs(mean-4.0) > 0.15 {
		t.Errorf("CN variance %.3f, want 4.0", mean)
	}
}

func TestUniformRange(t *testing.T) {
	src := New(17)
	for i := 0; i < 1000; i++ {
		v := src.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("uniform out of range: %g", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	src := New(19)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if src.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency %.3f", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%20)
		perm := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || p >= n || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIntnAndNorm(t *testing.T) {
	src := New(23)
	for i := 0; i < 100; i++ {
		if v := src.Intn(5); v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	if src.Norm() == src.Norm() {
		t.Error("Norm repeating")
	}
}
