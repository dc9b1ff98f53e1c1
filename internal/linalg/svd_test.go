package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// reconstruct builds U·Σ·Vᴴ from an SVD result.
func reconstruct(u *Matrix, s []float64, v *Matrix) *Matrix {
	sigma := NewMatrix(u.Cols, v.Cols)
	for i, sv := range s {
		sigma.Set(i, i, complex(sv, 0))
	}
	return u.Mul(sigma).Mul(v.H())
}

func checkSVD(t *testing.T, a *Matrix) {
	t.Helper()
	u, s, v := a.SVD()
	if u.Rows != a.Rows || u.Cols != a.Rows {
		t.Fatalf("U shape %dx%d, want %dx%d", u.Rows, u.Cols, a.Rows, a.Rows)
	}
	if v.Rows != a.Cols || v.Cols != a.Cols {
		t.Fatalf("V shape %dx%d, want %dx%d", v.Rows, v.Cols, a.Cols, a.Cols)
	}
	min := a.Rows
	if a.Cols < min {
		min = a.Cols
	}
	if len(s) != min {
		t.Fatalf("len(s)=%d, want %d", len(s), min)
	}
	for i := 0; i < len(s)-1; i++ {
		if s[i] < s[i+1] {
			t.Fatalf("singular values not sorted: %v", s)
		}
	}
	for _, sv := range s {
		if sv < 0 {
			t.Fatalf("negative singular value: %v", s)
		}
	}
	scale := math.Max(1, a.MaxAbs())
	if !u.H().Mul(u).IsIdentity(1e-8) {
		t.Errorf("U not unitary")
	}
	if !v.H().Mul(v).IsIdentity(1e-8) {
		t.Errorf("V not unitary")
	}
	if rec := reconstruct(u, s, v); !rec.Equal(a, 1e-8*scale) {
		t.Errorf("UΣVᴴ != A\nA=%v\nrec=%v", a, rec)
	}
}

func TestSVDShapes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {2, 4}, {4, 2}, {1, 4}, {4, 1}, {3, 2}, {2, 3}, {5, 3}, {3, 5}} {
		a := randomMatrix(r, dims[0], dims[1])
		checkSVD(t, a)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewMatrix(3, 2)
	u, s, v := a.SVD()
	for _, sv := range s {
		if sv != 0 {
			t.Errorf("zero matrix singular values = %v", s)
		}
	}
	if !u.H().Mul(u).IsIdentity(1e-10) || !v.H().Mul(v).IsIdentity(1e-10) {
		t.Error("U/V of zero matrix not unitary")
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Two identical columns: rank 1.
	a := FromRows([][]complex128{
		{1 + 1i, 1 + 1i},
		{2, 2},
		{-1i, -1i},
	})
	checkSVD(t, a)
	if rank := a.Rank(1e-10); rank != 1 {
		t.Errorf("rank = %d, want 1", rank)
	}
	_, s, _ := a.SVD()
	if s[1] > 1e-10*s[0] {
		t.Errorf("second singular value should be ~0: %v", s)
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) has singular values {3, 2}.
	a := FromRows([][]complex128{{3, 0}, {0, 2}})
	_, s, _ := a.SVD()
	if math.Abs(s[0]-3) > 1e-12 || math.Abs(s[1]-2) > 1e-12 {
		t.Errorf("s = %v, want [3 2]", s)
	}
	// A unitary scaling: singular values of c·Q are all |c|.
	q := FromRows([][]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	}).Scale(2i)
	_, s2, _ := q.SVD()
	for _, sv := range s2 {
		if math.Abs(sv-2) > 1e-10 {
			t.Errorf("unitary×2i singular values = %v, want all 2", s2)
		}
	}
}

func TestNullspace(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	// A 2×4 random matrix almost surely has rank 2 and a 2-dim nullspace.
	a := randomMatrix(r, 2, 4)
	ns := a.Nullspace(1e-10)
	if ns.Cols != 2 {
		t.Fatalf("nullspace dim = %d, want 2", ns.Cols)
	}
	if prod := a.Mul(ns); prod.MaxAbs() > 1e-9 {
		t.Errorf("A·N not ~0: max|·| = %g", prod.MaxAbs())
	}
	if !ns.H().Mul(ns).IsIdentity(1e-9) {
		t.Error("nullspace basis not orthonormal")
	}
	// Full column rank: empty nullspace.
	b := randomMatrix(r, 4, 2)
	if nb := b.Nullspace(1e-10); nb.Cols != 0 {
		t.Errorf("full-rank nullspace dim = %d, want 0", nb.Cols)
	}
}

func TestQuickSVDReconstruction(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(5), 1+r.Intn(5)
		a := randomMatrix(r, rows, cols)
		u, s, v := a.SVD()
		scale := math.Max(1, a.MaxAbs())
		return reconstruct(u, s, v).Equal(a, 1e-8*scale) &&
			u.H().Mul(u).IsIdentity(1e-8) &&
			v.H().Mul(v).IsIdentity(1e-8)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickNullspaceOrthogonality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(3)
		cols := rows + 1 + r.Intn(3) // wide: guaranteed nullspace
		a := randomMatrix(r, rows, cols)
		ns := a.Nullspace(1e-10)
		if ns.Cols != cols-rows { // random wide matrix has full row rank a.s.
			return false
		}
		return a.Mul(ns).MaxAbs() < 1e-8*math.Max(1, a.MaxAbs())
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSolveAndInverse(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 3, 4, 6} {
		a := randomMatrix(r, n, n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		b := a.MulVec(x)
		got, err := a.Solve(b)
		if err != nil {
			t.Fatalf("Solve n=%d: %v", n, err)
		}
		for i := range x {
			if d := got[i] - x[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("Solve n=%d: x[%d] = %v, want %v", n, i, got[i], x[i])
			}
		}
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("Inverse n=%d: %v", n, err)
		}
		if !a.Mul(inv).IsIdentity(1e-8) || !inv.Mul(a).IsIdentity(1e-8) {
			t.Errorf("A·A⁻¹ != I for n=%d", n)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := a.Solve([]complex128{1, 2}); err == nil {
		t.Error("expected error for singular solve")
	}
	if _, err := a.Inverse(); err == nil {
		t.Error("expected error for singular inverse")
	}
}

func TestQuickInverseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		a := randomMatrix(r, n, n)
		inv, err := a.Inverse()
		if err != nil {
			return true // singular random draw: astronomically unlikely, skip
		}
		return a.Mul(inv).IsIdentity(1e-7)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkSVD4x2(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomMatrix(r, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SVD()
	}
}

func BenchmarkInverse4x4(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomMatrix(r, 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}
