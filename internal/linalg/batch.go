package linalg

import (
	"math"
	"math/cmplx"
)

// This file implements the batched struct-of-arrays linalg layer: one
// EigHermitianBatch / SVDBatch call processes all subcarriers of a
// (mode, follower) combination in a single pass over contiguous arrays,
// with the N-dependent kernel dispatch hoisted out of the per-subcarrier
// loop. The scalar EigHermitianWS / SVDWS path stays as the reference
// implementation; the batched kernels are equivalence-tested against it
// (see batch_test.go and the kernel-equivalence CI job).
//
// Kernel selection by matrix dimension:
//
//	1×1 — trivial
//	2×2 — closed-form analytic eigenpairs (unconditionally stable)
//	3×3 — Cardano eigenvalues + cross-product eigenvectors with
//	      Rayleigh-quotient refinement; per-matrix Jacobi fallback when
//	      the residual check fails (near-degenerate spectra)
//	4×4 — fully unrolled cyclic Jacobi over fixed-size arrays
//	n>4 — per-matrix generic Jacobi (reference path)

// HermitianBatch is a struct-of-arrays batch of Count N×N Hermitian
// matrices: entry (i,j) of matrix k lives at Data[(i*N+j)*Count+k], so a
// kernel sweeping the whole batch reads each coefficient's Count values
// from one contiguous run instead of striding across per-matrix
// allocations.
type HermitianBatch struct {
	N, Count int
	Data     []complex128
}

// HermitianBatch carves a zeroed N×N×Count batch from the arena.
func (w *Workspace) HermitianBatch(n, count int) HermitianBatch {
	return HermitianBatch{N: n, Count: count, Data: w.Complex(n * n * count)}
}

// At returns entry (i,j) of matrix k.
func (b *HermitianBatch) At(k, i, j int) complex128 {
	return b.Data[(i*b.N+j)*b.Count+k]
}

// Set stores entry (i,j) of matrix k.
func (b *HermitianBatch) Set(k, i, j int, v complex128) {
	b.Data[(i*b.N+j)*b.Count+k] = v
}

// SetGram fills slot k with the Gram matrix MᴴM of the Rows×N matrix m.
// Only the upper triangle is computed; the lower triangle is its conjugate
// and the diagonal is forced real, so the slot is exactly Hermitian.
func (b *HermitianBatch) SetGram(k int, m *Matrix) {
	if m.Cols != b.N {
		panic("linalg: SetGram column mismatch")
	}
	n, rows, cnt := b.N, m.Rows, b.Count
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s complex128
			for r := 0; r < rows; r++ {
				s += cmplx.Conj(m.Data[r*n+i]) * m.Data[r*n+j]
			}
			if i == j {
				s = complex(real(s), 0)
			}
			b.Data[(i*n+j)*cnt+k] = s
			if i != j {
				b.Data[(j*n+i)*cnt+k] = cmplx.Conj(s)
			}
		}
	}
}

// EigBatch holds the eigendecompositions of a HermitianBatch in the same
// struct-of-arrays layout: eigenvalue j of matrix k (descending in j) is
// Vals[j*Count+k]; entry (i,j) of the unitary eigenvector matrix of k is
// Vecs[(i*N+j)*Count+k], columns matching Vals.
type EigBatch struct {
	N, Count int
	Vals     []float64
	Vecs     []complex128
}

// Val returns eigenvalue j (descending) of matrix k.
func (e *EigBatch) Val(k, j int) float64 { return e.Vals[j*e.Count+k] }

// Vec returns entry i of eigenvector j of matrix k.
func (e *EigBatch) Vec(k, i, j int) complex128 {
	return e.Vecs[(i*e.N+j)*e.Count+k]
}

// EigHermitianBatch diagonalizes every matrix in the batch with one kernel
// dispatch on N. Results are carved from ws; entries follow the same
// descending-eigenvalue convention as EigHermitianWS. The batched kernels
// agree with the scalar reference to tight relative tolerance but are not
// bit-identical to it (different, closed-form operation order); see the
// kernel-equivalence tests for the enforced bounds.
func EigHermitianBatch(ws *Workspace, b *HermitianBatch) EigBatch {
	out := EigBatch{
		N:     b.N,
		Count: b.Count,
		Vals:  ws.Float64s(b.N * b.Count),
		Vecs:  ws.Complex(b.N * b.N * b.Count),
	}
	switch b.N {
	case 1:
		for k := 0; k < b.Count; k++ {
			out.Vals[k] = real(b.Data[k])
			out.Vecs[k] = 1
		}
	case 2:
		eigBatch2(&out, b)
	case 3:
		eigBatch3(ws, &out, b)
	case 4:
		eigBatch4(&out, b)
	default:
		eigBatchGeneric(ws, &out, b)
	}
	return out
}

// eigBatch2 solves every 2×2 Hermitian eigenproblem in closed form:
// eigenvalues from the quadratic characteristic polynomial via a hypot
// discriminant, the first eigenvector from whichever analytic expression
// ((b, λ−a) or (λ−c, b̄)) has the larger norm, and the second as the exact
// Hermitian-orthogonal complement. Unconditionally stable: the candidate
// norms are ≥ |b| and the branch g==0 handles exactly diagonal input.
func eigBatch2(out *EigBatch, b *HermitianBatch) {
	cnt := b.Count
	d00 := b.Data[0*cnt : 1*cnt]
	d01 := b.Data[1*cnt : 2*cnt]
	d11 := b.Data[3*cnt : 4*cnt]
	v00 := out.Vecs[0*cnt : 1*cnt]
	v01 := out.Vecs[1*cnt : 2*cnt]
	v10 := out.Vecs[2*cnt : 3*cnt]
	v11 := out.Vecs[3*cnt : 4*cnt]
	l1s := out.Vals[0*cnt : 1*cnt]
	l2s := out.Vals[1*cnt : 2*cnt]
	for k := 0; k < cnt; k++ {
		a := real(d00[k])
		c := real(d11[k])
		bb := d01[k]
		g := cmplx.Abs(bb)
		half := (a + c) / 2
		s := math.Hypot((a-c)/2, g)
		l1 := half + s
		l2 := half - s
		l1s[k], l2s[k] = l1, l2
		if g == 0 {
			if a >= c {
				v00[k], v10[k] = 1, 0
				v01[k], v11[k] = 0, 1
			} else {
				v00[k], v10[k] = 0, 1
				v01[k], v11[k] = 1, 0
			}
			continue
		}
		// Candidate eigenvectors for λ1; both satisfy (A−λ1I)v = 0
		// analytically, the larger-norm one is the better conditioned.
		x, y := bb, complex(l1-a, 0)
		if alt := l1 - c; alt*alt > g*g+(l1-a)*(l1-a) {
			x, y = complex(alt, 0), cmplx.Conj(bb)
		}
		nrm := math.Sqrt(real(x)*real(x) + imag(x)*imag(x) + real(y)*real(y) + imag(y)*imag(y))
		x /= complex(nrm, 0)
		y /= complex(nrm, 0)
		v00[k], v10[k] = x, y
		// Hermitian-orthogonal complement of (x, y) is (−ȳ, x̄).
		v01[k], v11[k] = -cmplx.Conj(y), cmplx.Conj(x)
	}
}

// eigBatch3 solves the 3×3 Hermitian eigenproblems with Cardano's formula
// (trigonometric form on the shifted matrix) for the eigenvalues and
// bilinear cross products of rows of A−λI for the eigenvectors, followed
// by one Rayleigh-quotient refinement of each eigenvalue. The middle
// eigenvector is constructed as the exact orthogonal complement of the
// outer two, so the returned basis is orthonormal by construction. Any
// matrix whose refined residual ‖Av−λv‖∞ exceeds eigResidualTol×scale
// falls back to the generic Jacobi reference — near-degenerate spectra
// make the cross products ill-conditioned, and correctness there matters
// more than the batch speedup.
func eigBatch3(ws *Workspace, out *EigBatch, b *HermitianBatch) {
	cnt := b.Count
	var scratch *Matrix
	for k := 0; k < cnt; k++ {
		var a [3][3]complex128
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a[i][j] = b.Data[(i*3+j)*cnt+k]
			}
		}
		if !eig3Closed(out, k, &a) {
			if scratch == nil {
				scratch = ws.Matrix(3, 3)
			}
			eigScalarFallback(ws, out, b, k, scratch)
		}
	}
}

// eig3Closed attempts the closed-form 3×3 path for one matrix; it reports
// false when the residual check says the cross-product vectors are not
// trustworthy and the caller should use the Jacobi reference instead.
func eig3Closed(out *EigBatch, k int, a *[3][3]complex128) bool {
	a00, a11, a22 := real(a[0][0]), real(a[1][1]), real(a[2][2])
	p1 := absSq(a[0][1]) + absSq(a[0][2]) + absSq(a[1][2])
	scale := math.Max(math.Abs(a00), math.Max(math.Abs(a11), math.Abs(a22)))
	scale = math.Max(scale, math.Sqrt(p1))
	if scale == 0 { // zero matrix
		storeEig3(out, k, [3]float64{0, 0, 0}, identity3())
		return true
	}
	if p1 <= 1e-30*scale*scale {
		// Numerically diagonal: eigenpairs are the diagonal entries with
		// canonical basis vectors, sorted descending (stable in index).
		vals := [3]float64{a00, a11, a22}
		vecs := identity3()
		sortEig3(&vals, &vecs)
		storeEig3(out, k, vals, vecs)
		return true
	}

	// Cardano (trigonometric form): eigenvalues of the shifted matrix.
	q := (a00 + a11 + a22) / 3
	p2 := (a00-q)*(a00-q) + (a11-q)*(a11-q) + (a22-q)*(a22-q) + 2*p1
	p := math.Sqrt(p2 / 6)
	// det((A − qI)/p), real for Hermitian input.
	b00, b11, b22 := (a00-q)/p, (a11-q)/p, (a22-q)/p
	ip := complex(1/p, 0)
	b01, b02, b12 := a[0][1]*ip, a[0][2]*ip, a[1][2]*ip
	detB := b00*b11*b22 - b00*absSq(b12) - b11*absSq(b02) - b22*absSq(b01) +
		2*realTriple(b01, b12, cmplx.Conj(b02))
	r := detB / 2
	if r < -1 {
		r = -1
	} else if r > 1 {
		r = 1
	}
	phi := math.Acos(r) / 3
	l1 := q + 2*p*math.Cos(phi)
	l3 := q + 2*p*math.Cos(phi+2*math.Pi/3)
	l2 := 3*q - l1 - l3 // trace identity; l1 ≥ l2 ≥ l3

	// Near-degenerate spectra make the cross products below ill-conditioned
	// (eigenvector error scales with residual/gap); route those matrices to
	// the Jacobi reference before computing garbage.
	if l1-l2 <= 1e-6*scale || l2-l3 <= 1e-6*scale {
		return false
	}

	v1, ok1 := crossEigvec3(a, l1)
	v3, ok3 := crossEigvec3(a, l3)
	if !ok1 || !ok3 {
		return false
	}
	// Orthonormalize: v3 against v1 (modified Gram–Schmidt), middle vector
	// as the exact orthogonal complement cross(conj v1, conj v3).
	proj := dot3(&v1, &v3)
	for i := 0; i < 3; i++ {
		v3[i] -= proj * v1[i]
	}
	n3 := norm3(&v3)
	if n3 < 1e-6 {
		return false // λ1 and λ3 vectors collapsed: (near-)degenerate
	}
	for i := 0; i < 3; i++ {
		v3[i] /= complex(n3, 0)
	}
	v2 := [3]complex128{
		cmplx.Conj(v1[1])*cmplx.Conj(v3[2]) - cmplx.Conj(v1[2])*cmplx.Conj(v3[1]),
		cmplx.Conj(v1[2])*cmplx.Conj(v3[0]) - cmplx.Conj(v1[0])*cmplx.Conj(v3[2]),
		cmplx.Conj(v1[0])*cmplx.Conj(v3[1]) - cmplx.Conj(v1[1])*cmplx.Conj(v3[0]),
	}
	n2 := norm3(&v2)
	if n2 < 1e-6 {
		return false
	}
	for i := 0; i < 3; i++ {
		v2[i] /= complex(n2, 0)
	}

	// Rayleigh-quotient refinement: for a Hermitian matrix the quotient is
	// quadratically accurate in the eigenvector error, so one evaluation
	// absorbs most of the Cardano rounding.
	vals := [3]float64{rayleigh3(a, &v1), rayleigh3(a, &v2), rayleigh3(a, &v3)}
	vecs := [3][3]complex128{v1, v2, v3}
	for i := 0; i < 3; i++ {
		if residual3(a, &vecs[i], vals[i]) > eigResidualTol*scale {
			return false
		}
	}
	sortEig3(&vals, &vecs)
	storeEig3(out, k, vals, vecs)
	return true
}

// eigResidualTol bounds ‖Av−λv‖∞ relative to the matrix scale for the
// closed-form 3×3 path; matrices exceeding it (near-degenerate spectra,
// pathological conditioning) take the Jacobi reference path instead.
const eigResidualTol = 1e-8

func absSq(x complex128) float64 { return real(x)*real(x) + imag(x)*imag(x) }

// realTriple returns Re(x·y·z).
func realTriple(x, y, z complex128) float64 { return real(x * y * z) }

func identity3() [3][3]complex128 {
	var v [3][3]complex128
	v[0][0], v[1][1], v[2][2] = 1, 1, 1
	return v
}

// crossEigvec3 returns a unit vector spanning the (assumed 1-dimensional)
// nullspace of M = A−λI: the largest bilinear cross product of two of its
// rows (a vector x with M·x = 0 is bilinearly orthogonal to every row, and
// the cross product of two rows is bilinearly orthogonal to both). ok is
// false when every pair of rows is numerically parallel, i.e. the
// nullspace is not 1-dimensional at working precision.
func crossEigvec3(a *[3][3]complex128, l float64) (v [3]complex128, ok bool) {
	lc := complex(l, 0)
	r0 := [3]complex128{a[0][0] - lc, a[0][1], a[0][2]}
	r1 := [3]complex128{a[1][0], a[1][1] - lc, a[1][2]}
	r2 := [3]complex128{a[2][0], a[2][1], a[2][2] - lc}

	c01 := cross3(&r0, &r1)
	c02 := cross3(&r0, &r2)
	c12 := cross3(&r1, &r2)
	n01, n02, n12 := norm3(&c01), norm3(&c02), norm3(&c12)

	best, nrm := &c01, n01
	if n02 > nrm {
		best, nrm = &c02, n02
	}
	if n12 > nrm {
		best, nrm = &c12, n12
	}
	if nrm <= 1e-150 {
		return v, false
	}
	for i := 0; i < 3; i++ {
		v[i] = best[i] / complex(nrm, 0)
	}
	return v, true
}

// cross3 is the bilinear (unconjugated) cross product a×b.
func cross3(a, b *[3]complex128) [3]complex128 {
	return [3]complex128{
		a[1]*b[2] - a[2]*b[1],
		a[2]*b[0] - a[0]*b[2],
		a[0]*b[1] - a[1]*b[0],
	}
}

// dot3 is the Hermitian inner product ⟨a,b⟩ = Σ āᵢbᵢ.
func dot3(a, b *[3]complex128) complex128 {
	return cmplx.Conj(a[0])*b[0] + cmplx.Conj(a[1])*b[1] + cmplx.Conj(a[2])*b[2]
}

func norm3(v *[3]complex128) float64 {
	return math.Sqrt(absSq(v[0]) + absSq(v[1]) + absSq(v[2]))
}

// rayleigh3 is the Rayleigh quotient vᴴAv for unit v (real for Hermitian A).
func rayleigh3(a *[3][3]complex128, v *[3]complex128) float64 {
	var q float64
	for i := 0; i < 3; i++ {
		var av complex128
		for j := 0; j < 3; j++ {
			av += a[i][j] * v[j]
		}
		q += real(cmplx.Conj(v[i]) * av)
	}
	return q
}

// residual3 is ‖Av − λv‖∞ for unit v.
func residual3(a *[3][3]complex128, v *[3]complex128, l float64) float64 {
	var worst float64
	lc := complex(l, 0)
	for i := 0; i < 3; i++ {
		var av complex128
		for j := 0; j < 3; j++ {
			av += a[i][j] * v[j]
		}
		if m := cmplx.Abs(av - lc*v[i]); m > worst {
			worst = m
		}
	}
	return worst
}

// sortEig3 sorts the three eigenpairs descending by value (stable), where
// vecs[i] is eigenvector i stored as a row triple.
func sortEig3(vals *[3]float64, vecs *[3][3]complex128) {
	for i := 1; i < 3; i++ {
		for j := i; j > 0 && vals[j] > vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
			vecs[j], vecs[j-1] = vecs[j-1], vecs[j]
		}
	}
}

// storeEig3 scatters one matrix's eigenpairs into the SoA result. vecs[j]
// is eigenvector j (a length-3 column stored as an array).
func storeEig3(out *EigBatch, k int, vals [3]float64, vecs [3][3]complex128) {
	cnt := out.Count
	for j := 0; j < 3; j++ {
		out.Vals[j*cnt+k] = vals[j]
		for i := 0; i < 3; i++ {
			out.Vecs[(i*3+j)*cnt+k] = vecs[j][i]
		}
	}
}

// eigBatch4 runs a fully unrolled cyclic Jacobi sweep per 4×4 matrix over
// fixed-size stack arrays: the same rotation algebra as EigHermitianWS
// (phase-align the pivot, then a real Jacobi rotation) but with constant
// dimensions, so the compiler drops bounds checks and the per-subcarrier
// Matrix/Workspace indirection disappears.
func eigBatch4(out *EigBatch, b *HermitianBatch) {
	const n = 4
	cnt := b.Count
	for k := 0; k < cnt; k++ {
		var a, v [n][n]complex128
		var scale float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a[i][j] = b.Data[(i*n+j)*cnt+k]
				if m := cmplx.Abs(a[i][j]); m > scale {
					scale = m
				}
			}
			v[i][i] = 1
		}
		scale = math.Max(scale, 1e-300)

		for sweep := 0; sweep < 64 && offDiag4(&a) > 1e-13*scale*n*n; sweep++ {
			for p := 0; p < n-1; p++ {
				for q := p + 1; q < n; q++ {
					apq := a[p][q]
					g := cmplx.Abs(apq)
					if g <= 1e-15*scale {
						continue
					}
					app, aqq := real(a[p][p]), real(a[q][q])
					phase := apq / complex(g, 0)
					zeta := (aqq - app) / (2 * g)
					t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
					c := 1 / math.Sqrt(1+t*t)
					s := c * t
					cc := complex(c, 0)
					sc := complex(s, 0) * phase
					scj := cmplx.Conj(sc)

					for i := 0; i < n; i++ {
						aip, aiq := a[i][p], a[i][q]
						a[i][p] = cc*aip - scj*aiq
						a[i][q] = sc*aip + cc*aiq
					}
					for i := 0; i < n; i++ {
						api, aqi := a[p][i], a[q][i]
						a[p][i] = cc*api - sc*aqi
						a[q][i] = scj*api + cc*aqi
					}
					for i := 0; i < n; i++ {
						vip, viq := v[i][p], v[i][q]
						v[i][p] = cc*vip - scj*viq
						v[i][q] = sc*vip + cc*viq
					}
				}
			}
		}

		var vals [n]float64
		var order [n]int
		for i := 0; i < n; i++ {
			vals[i] = real(a[i][i])
			order[i] = i
		}
		for i := 1; i < n; i++ { // stable insertion sort, descending
			for j := i; j > 0 && vals[order[j]] > vals[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for j := 0; j < n; j++ {
			src := order[j]
			out.Vals[j*cnt+k] = vals[src]
			for i := 0; i < n; i++ {
				out.Vecs[(i*n+j)*cnt+k] = v[i][src]
			}
		}
	}
}

// offDiag4 is offDiagAbsSum over a fixed 4×4 array.
func offDiag4(a *[4][4]complex128) float64 {
	var s float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				s += cmplx.Abs(a[i][j])
			}
		}
	}
	return s
}

// eigBatchGeneric diagonalizes each batch entry with the scalar reference
// (EigHermitianWS), gathering from and scattering back to the SoA layout.
func eigBatchGeneric(ws *Workspace, out *EigBatch, b *HermitianBatch) {
	scratch := ws.Matrix(b.N, b.N)
	for k := 0; k < b.Count; k++ {
		eigScalarFallback(ws, out, b, k, scratch)
	}
}

// eigScalarFallback diagonalizes batch entry k via EigHermitianWS and
// scatters the result into the SoA output.
func eigScalarFallback(ws *Workspace, out *EigBatch, b *HermitianBatch, k int, scratch *Matrix) {
	n, cnt := b.N, b.Count
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			scratch.Data[i*n+j] = b.Data[(i*n+j)*cnt+k]
		}
	}
	vals, vecs := scratch.EigHermitianWS(ws)
	for j := 0; j < n; j++ {
		out.Vals[j*cnt+k] = vals[j]
		for i := 0; i < n; i++ {
			out.Vecs[(i*n+j)*cnt+k] = vecs.Data[i*n+j]
		}
	}
}

// SVDBatchResult holds right singular vectors and singular values for a
// batch of same-shaped matrices, in the EigBatch layout: singular value j
// (descending) of matrix k is S[j*Count+k]; entry (i,j) of the C×C right
// singular vector matrix V of k is V[(i*C+j)*Count+k].
type SVDBatchResult struct {
	C, Count int
	S        []float64
	V        []complex128
}

// SVal returns singular value j (descending) of matrix k.
func (r *SVDBatchResult) SVal(k, j int) float64 { return r.S[j*r.Count+k] }

// gramSigmaErr bounds the absolute error of a Gram-derived singular value
// relative to σmax: eigenvalues of MᴴM carry ~n·ε·λmax of rounding noise,
// which the square root turns into ~√(n·ε)·σmax ≈ 1e-8·σmax of σ noise.
// Any decision that needs σ resolved more finely than this must use the
// scalar SVD reference.
const gramSigmaErr = 3e-8

// NullspaceDim returns the right-nullspace dimension of matrix k exactly
// as the scalar NullspaceWS(tol) reference would compute it, where
// maxRank = min(rows, C) is the structural rank bound of the source
// matrix. ok is false when the Gram singular values cannot prove the
// reference decision.
//
// The proof obligation is one-sided: the reference computes at most
// maxRank singular values, so its rank is exactly maxRank iff its
// smallest one clears tol·σmax. Each Gram σ is within gramSigmaErr·σmax
// of the reference σ, so σⱼ − err > tol·(σmax + err) for all j < maxRank
// certifies rank = maxRank and dim = C − maxRank. Anything short of that
// (rank-deficient, threshold-straddling, or zero input) reports ok=false
// and the caller must fall back to the scalar path — Gram squaring cannot
// resolve σ below ~1e-8·σmax, while precoding's rankTol is 1e-9.
func (r *SVDBatchResult) NullspaceDim(k, maxRank int, tol float64) (dim int, ok bool) {
	smax := r.S[k]
	if smax <= 0 {
		return 0, false
	}
	err := gramSigmaErr * smax
	for j := 0; j < maxRank; j++ {
		if r.S[j*r.Count+k]-err <= tol*(smax+err) {
			return 0, false
		}
	}
	return r.C - maxRank, true
}

// TopSeparated reports whether the leading `lead` singular directions of
// matrix k are well determined by the Gram pass: every consecutive gap
// σⱼ₋₁−σⱼ up to and including the boundary gap σ_{lead−1}−σ_lead must
// exceed gapTol·σmax. Near-ties leave the corresponding singular vectors
// free to rotate inside the tied subspace, so a batched consumer that
// needs specific columns (beamforming's top-streams slice) must fall back
// to the scalar reference when this returns false.
func (r *SVDBatchResult) TopSeparated(k, lead int, gapTol float64) bool {
	smax := r.S[k]
	if smax <= 0 {
		return false
	}
	end := lead
	if end > r.C-1 {
		end = r.C - 1
	}
	for j := 1; j <= end; j++ {
		if r.S[(j-1)*r.Count+k]-r.S[j*r.Count+k] <= gapTol*smax {
			return false
		}
	}
	return true
}

// VColsInto writes columns [lo,hi) of matrix k's right singular vector
// matrix into dst (reshaped to C×(hi−lo)).
func (r *SVDBatchResult) VColsInto(dst *Matrix, k, lo, hi int) {
	c := r.C
	dst.Rows, dst.Cols = c, hi-lo
	for i := 0; i < c; i++ {
		for j := lo; j < hi; j++ {
			dst.Data[i*(hi-lo)+(j-lo)] = r.V[(i*c+j)*r.Count+k]
		}
	}
}

// SVDBatch computes the right singular vectors and singular values of
// every matrix in mats (all Rows×C with the same C; Rows may vary) in one
// batched pass, via the eigendecomposition of the Gram matrices MᴴM:
// the eigenvectors of MᴴM are the right singular vectors and σⱼ = √λⱼ.
//
// Numerical caveat, by construction of the Gram product: singular values
// below ~√ε·σmax (≈1e-8 relative) are computed with full-scale absolute
// error, so rank decisions with tolerances tighter than that must treat
// this as a screening pass — NullspaceDim only certifies a decision the
// scalar reference is structurally guaranteed to agree with, and callers
// fall back to the scalar SVD for anything it cannot certify.
func SVDBatch(ws *Workspace, mats []*Matrix) SVDBatchResult {
	count := len(mats)
	if count == 0 {
		return SVDBatchResult{}
	}
	c := mats[0].Cols
	b := ws.HermitianBatch(c, count)
	for k, m := range mats {
		b.SetGram(k, m)
	}
	eig := EigHermitianBatch(ws, &b)
	out := SVDBatchResult{C: c, Count: count, S: eig.Vals, V: eig.Vecs}
	for i, l := range out.S {
		if l > 0 {
			out.S[i] = math.Sqrt(l)
		} else {
			out.S[i] = 0
		}
	}
	return out
}
