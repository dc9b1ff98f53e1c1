package linalg

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when a matrix is singular (or numerically so)
// and cannot be inverted or solved against.
var ErrSingular = errors.New("linalg: matrix is singular")

// errNotSquare is shared by the LU-based entry points so the error path
// stays allocation-free.
var errNotSquare = errors.New("linalg: LU requires a square matrix")

// errSolveDim is the Solve dimension-mismatch error.
var errSolveDim = errors.New("linalg: Solve dimension mismatch")

// luWS performs an LU decomposition with partial pivoting on a ws-carved
// copy of m, returning the combined LU factors and the row permutation.
func luWS(ws *Workspace, m *Matrix) (*Matrix, []int, error) {
	if m.Rows != m.Cols {
		return nil, nil, errNotSquare
	}
	n := m.Rows
	a := ws.Clone(m)
	perm := ws.Ints(n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in this column.
		pivot, pmag := col, cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if mag := cmplx.Abs(a.At(r, col)); mag > pmag {
				pivot, pmag = r, mag
			}
		}
		if pmag == 0 {
			return nil, nil, ErrSingular
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				a.Data[col*n+c], a.Data[pivot*n+c] = a.Data[pivot*n+c], a.Data[col*n+c]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			a.Set(r, col, f)
			for c := col + 1; c < n; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(col, c))
			}
		}
	}
	return a, perm, nil
}

// Solve returns x such that m·x = b, for square m.
func (m *Matrix) Solve(b []complex128) ([]complex128, error) {
	var ws Workspace
	x, err := m.SolveWS(&ws, b)
	if err != nil {
		return nil, err
	}
	return append([]complex128(nil), x...), nil
}

// SolveWS is Solve with all scratch and result storage carved from ws:
// allocation-free once ws has warmed up. The returned slice lives in ws
// (see Workspace ownership rules).
func (m *Matrix) SolveWS(ws *Workspace, b []complex128) ([]complex128, error) {
	if m.Rows != len(b) {
		return nil, errSolveDim
	}
	// The MMSE SINR kernels solve against 1×1 and 2×2 interference
	// covariances thousands of times per evaluation; unrolled paths that
	// replay luWS's exact operation sequence (same pivot comparison, same
	// f = a10·(1/a00) reciprocal-multiply, same substitution expressions)
	// produce bit-identical results without the clone/permutation carves.
	if m.Rows == m.Cols {
		switch m.Rows {
		case 1:
			a00 := m.Data[0]
			if cmplx.Abs(a00) == 0 {
				return nil, ErrSingular
			}
			x := ws.Complex(1)
			x[0] = b[0] / a00
			return x, nil
		case 2:
			a00, a01 := m.Data[0], m.Data[1]
			a10, a11 := m.Data[2], m.Data[3]
			b0, b1 := b[0], b[1]
			pmag := cmplx.Abs(a00)
			if mag := cmplx.Abs(a10); mag > pmag {
				a00, a01, a10, a11 = a10, a11, a00, a01
				b0, b1 = b1, b0
				pmag = mag
			}
			if pmag == 0 {
				return nil, ErrSingular
			}
			inv := 1 / a00
			f := a10 * inv
			u11 := a11 - f*a01
			if cmplx.Abs(u11) == 0 {
				return nil, ErrSingular
			}
			x := ws.Complex(2)
			x1 := (b1 - f*b0) / u11
			x[0] = (b0 - a01*x1) / a00
			x[1] = x1
			return x, nil
		}
	}
	f, perm, err := luWS(ws, m)
	if err != nil {
		return nil, err
	}
	n := m.Rows
	x := ws.Complex(n)
	// Forward substitution with permuted b (L has unit diagonal).
	for i := 0; i < n; i++ {
		s := b[perm[i]]
		for j := 0; j < i; j++ {
			s -= f.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution against U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.At(i, j) * x[j]
		}
		x[i] = s / f.At(i, i)
	}
	return x, nil
}

// Inverse returns m⁻¹ for square m.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, errors.New("linalg: Inverse requires a square matrix")
	}
	n := m.Rows
	var ws Workspace
	f, perm, err := luWS(&ws, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(n, n)
	col := make([]complex128, n)
	e := make([]complex128, n)
	for k := 0; k < n; k++ {
		for i := range e {
			e[i] = 0
		}
		e[k] = 1
		for i := 0; i < n; i++ {
			s := e[perm[i]]
			for j := 0; j < i; j++ {
				s -= f.At(i, j) * col[j]
			}
			col[i] = s
		}
		for i := n - 1; i >= 0; i-- {
			s := col[i]
			for j := i + 1; j < n; j++ {
				s -= f.At(i, j) * col[j]
			}
			col[i] = s / f.At(i, i)
		}
		out.SetCol(k, col)
	}
	return out, nil
}

// Cholesky returns the lower-triangular L with m = L·Lᴴ for a Hermitian
// positive-definite m.
func (m *Matrix) Cholesky() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, errors.New("linalg: Cholesky requires a square matrix")
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * cmplx.Conj(l.At(j, k))
			}
			if i == j {
				re := real(sum)
				if re <= 0 {
					return nil, errors.New("linalg: matrix not positive definite")
				}
				l.Set(i, i, complex(math.Sqrt(re), 0))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}
