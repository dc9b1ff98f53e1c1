package precoding

import (
	"fmt"
	"math"

	"copa/internal/channel"
	"copa/internal/linalg"
)

// Workspace is the scratch arena for the allocation-free precoding paths:
// the *WS SINR kernels and the *Into precoder builders. It embeds
// linalg.Workspace, so one arena backs both layers and the linalg
// ownership rules apply unchanged: values returned by *WS functions live
// in the workspace until the owner calls Reset, *WS functions never Reset,
// and a Workspace must not be shared between goroutines. A goroutine that
// needs scratch beside another owns a workspace of its own: the helper
// goroutines strategy.Evaluator.EvaluateAll borrows each keep one for
// their lifetime and never carve from the evaluator's.
//
// The *Into builders are the exception: they treat the workspace as
// exclusively theirs for the duration of the call (resetting it per
// subcarrier) and return heap-backed results — callers must not hold
// workspace-carved values across such a call.
type Workspace struct {
	linalg.Workspace
}

// scaledWS is Precoder.Scaled with the result carved from ws.
func (p *Precoder) scaledWS(ws *Workspace, k int, powersMW []float64) *linalg.Matrix {
	if len(powersMW) != p.Streams {
		panic("precoding: power vector length mismatch")
	}
	m := ws.Clone(p.PerSubcarrier[k])
	for c, pw := range powersMW {
		amp := complex(math.Sqrt(math.Max(0, pw)), 0)
		for r := 0; r < m.Rows; r++ {
			m.Set(r, c, m.At(r, c)*amp)
		}
	}
	return m
}

// covarianceWS carves this transmission's received covariance at a
// receiver with true channel h (Nr×Nt) on subcarrier k from ws. Same
// arithmetic as covariance.
func (t *Transmission) covarianceWS(ws *Workspace, h *linalg.Matrix, k int) *linalg.Matrix {
	scaled := t.Precoder.scaledWS(ws, k, t.PowerMW[k])
	g := ws.Mul(h, scaled) // Nr×Ns effective columns, power already applied
	cov := ws.Mul(g, ws.H(g))
	if v := t.TxNoiseVarMW[k]; v > 0 {
		hh := ws.Mul(h, ws.H(h))
		cv := complex(v, 0)
		for i := range cov.Data {
			cov.Data[i] += hh.Data[i] * cv
		}
	}
	return cov
}

// interferenceCovariance builds the per-subcarrier receive covariance R
// that StreamSINRsAndCoefficientsWS solves against: own signal plus own
// TX noise plus (optional) cross interference plus thermal noise,
// preserving the exact floating-point operation order of the heap
// implementation. Returns R and the own signal columns a = h·scaled.
func interferenceCovariance(ws *Workspace, h *linalg.Matrix, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64, k int) (r, a *linalg.Matrix) {
	nr := h.Rows
	scaled := ownTx.Precoder.scaledWS(ws, k, ownTx.PowerMW[k])
	a = ws.Mul(h, scaled) // Nr×Ns signal columns
	r = ws.Mul(a, ws.H(a))
	if v := ownTx.TxNoiseVarMW[k]; v > 0 {
		hh := ws.Mul(h, ws.H(h))
		cv := complex(v, 0)
		for i := range r.Data {
			r.Data[i] += hh.Data[i] * cv
		}
	}
	if cross != nil && crossTx != nil {
		cov := crossTx.covarianceWS(ws, cross.Subcarriers[k], k)
		for i := range r.Data {
			r.Data[i] += cov.Data[i]
		}
	}
	for i := 0; i < nr; i++ {
		r.Set(i, i, r.At(i, i)+complex(noisePerSCMW, 0))
	}
	return r, a
}

// StreamSINRsWS is StreamSINRs with all scratch and result storage carved
// from ws: allocation-free once ws has warmed up. The returned matrix
// lives in ws (see Workspace ownership rules).
func StreamSINRsWS(ws *Workspace, own *channel.Link, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64) [][]float64 {
	return StreamSINRsAndCoefficientsWS(ws, own, ownTx, cross, crossTx, noisePerSCMW, nil)
}

// StreamSINRsAndCoefficientsWS computes one state's stream SINRs (as
// StreamSINRsWS) and, when coefs is non-nil, its SINR coefficients in
// one pass: per subcarrier it builds R and the signal columns once, and
// per stream it builds Qₛ = R − aₛaₛᴴ once and solves it for aₛ (the
// SINR, on streams not dropped) and for the unit-power column uₛ
// (the coefficient).
//
// Coefficient [k][s] is the SINR per milliwatt that stream s would see
// on subcarrier k, holding every other stream (own and interfering) at
// its current power: SINRₛ(p) = p · coef[k][s] while the others are
// fixed — the quantity COPA's per-stream allocation step (Fig. 6)
// needs. Unlike the SINR it is defined on dropped subcarriers too; a
// singular Qₛ gives coefficient 0 (and a Dropped SINR), and negative
// results clamp to 0. coefs must be nSC × streams and is written in
// place; the returned SINR matrix lives in ws.
func StreamSINRsAndCoefficientsWS(ws *Workspace, own *channel.Link, ownTx *Transmission, cross *channel.Link, crossTx *Transmission, noisePerSCMW float64, coefs [][]float64) [][]float64 {
	nSC := len(own.Subcarriers)
	out := ws.FloatRows(nSC, ownTx.Precoder.Streams)
	for k := 0; k < nSC; k++ {
		h := own.Subcarriers[k]
		nr := h.Rows
		r, a := interferenceCovariance(ws, h, ownTx, cross, crossTx, noisePerSCMW, k)
		var unit *linalg.Matrix
		if coefs != nil {
			unit = ws.Mul(h, ownTx.Precoder.PerSubcarrier[k]) // unit-power columns
		}

		sinrs := out[k]
		for s := range sinrs {
			dropped := ownTx.PowerMW[k][s] <= 0
			if dropped {
				sinrs[s] = Dropped
				if coefs == nil {
					continue
				}
			}
			ai := ws.Col(a, s)
			// Qₛ = R − aₛaₛᴴ: everything except stream s's own signal.
			q := ws.Clone(r)
			for ri := 0; ri < nr; ri++ {
				for ci := 0; ci < nr; ci++ {
					q.Set(ri, ci, q.At(ri, ci)-ai[ri]*conj(ai[ci]))
				}
			}
			if !dropped {
				sinrs[s] = solveGain(ws, q, ai, Dropped)
			}
			if coefs != nil {
				coefs[k][s] = solveGain(ws, q, ws.Col(unit, s), 0)
			}
		}
	}
	return out
}

// solveGain returns vᴴ·Q⁻¹·v clamped at 0, or onSingular when Q is
// singular.
func solveGain(ws *Workspace, q *linalg.Matrix, v []complex128, onSingular float64) float64 {
	x, err := q.SolveWS(&ws.Workspace, v)
	if err != nil {
		return onSingular
	}
	g := real(linalg.Dot(v, x))
	if g < 0 {
		g = 0
	}
	return g
}

// reusePrecoder prepares dst (allocating it if nil) to hold an
// nSC-subcarrier precoder with the given stream count.
func reusePrecoder(dst *Precoder, streams, nSC int) *Precoder {
	if dst == nil {
		dst = &Precoder{}
	}
	dst.Streams = streams
	if len(dst.PerSubcarrier) != nSC {
		dst.PerSubcarrier = make([]*linalg.Matrix, nSC)
	}
	return dst
}

// storeMatrix copies src (typically workspace-carved) into the heap-backed
// matrix into, reusing its storage when shapes match.
func storeMatrix(into, src *linalg.Matrix) *linalg.Matrix {
	if into == nil || into.Rows != src.Rows || into.Cols != src.Cols {
		return src.Clone()
	}
	copy(into.Data, src.Data)
	return into
}

// svGapTol is the relative singular-value gap below which the batched
// Gram-eig path considers neighbouring singular directions entangled and
// routes the subcarrier to the scalar SVD reference instead. At gaps
// above ~1e-4·σmax the Gram eigenvectors are accurate to ≲1e-8, well
// inside the kernel-equivalence tolerance (DESIGN §13).
const svGapTol = 1e-4

// BeamformingInto is Beamforming with scratch carved from ws and the
// result written into dst (allocated if nil, matrix storage reused when
// shapes match). The caller must not hold any ws-carved values across
// this call (the workspace is reset internally); the returned precoder is
// heap-backed and independent of ws.
//
// All subcarriers run through the batched Gram-eig kernels
// (linalg.SVDBatch) in one dispatch; subcarriers whose leading singular
// directions the batch cannot certify (near-tied singular values) fall
// back to the per-subcarrier scalar reference, so results match
// BeamformingIntoScalar within the documented kernel-equivalence
// tolerance on every input.
func BeamformingInto(ws *Workspace, dst *Precoder, csi *channel.Link, streams int) (*Precoder, error) {
	if streams < 1 || streams > csi.NTx() || streams > csi.NRx() {
		return nil, fmt.Errorf("precoding: cannot send %d streams over a %dx%d channel",
			streams, csi.NRx(), csi.NTx())
	}
	nSC := len(csi.Subcarriers)
	dst = reusePrecoder(dst, streams, nSC)
	ws.Reset()
	res := linalg.SVDBatch(&ws.Workspace, csi.Subcarriers)
	nt := csi.NTx()
	fallback := ws.Ints(nSC)
	nFall := 0
	pc := ws.Matrix(nt, streams)
	for k := 0; k < nSC; k++ {
		if !res.TopSeparated(k, streams, svGapTol) {
			fallback[nFall] = k
			nFall++
			continue
		}
		res.VColsInto(pc, k, 0, streams)
		canonicalize(pc)
		dst.PerSubcarrier[k] = storeMatrix(dst.PerSubcarrier[k], pc)
	}
	for _, k := range snapshotFallback(fallback[:nFall]) {
		ws.Reset()
		beamformSubcarrierScalar(ws, dst, csi, streams, k)
	}
	return dst, nil
}

// snapshotFallback copies a ws-carved fallback index list to the heap.
// The scalar fallback loop resets the workspace per subcarrier, which
// would let the scalar kernels' own carves reuse — and clear — the
// chunk backing the list while it is still being ranged over, silently
// skipping every fallback subcarrier after the first. The fallback path
// is rare (near-tied singular values), so the copy is off the hot path;
// nil when empty keeps the common all-certified case allocation-free.
func snapshotFallback(fallback []int) []int {
	if len(fallback) == 0 {
		return nil
	}
	return append([]int(nil), fallback...)
}

// beamformSubcarrierScalar computes subcarrier k of a beamforming
// precoder via the scalar SVD reference and stores it into dst.
func beamformSubcarrierScalar(ws *Workspace, dst *Precoder, csi *channel.Link, streams, k int) {
	_, _, v := csi.Subcarriers[k].SVDWS(&ws.Workspace)
	idx := ws.Ints(streams)
	for i := range idx {
		idx[i] = i
	}
	pc := ws.ColsSlice(v, idx)
	canonicalize(pc)
	dst.PerSubcarrier[k] = storeMatrix(dst.PerSubcarrier[k], pc)
}

// NullingInto is Nulling with scratch carved from ws and the result
// written into dst (allocated if nil, matrix storage reused when shapes
// match). The caller must not hold any ws-carved values across this call
// (the workspace is reset internally); the returned precoder is
// heap-backed and independent of ws.
//
// Both SVDs of the nulling construction run batched: one SVDBatch over
// the victim channels determines the nullspaces (only where
// linalg.NullspaceDim can certify the rank decision the scalar reference
// would make — full-row-rank victims, the ubiquitous case), and a second
// SVDBatch over the effective in-nullspace channels picks the beamforming
// directions. The final precoder columns are basis-independent — they are
// the top singular directions of the own channel restricted to the
// nullspace subspace — so certified subcarriers agree with
// NullingIntoScalar to the documented tolerance even though the two paths
// use different orthonormal nullspace bases internally. Uncertified or
// gap-deficient subcarriers take the scalar path.
func NullingInto(ws *Workspace, dst *Precoder, own, cross *channel.Link, streams int) (*Precoder, error) {
	if own.NTx() != cross.NTx() {
		return nil, fmt.Errorf("precoding: own/cross antenna mismatch %d vs %d", own.NTx(), cross.NTx())
	}
	if streams < 1 || streams > own.NRx() {
		return nil, fmt.Errorf("precoding: cannot deliver %d streams to a %d-antenna client",
			streams, own.NRx())
	}
	nSC := len(own.Subcarriers)
	dst = reusePrecoder(dst, streams, nSC)
	ws.Reset()

	nt := own.NTx()
	maxRank := cross.NRx()
	if nt < maxRank {
		maxRank = nt
	}
	res := linalg.SVDBatch(&ws.Workspace, cross.Subcarriers)

	fallback := ws.Ints(nSC)
	nFall := 0
	certified := ws.Ints(nSC)
	nCert := 0
	nulls := ws.MatrixPtrs(nSC)
	hes := ws.MatrixPtrs(nSC)
	for k := 0; k < nSC; k++ {
		dim, ok := res.NullspaceDim(k, maxRank, rankTol)
		if !ok {
			fallback[nFall] = k
			nFall++
			continue
		}
		if dim < streams {
			return nil, fmt.Errorf("%w: nullspace dim %d < %d streams (nTx=%d, victim antennas=%d)",
				ErrOverconstrained, dim, streams, own.NTx(), cross.NRx())
		}
		null := ws.Matrix(nt, dim)
		res.VColsInto(null, k, nt-dim, nt)
		nulls[k] = null
		hes[nCert] = ws.Mul(own.Subcarriers[k], null)
		certified[nCert] = k
		nCert++
	}

	if nCert > 0 {
		heRes := linalg.SVDBatch(&ws.Workspace, hes[:nCert])
		for idx := 0; idx < nCert; idx++ {
			k := certified[idx]
			if !heRes.TopSeparated(idx, streams, svGapTol) {
				fallback[nFall] = k
				nFall++
				continue
			}
			dim := nulls[k].Cols
			v := ws.Matrix(dim, streams)
			heRes.VColsInto(v, idx, 0, streams)
			pc := ws.Mul(nulls[k], v)
			canonicalize(pc)
			dst.PerSubcarrier[k] = storeMatrix(dst.PerSubcarrier[k], pc)
		}
	}

	for _, k := range snapshotFallback(fallback[:nFall]) {
		ws.Reset() // batch results are dead past this point; stores are heap-backed
		if err := nullSubcarrierScalar(ws, dst, own, cross, streams, k); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// nullSubcarrierScalar computes subcarrier k of a nulling precoder via
// the scalar reference (NullspaceWS + SVDWS) and stores it into dst.
func nullSubcarrierScalar(ws *Workspace, dst *Precoder, own, cross *channel.Link, streams, k int) error {
	null := cross.Subcarriers[k].NullspaceWS(&ws.Workspace, rankTol)
	if null.Cols < streams {
		return fmt.Errorf("%w: nullspace dim %d < %d streams (nTx=%d, victim antennas=%d)",
			ErrOverconstrained, null.Cols, streams, own.NTx(), cross.NRx())
	}
	// Effective channel inside the nullspace, then beamform there.
	he := ws.Mul(own.Subcarriers[k], null)
	_, _, v := he.SVDWS(&ws.Workspace)
	idx := ws.Ints(streams)
	for i := range idx {
		idx[i] = i
	}
	pc := ws.Mul(null, ws.ColsSlice(v, idx))
	canonicalize(pc)
	dst.PerSubcarrier[k] = storeMatrix(dst.PerSubcarrier[k], pc)
	return nil
}
