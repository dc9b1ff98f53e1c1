// Package csi implements COPA's channel-state compression (§3.1): channel
// matrices and precoding matrices are delta-modulated across subcarriers —
// amplitude (in dB) and phase encoded separately with an adaptive step —
// and the result is further compressed with a lossless Lempel-Ziv stage
// (DEFLATE). The paper reports an average compression ratio of two against
// its raw wire format; this codec is measured the same way (see Ratio and
// the tests) and its output feeds the ITS frame sizes used by the MAC
// overhead model.
package csi

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"sync"

	"copa/internal/channel"
	"copa/internal/linalg"
)

// Wire format constants.
const (
	magic   = 0xC0FA
	version = 1

	// Profile4 encodes each delta pair as one byte (4-bit amplitude +
	// 4-bit phase): the default for channel estimates. Profile8 spends a
	// full byte per component and re-anchors with full-precision samples
	// every anchorInterval subcarriers — needed for precoding matrices,
	// whose columns can swap discontinuously where singular values cross.
	Profile4 = 4
	Profile8 = 8

	// anchorInterval is the Profile8 re-anchoring period.
	anchorInterval = 13

	// maxRawBytes caps the inflated payload a decoder reads. The largest
	// series a supported scenario sends is a 4×2 Profile8 precoder over
	// 52 subcarriers, about 1 KiB inflated, and even a 16×16 one stays
	// under 33 KiB, so no valid frame comes near the cap; a frame that
	// inflates past it is ErrCorrupt instead of costing the decoder
	// whatever the sender compressed.
	maxRawBytes = 64 << 10

	// ampFloorDB clamps log-amplitudes of (near-)zero entries, and
	// ampCeilDB those of huge ones. No channel or precoder entry comes
	// near the ceiling; it keeps every entry a peer's anchors and deltas
	// can reconstruct, and the mean gain over the largest frame, finite.
	ampFloorDB = -140.0
	ampCeilDB  = 140.0

	// Adaptive quantizer parameters: signed deltas whose step grows
	// when the quantizer saturates and shrinks when deltas are small,
	// tracking both smooth and fast-fading channel profiles.
	stepGrow      = 1.6
	stepShrink    = 0.8
	ampInitStep   = 0.75 // dB
	ampMinStep    = 0.01
	ampMaxStep    = 12.0
	phaseInitStep = 0.1 // radians
	phaseMinStep  = 0.002
	phaseMaxStep  = 1.2
)

// deflaters recycles the encoder's DEFLATE writers. A writer at
// BestCompression carries about 1 MB of match-finder tables, and one
// reset onto a new destination writes exactly what a new one would.
var deflaters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, flate.BestCompression)
	if err != nil {
		panic(err) // BestCompression is a valid level
	}
	return w
}}

// ErrCorrupt is returned when a payload fails structural validation.
var ErrCorrupt = errors.New("csi: corrupt payload")

// quantizer is the adaptive delta quantizer state for one component
// stream (amplitude or phase of one antenna pair).
type quantizer struct {
	step, min, max float64
	value          float64
	levels         int  // quantized delta ∈ [−levels, +levels]
	wrap           bool // phase streams wrap modulo 2π
}

func newAmpQuantizer(first float64, levels int) *quantizer {
	step := ampInitStep
	if levels > 7 {
		step = ampInitStep / 8
	}
	return &quantizer{step: step, min: ampMinStep, max: ampMaxStep, value: first, levels: levels}
}

func newPhaseQuantizer(first float64, levels int) *quantizer {
	step := phaseInitStep
	if levels > 7 {
		step = phaseInitStep / 8
	}
	return &quantizer{step: step, min: phaseMinStep, max: phaseMaxStep, value: first, levels: levels, wrap: true}
}

// encode quantizes the delta to the next sample, updates internal state,
// and returns the 4-bit code.
func (q *quantizer) encode(next float64) int {
	delta := next - q.value
	if q.wrap {
		for delta > math.Pi {
			delta -= 2 * math.Pi
		}
		for delta < -math.Pi {
			delta += 2 * math.Pi
		}
	}
	code := int(math.Round(delta / q.step))
	if code > q.levels {
		code = q.levels
	} else if code < -q.levels {
		code = -q.levels
	}
	q.apply(code)
	return code
}

// apply advances the reconstruction by a code and adapts the step; both
// encoder and decoder run it, keeping them in lockstep.
func (q *quantizer) apply(code int) {
	q.value += float64(code) * q.step
	if q.wrap {
		for q.value > math.Pi {
			q.value -= 2 * math.Pi
		}
		for q.value < -math.Pi {
			q.value += 2 * math.Pi
		}
	}
	mag := code
	if mag < 0 {
		mag = -mag
	}
	switch {
	case mag >= q.levels-1:
		q.step *= stepGrow
	case mag <= q.levels/7:
		q.step *= stepShrink
	}
	if q.step < q.min {
		q.step = q.min
	} else if q.step > q.max {
		q.step = q.max
	}
}

// ampPhase splits a complex entry into clamped dB amplitude and phase.
func ampPhase(v complex128) (ampDB, phase float64) {
	a := cmplx.Abs(v)
	if a <= 0 {
		return ampFloorDB, 0
	}
	ampDB = max(ampFloorDB, min(20*math.Log10(a), ampCeilDB))
	return ampDB, cmplx.Phase(v)
}

// EncodeMatrices serializes a per-subcarrier matrix series with adaptive
// delta modulation (Profile4) followed by DEFLATE. Use EncodePrecoder for
// precoding matrices, whose faster spectral variation needs Profile8.
func EncodeMatrices(ms []*linalg.Matrix) ([]byte, error) {
	return encodeMatrices(ms, Profile4)
}

// EncodePrecoder serializes a precoder's per-subcarrier matrices at the
// higher-rate Profile8.
func EncodePrecoder(ms []*linalg.Matrix) ([]byte, error) {
	return encodeMatrices(ms, Profile8)
}

func encodeMatrices(ms []*linalg.Matrix, profile int) ([]byte, error) {
	if len(ms) == 0 {
		return nil, errors.New("csi: empty series")
	}
	rows, cols := ms[0].Rows, ms[0].Cols
	for _, m := range ms {
		if m.Rows != rows || m.Cols != cols {
			return nil, errors.New("csi: inconsistent matrix shapes")
		}
	}
	if rows > 255 || cols > 255 || len(ms) > 65535 {
		return nil, errors.New("csi: dimensions exceed wire format")
	}

	var raw bytes.Buffer
	binary.Write(&raw, binary.LittleEndian, uint16(magic))
	raw.WriteByte(version)
	raw.WriteByte(uint8(profile))
	raw.WriteByte(uint8(rows))
	raw.WriteByte(uint8(cols))
	binary.Write(&raw, binary.LittleEndian, uint16(len(ms)))
	levels := 7
	if profile == Profile8 {
		levels = 127
	}

	// Per antenna pair: full-precision anchors, then one byte per
	// remaining subcarrier (amp nibble | phase nibble).
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			a0, p0 := ampPhase(ms[0].At(r, c))
			binary.Write(&raw, binary.LittleEndian, float32(a0))
			binary.Write(&raw, binary.LittleEndian, float32(p0))
			qa := newAmpQuantizer(a0, levels)
			qp := newPhaseQuantizer(p0, levels)
			for k := 1; k < len(ms); k++ {
				a, p := ampPhase(ms[k].At(r, c))
				if profile == Profile8 && k%anchorInterval == 0 {
					binary.Write(&raw, binary.LittleEndian, float32(a))
					binary.Write(&raw, binary.LittleEndian, float32(p))
					qa = newAmpQuantizer(a, levels)
					qp = newPhaseQuantizer(p, levels)
					continue
				}
				ca := qa.encode(a)
				cp := qp.encode(p)
				if profile == Profile8 {
					raw.WriteByte(byte(ca + 128))
					raw.WriteByte(byte(cp + 128))
				} else {
					raw.WriteByte(byte((ca+8)<<4 | (cp + 8)))
				}
			}
		}
	}

	var out bytes.Buffer
	w := deflaters.Get().(*flate.Writer)
	defer deflaters.Put(w)
	w.Reset(&out)
	if _, err := w.Write(raw.Bytes()); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	mEncodes.Inc()
	mPayloadBytes.ObserveInt(out.Len())
	return out.Bytes(), nil
}

// DecodeMatrices reverses EncodeMatrices. The reconstruction is lossy (the
// quantizer's job) but structurally exact.
func DecodeMatrices(data []byte) ([]*linalg.Matrix, error) {
	ms, err := decodeMatrices(data)
	if err != nil {
		mDecodeFailures.Inc()
		return nil, err
	}
	mDecodes.Inc()
	return ms, nil
}

func decodeMatrices(data []byte) ([]*linalg.Matrix, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	raw, err := io.ReadAll(io.LimitReader(r, maxRawBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(raw) > maxRawBytes {
		return nil, fmt.Errorf("%w: payload inflates past %d bytes", ErrCorrupt, maxRawBytes)
	}
	buf := bytes.NewReader(raw)
	var mg uint16
	if err := binary.Read(buf, binary.LittleEndian, &mg); err != nil || mg != magic {
		return nil, ErrCorrupt
	}
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(buf, hdr); err != nil {
		return nil, ErrCorrupt
	}
	if hdr[0] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, hdr[0])
	}
	profile := int(hdr[1])
	if profile != Profile4 && profile != Profile8 {
		return nil, fmt.Errorf("%w: unknown profile %d", ErrCorrupt, profile)
	}
	levels := 7
	if profile == Profile8 {
		levels = 127
	}
	rows, cols := int(hdr[2]), int(hdr[3])
	var nsc uint16
	if err := binary.Read(buf, binary.LittleEndian, &nsc); err != nil {
		return nil, ErrCorrupt
	}
	if rows == 0 || cols == 0 || nsc == 0 {
		return nil, ErrCorrupt
	}
	// Each antenna pair carries at least an 8-byte anchor and one byte per
	// further subcarrier. Checking that before allocating keeps a header
	// alone from claiming a 255×255×65535 series.
	if int64(buf.Len()) < int64(rows*cols)*(8+int64(nsc)-1) {
		return nil, ErrCorrupt
	}
	ms := make([]*linalg.Matrix, nsc)
	for k := range ms {
		ms[k] = linalg.NewMatrix(rows, cols)
	}
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			a0, p0, err := readAnchor(buf)
			if err != nil {
				return nil, err
			}
			qa := newAmpQuantizer(a0, levels)
			qp := newPhaseQuantizer(p0, levels)
			ms[0].Set(rr, cc, polar(a0, p0))
			for k := 1; k < int(nsc); k++ {
				if profile == Profile8 && k%anchorInterval == 0 {
					aa, pp, err := readAnchor(buf)
					if err != nil {
						return nil, err
					}
					qa = newAmpQuantizer(aa, levels)
					qp = newPhaseQuantizer(pp, levels)
					ms[k].Set(rr, cc, polar(aa, pp))
					continue
				}
				if profile == Profile8 {
					ba, err := buf.ReadByte()
					if err != nil {
						return nil, ErrCorrupt
					}
					bp, err := buf.ReadByte()
					if err != nil {
						return nil, ErrCorrupt
					}
					qa.apply(int(ba) - 128)
					qp.apply(int(bp) - 128)
				} else {
					b, err := buf.ReadByte()
					if err != nil {
						return nil, ErrCorrupt
					}
					qa.apply(int(b>>4) - 8)
					qp.apply(int(b&0x0f) - 8)
				}
				ms[k].Set(rr, cc, polar(qa.value, qp.value))
			}
		}
	}
	return ms, nil
}

// maxPhaseAnchor is the largest phase anchor an encoder writes:
// float32(π), which rounds above math.Pi.
const maxPhaseAnchor = float64(float32(math.Pi))

// readAnchor reads one full-precision (amplitude dB, phase) anchor. A
// non-finite value or a phase beyond ±maxPhaseAnchor is ErrCorrupt: the
// phase quantizer's wrap loops step by 2π, so a huge anchor would spin
// them for ages, or forever once subtracting 2π no longer changes it.
func readAnchor(buf *bytes.Reader) (ampDB, phase float64, err error) {
	var a, p float32
	if err := binary.Read(buf, binary.LittleEndian, &a); err != nil {
		return 0, 0, ErrCorrupt
	}
	if err := binary.Read(buf, binary.LittleEndian, &p); err != nil {
		return 0, 0, ErrCorrupt
	}
	ampDB, phase = float64(a), float64(p)
	if math.IsNaN(ampDB) || math.IsInf(ampDB, 0) || math.IsNaN(phase) || math.Abs(phase) > maxPhaseAnchor {
		return 0, 0, fmt.Errorf("%w: anchor (%g dB, %g rad) out of range", ErrCorrupt, ampDB, phase)
	}
	return ampDB, phase, nil
}

func polar(ampDB, phase float64) complex128 {
	if ampDB <= ampFloorDB {
		return 0
	}
	return cmplx.Rect(math.Pow(10, min(ampDB, ampCeilDB)/20), phase)
}

// EncodeLink compresses a channel estimate's frequency response.
func EncodeLink(l *channel.Link) ([]byte, error) { return EncodeMatrices(l.Subcarriers) }

// DecodeLink reconstructs a channel estimate from EncodeLink output. Taps
// are not recovered (the estimate lives in the frequency domain) and the
// mean gain is recomputed from the reconstruction.
func DecodeLink(data []byte) (*channel.Link, error) {
	ms, err := DecodeMatrices(data)
	if err != nil {
		return nil, err
	}
	var sum float64
	n := 0
	for _, m := range ms {
		for _, v := range m.Data {
			sum += real(v)*real(v) + imag(v)*imag(v)
			n++
		}
	}
	return &channel.Link{Subcarriers: ms, MeanGainLinear: sum / float64(n)}, nil
}

// RawSize returns the size in bytes of the uncompressed reference format
// the compression ratio is measured against: 16-bit I and Q per entry, as
// produced by a WARP-class radio's channel sounder.
func RawSize(rows, cols, subcarriers int) int { return rows * cols * subcarriers * 4 }

// Ratio returns raw/compressed as a compression ratio.
func Ratio(rawBytes, compressedBytes int) float64 {
	if compressedBytes == 0 {
		return 0
	}
	return float64(rawBytes) / float64(compressedBytes)
}

// ReconstructionErrorDB measures codec fidelity: the total squared error
// between original and reconstruction relative to the original's power, in
// dB (more negative is better).
func ReconstructionErrorDB(orig, rec []*linalg.Matrix) float64 {
	var errPow, sigPow float64
	for k := range orig {
		d := rec[k].Sub(orig[k])
		errPow += sq(d.FrobeniusNorm())
		sigPow += sq(orig[k].FrobeniusNorm())
	}
	if sigPow == 0 {
		return 0
	}
	return 10 * math.Log10(errPow/sigPow)
}

func sq(x float64) float64 { return x * x }
