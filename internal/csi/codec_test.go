package csi

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"copa/internal/channel"
	"copa/internal/linalg"
	"copa/internal/precoding"
	"copa/internal/rng"
)

func testLink(seed int64, nRx, nTx int) *channel.Link {
	return channel.NewLink(rng.New(seed), nRx, nTx, channel.DBToLinear(-60))
}

func TestRoundTripStructure(t *testing.T) {
	l := testLink(1, 2, 4)
	data, err := EncodeLink(l)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeLink(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.NRx() != 2 || rec.NTx() != 4 || len(rec.Subcarriers) != len(l.Subcarriers) {
		t.Fatalf("shape mismatch: %dx%d, %d subcarriers", rec.NRx(), rec.NTx(), len(rec.Subcarriers))
	}
}

func TestRoundTripFidelity(t *testing.T) {
	// The codec must reconstruct channels well enough to precode from:
	// relative error below −15 dB across a variety of links.
	for seed := int64(0); seed < 10; seed++ {
		l := testLink(seed, 2, 4)
		data, err := EncodeLink(l)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeLink(data)
		if err != nil {
			t.Fatal(err)
		}
		errDB := ReconstructionErrorDB(l.Subcarriers, rec.Subcarriers)
		if errDB > -15 {
			t.Errorf("seed %d: reconstruction error %.1f dB, want ≤ −15", seed, errDB)
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	// Must beat the paper's reported 2× on testbed-like channels.
	var totalRaw, totalComp int
	for seed := int64(0); seed < 10; seed++ {
		l := testLink(100+seed, 2, 4)
		data, err := EncodeLink(l)
		if err != nil {
			t.Fatal(err)
		}
		totalRaw += RawSize(2, 4, len(l.Subcarriers))
		totalComp += len(data)
	}
	ratio := Ratio(totalRaw, totalComp)
	if ratio < 2 {
		t.Errorf("compression ratio %.2f, want ≥ 2", ratio)
	}
	t.Logf("mean compression ratio: %.2f", ratio)
}

func TestPrecoderRoundTrip(t *testing.T) {
	l := testLink(7, 2, 4)
	p, err := precoding.Beamforming(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePrecoder(p.PerSubcarrier)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeMatrices(data)
	if err != nil {
		t.Fatal(err)
	}
	errDB := ReconstructionErrorDB(p.PerSubcarrier, rec)
	if errDB > -12 {
		t.Errorf("precoder reconstruction error %.1f dB", errDB)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeMatrices(nil); err == nil {
		t.Error("nil payload should fail")
	}
	if _, err := DecodeMatrices([]byte{1, 2, 3}); err == nil {
		t.Error("garbage should fail")
	}
	// Truncated valid payload.
	l := testLink(9, 1, 1)
	data, err := EncodeLink(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMatrices(data[:len(data)/3]); err == nil {
		t.Error("truncated payload should fail")
	}
}

// anchorFrame builds a DEFLATEd payload carrying one 1×1 entry over nsc
// subcarriers, every delta code zero, with anchor(k) written at each
// anchor position: the frame a peer needs to reach the quantizers with
// an arbitrary anchor.
func anchorFrame(tb testing.TB, profile, nsc int, anchor func(k int) (ampDB, phase float32)) []byte {
	tb.Helper()
	var raw bytes.Buffer
	binary.Write(&raw, binary.LittleEndian, uint16(magic))
	raw.Write([]byte{version, byte(profile), 1, 1})
	binary.Write(&raw, binary.LittleEndian, uint16(nsc))
	for k := 0; k < nsc; k++ {
		switch {
		case k == 0 || profile == Profile8 && k%anchorInterval == 0:
			a, p := anchor(k)
			binary.Write(&raw, binary.LittleEndian, a)
			binary.Write(&raw, binary.LittleEndian, p)
		case profile == Profile8:
			raw.Write([]byte{128, 128})
		default:
			raw.WriteByte(0x88)
		}
	}
	return deflated(tb, raw.Bytes())
}

// deflated compresses a raw payload the way the encoder does.
func deflated(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestCompression)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// zerosFrame is 64 MiB of zeros, deflated: a 64 KB frame that inflates
// a thousandfold.
func zerosFrame(tb testing.TB) []byte {
	tb.Helper()
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestCompression)
	if err != nil {
		tb.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for range 64 {
		if _, err := w.Write(zeros); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// TestDecodeBoundsInflatedSize: a frame that inflates past maxRawBytes
// is ErrCorrupt, and the decoder stops inflating at the cap instead of
// allocating whatever the sender compressed. The largest series a
// supported scenario sends (4 antennas a side, Profile8) still decodes.
func TestDecodeBoundsInflatedSize(t *testing.T) {
	frame := zerosFrame(t)
	const bound = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeMatrices(frame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > bound {
		t.Errorf("decoding a %d-byte frame allocated %d bytes, bound %d", len(frame), n, bound)
	}

	largest, err := EncodePrecoder(testLink(5, 4, 4).Subcarriers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMatrices(largest); err != nil {
		t.Errorf("4x4 Profile8 series: %v", err)
	}
}

// hugePhaseFrame has a phase anchor of 1e30, where subtracting 2π no
// longer changes the value.
func hugePhaseFrame(tb testing.TB) []byte {
	return anchorFrame(tb, Profile4, 2, func(int) (float32, float32) { return 0, 1e30 })
}

// TestDecodeRejectsOutOfRangeAnchors: a non-finite anchor, or a phase
// anchor beyond what an encoder writes, is ErrCorrupt on every decoder
// that reaches the quantizers. Each decode runs under a deadline so a
// wrap loop that never ends fails the test instead of hanging it.
func TestDecodeRejectsOutOfRangeAnchors(t *testing.T) {
	if maxPhaseAnchor <= math.Pi {
		t.Fatalf("maxPhaseAnchor %v must exceed math.Pi", maxPhaseAnchor)
	}
	pi32 := float32(math.Pi)
	above := math.Nextafter32(pi32, float32(math.Inf(1)))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	first := func(a, p float32) func(int) (float32, float32) {
		return func(int) (float32, float32) { return a, p }
	}
	base := testLink(1, 1, 1).Subcarriers
	delta, err := EncodeDelta(base, base, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	header := delta[:deltaHeaderLen]
	cases := []struct {
		name  string
		frame []byte
	}{
		{"huge phase", hugePhaseFrame(t)},
		{"huge negative phase on a Profile8 re-anchor", anchorFrame(t, Profile8, anchorInterval+1, func(k int) (float32, float32) {
			if k == anchorInterval {
				return 0, -1e30
			}
			return 0, 0
		})},
		{"phase just above float32(pi)", anchorFrame(t, Profile4, 2, first(0, above))},
		{"infinite phase", anchorFrame(t, Profile4, 2, first(0, inf))},
		{"NaN phase", anchorFrame(t, Profile4, 2, first(0, nan))},
		{"infinite amplitude", anchorFrame(t, Profile4, 2, first(inf, 0))},
		{"NaN amplitude", anchorFrame(t, Profile4, 2, first(nan, 0))},
	}
	for _, c := range cases {
		decoders := map[string]func() error{
			"DecodeMatrices": func() error { _, err := DecodeMatrices(c.frame); return err },
			"DecodeLink":     func() error { _, err := DecodeLink(c.frame); return err },
			"DecodeDelta": func() error {
				_, _, err := DecodeDelta(append(append([]byte(nil), header...), c.frame...), base, 7)
				return err
			},
		}
		for name, decode := range decoders {
			done := make(chan error, 1)
			go func() { done <- decode() }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s, %s: err = %v, want ErrCorrupt", c.name, name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s, %s: decode did not return within 5 s", c.name, name)
			}
		}
	}
	// The extreme phases an encoder writes still decode.
	for _, p := range []float32{pi32, -pi32} {
		if _, err := DecodeMatrices(anchorFrame(t, Profile8, anchorInterval+1, first(-60, p))); err != nil {
			t.Errorf("phase anchor %v: %v", p, err)
		}
	}
}

// TestDecodeRejectsUnfilledDimensions: a header alone cannot make the
// decoder allocate the series it claims (255×255×65535 would be 68 GB).
func TestDecodeRejectsUnfilledDimensions(t *testing.T) {
	var raw bytes.Buffer
	binary.Write(&raw, binary.LittleEndian, uint16(magic))
	raw.Write([]byte{version, Profile4, 16, 16})
	binary.Write(&raw, binary.LittleEndian, uint16(4096))
	frame := deflated(t, raw.Bytes())
	var err error
	allocs := testing.AllocsPerRun(5, func() { _, err = DecodeMatrices(frame) })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if allocs >= 4096 {
		t.Errorf("%v allocations decoding a %d-byte frame that claims 4096 subcarriers and carries none", allocs, len(frame))
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := EncodeMatrices(nil); err == nil {
		t.Error("empty series should fail")
	}
	ragged := []*linalg.Matrix{linalg.NewMatrix(2, 2), linalg.NewMatrix(3, 2)}
	if _, err := EncodeMatrices(ragged); err == nil {
		t.Error("ragged series should fail")
	}
}

func TestZeroChannel(t *testing.T) {
	ms := []*linalg.Matrix{linalg.NewMatrix(2, 2), linalg.NewMatrix(2, 2)}
	data, err := EncodeMatrices(ms)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeMatrices(data)
	if err != nil {
		t.Fatal(err)
	}
	for k := range rec {
		if rec[k].MaxAbs() > 1e-6 {
			t.Errorf("zero channel reconstructed nonzero: %g", rec[k].MaxAbs())
		}
	}
}

func TestQuantizerPhaseWrap(t *testing.T) {
	q := newPhaseQuantizer(3.0, 7)
	// Target just past −π: the wrapped delta is small and positive.
	code := q.encode(-3.1)
	if code < 0 {
		t.Errorf("wrap-aware delta should be positive, code=%d", code)
	}
	if q.value < -math.Pi || q.value > math.Pi {
		t.Errorf("quantizer value %g outside [-π, π]", q.value)
	}
}

func TestQuickRoundTripNeverCorrupts(t *testing.T) {
	f := func(seed int64, rxRaw, txRaw uint8) bool {
		nRx := 1 + int(rxRaw%4)
		nTx := 1 + int(txRaw%4)
		l := channel.NewLink(rng.New(seed), nRx, nTx, channel.DBToLinear(-55))
		data, err := EncodeLink(l)
		if err != nil {
			return false
		}
		rec, err := DecodeLink(data)
		if err != nil {
			return false
		}
		return rec.NRx() == nRx && rec.NTx() == nTx &&
			ReconstructionErrorDB(l.Subcarriers, rec.Subcarriers) < -10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNullingFromCompressedCSIStillWorks(t *testing.T) {
	// End-to-end: a follower's CSI travels compressed inside an ITS
	// frame; nulling computed from the decompressed CSI must still
	// suppress interference substantially.
	src := rng.New(33)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-55))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-58))

	data, err := EncodeLink(cross)
	if err != nil {
		t.Fatal(err)
	}
	crossRec, err := DecodeLink(data)
	if err != nil {
		t.Fatal(err)
	}
	p, err := precoding.Nulling(own, crossRec, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := precoding.ResidualAtVictim(cross, p, []float64{1, 1})
	var mean float64
	for _, r := range res {
		mean += r
	}
	mean /= float64(len(res))
	unnulled := channel.DBToLinear(-58) * 4
	redDB := channel.LinearToDB(mean / unnulled)
	if redDB > -10 {
		t.Errorf("nulling from compressed CSI only reduces %.1f dB", redDB)
	}
}

func BenchmarkEncodeLink4x2(b *testing.B) {
	l := testLink(50, 2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeLink(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeLink4x2(b *testing.B) {
	l := testLink(51, 2, 4)
	data, err := EncodeLink(l)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeLink(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeReusedDeflaterMatchesFresh: frames written through a
// recycled DEFLATE writer are byte-identical to a fresh writer's, in
// either profile and after the writer has encoded something else.
func TestEncodeReusedDeflaterMatchesFresh(t *testing.T) {
	a, b := testLink(3, 2, 4), testLink(4, 4, 4)
	for _, enc := range []func([]*linalg.Matrix) ([]byte, error){EncodeMatrices, EncodePrecoder} {
		var frames [][]byte
		for _, l := range []*channel.Link{a, b, a} {
			f, err := enc(l.Subcarriers)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		if !bytes.Equal(frames[0], frames[2]) {
			t.Fatal("re-encoding the same series gave different bytes")
		}
		for i, f := range frames {
			raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(f)))
			if err != nil {
				t.Fatal(err)
			}
			if fresh := deflated(t, raw); !bytes.Equal(f, fresh) {
				t.Fatalf("frame %d: %d bytes through the recycled writer, %d through a fresh one", i, len(f), len(fresh))
			}
		}
	}
}
