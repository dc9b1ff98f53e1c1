package csi

import (
	"bytes"
	"compress/flate"
	"io"
	"math"
	"runtime"
	"testing"

	"copa/internal/channel"
	"copa/internal/rng"
)

// FuzzDecodeDelta: arbitrary delta frames applied to a fixed base must
// fail cleanly (ErrCorrupt / ErrStaleEpoch) or reconstruct structurally
// valid matrices — never panic. Seeds cover the empty frame, a valid
// frame, a truncated frame, and a stale-epoch frame.
func FuzzDecodeDelta(f *testing.F) {
	base := testLink(21, 2, 4)
	drifted := base.Clone()
	drifted.EvolveRho(rng.New(3), 0.99)
	good, err := EncodeDelta(base.Subcarriers, drifted.Subcarriers, 7, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)/2])
	stale, err := EncodeDelta(base.Subcarriers, drifted.Subcarriers, 6, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stale)
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x55
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, err := DecodeDelta(data, base.Subcarriers, 7)
		if err != nil {
			return
		}
		if len(rec) != len(base.Subcarriers) {
			t.Fatalf("reconstructed %d matrices from %d-subcarrier base", len(rec), len(base.Subcarriers))
		}
		for _, m := range rec {
			if m.Rows != 2 || m.Cols != 4 || len(m.Data) != 8 {
				t.Fatal("reconstructed inconsistent shapes")
			}
		}
	})
}

// FuzzDecodeMatrices: arbitrary payloads must fail cleanly or decode into
// structurally valid matrices — never panic, never hang. Seeds cover the
// empty payload, a valid and a bit-flipped link, a phase anchor of 1e30
// that once spun the quantizer's wrap loop forever, and 64 MiB of
// deflated zeros that once inflated in full before any check.
func FuzzDecodeMatrices(f *testing.F) {
	f.Add([]byte{})
	f.Add(hugePhaseFrame(f))
	f.Add(zerosFrame(f))
	l := testLink(1, 2, 4)
	good, err := EncodeLink(l)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x55
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := DecodeMatrices(data)
		if err != nil {
			return
		}
		if len(ms) == 0 {
			t.Fatal("decoded empty series without error")
		}
		rows, cols := ms[0].Rows, ms[0].Cols
		for _, m := range ms {
			if m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols {
				t.Fatal("decoded inconsistent shapes")
			}
		}
	})
}

// storedDeflate frames raw as DEFLATE stored blocks: a valid stream the
// decoder inflates back to raw without the fuzzer having to get the
// Huffman layer right.
func storedDeflate(raw []byte) []byte {
	out := make([]byte, 0, len(raw)+5*(len(raw)/0xffff+1))
	for {
		n := min(len(raw), 0xffff)
		final := byte(0)
		if n == len(raw) {
			final = 1
		}
		out = append(out, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		out = append(out, raw[:n]...)
		raw = raw[n:]
		if final == 1 {
			return out
		}
	}
}

// allocatedBytes returns the heap bytes fn allocates. TotalAlloc is
// process-wide and the fuzzing engine allocates on its own goroutines,
// so a reading above limit is retried and the least of three kept: a
// parser that really over-allocates does so on every run.
func allocatedBytes(limit uint64, fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3 && least > limit; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeLink fuzzes the inflated payload of a channel-estimate frame
// (framed with storedDeflate, so mutations reach the header, anchors and
// delta codes). An accepted frame must decode to finite entries and
// re-encode to a frame that decodes to the same shape, and the decoder
// may allocate no more than a constant plus a multiple of the payload it
// was sent: a size field it did not check against the payload would
// allocate far more. Seeds: a real link's payload, its truncation, and
// an amplitude anchor of 1e30 dB that once decoded to infinite entries.
func FuzzDecodeLink(f *testing.F) {
	good, err := EncodeLink(testLink(1, 2, 4))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(good)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	huge, err := io.ReadAll(flate.NewReader(bytes.NewReader(anchorFrame(f, Profile4, 3, func(int) (float32, float32) { return 1e30, 0 }))))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(huge)
	f.Fuzz(func(t *testing.T, raw []byte) {
		frame := storedDeflate(raw)
		var l *channel.Link
		var err error
		limit := 128*uint64(len(raw)) + 256<<10
		if n := allocatedBytes(limit, func() { l, err = DecodeLink(frame) }); n > limit {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(raw), n)
		}
		if err != nil {
			return
		}
		if !finite(l.MeanGainLinear) {
			t.Fatalf("mean gain %v", l.MeanGainLinear)
		}
		for k, m := range l.Subcarriers {
			for _, v := range m.Data {
				if !finite(real(v)) || !finite(imag(v)) {
					t.Fatalf("subcarrier %d: entry %v", k, v)
				}
			}
		}
		again, err := EncodeLink(l)
		if err != nil {
			t.Fatalf("decoded link does not re-encode: %v", err)
		}
		back, err := DecodeLink(again)
		if err != nil {
			t.Fatalf("re-encoded link does not decode: %v", err)
		}
		if back.NRx() != l.NRx() || back.NTx() != l.NTx() || len(back.Subcarriers) != len(l.Subcarriers) {
			t.Fatalf("round trip changed the shape: %dx%d×%d → %dx%d×%d",
				l.NRx(), l.NTx(), len(l.Subcarriers), back.NRx(), back.NTx(), len(back.Subcarriers))
		}
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
