package csi

import (
	"testing"

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
