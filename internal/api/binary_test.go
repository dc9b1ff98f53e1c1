package api

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// goldenRequest/goldenResponse are fixed wire values whose encoded
// bytes are pinned below: the codec's layout is a cross-binary,
// cross-version contract (coparouter and copaload decode what
// copaserve encodes), so any layout change must be deliberate and
// show up here as a failing golden.
var goldenRequest = AllocateRequest{
	Scenario:     "4x2",
	Seed:         -7,
	Mode:         "fair",
	Impairments:  "default",
	CSIAgeMS:     12.5,
	MultiDecoder: true,
	Session:      true,
	TimeMS:       250,
}

var goldenResponse = AllocateResponse{
	Cached:       true,
	AgeBucket:    2,
	Epoch:        3,
	ValidUntilMS: 93.75,
	Selected: Outcome{
		Strategy:     "Conc-Null",
		Concurrent:   true,
		PerClientBps: [2]float64{1e6, 2e6},
		PredictedBps: [2]float64{1.5e6, 2.5e6},
		AggregateBps: 3e6,
	},
	Outcomes: map[string]Outcome{
		"CSMA": {
			Strategy:     "CSMA",
			PerClientBps: [2]float64{5e5, 5e5},
			PredictedBps: [2]float64{5e5, 5e5},
			AggregateBps: 1e6,
		},
		"Conc-Null": {
			Strategy:     "Conc-Null",
			Concurrent:   true,
			SDA:          true,
			PerClientBps: [2]float64{1e6, 2e6},
			PredictedBps: [2]float64{1.5e6, 2.5e6},
			AggregateBps: 3e6,
		},
	},
}

const (
	goldenRequestHex = "0103347832f9ffffffffffffff04666169720764656661756c74000000000000" +
		"2940030000000000406f40"
	goldenResponseHex = "0101020300000000000000000000000070574009436f6e632d4e756c6c010000" +
		"000080842e410000000080843e410000000060e3364100000000d01243410000" +
		"000060e34641020443534d410443534d41000000000080841e410000000080841e" +
		"410000000080841e410000000080841e410000000080842e4109436f6e632d4e" +
		"756c6c09436f6e632d4e756c6c030000000080842e410000000080843e410000" +
		"000060e3364100000000d01243410000000060e34641"
)

func TestBinaryRequestGolden(t *testing.T) {
	data, err := EncodeRequestBinary(goldenRequest)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenRequestHex {
		t.Errorf("request encoding drifted:\n got %s\nwant %s", got, goldenRequestHex)
	}
	back, err := DecodeRequestBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != goldenRequest {
		t.Errorf("round trip: got %+v want %+v", back, goldenRequest)
	}
}

func TestBinaryResponseGolden(t *testing.T) {
	data, err := EncodeResponseBinary(goldenResponse)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenResponseHex {
		t.Errorf("response encoding drifted:\n got %s\nwant %s", got, goldenResponseHex)
	}
	back, err := DecodeResponseBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenResponse) {
		t.Errorf("round trip: got %+v want %+v", back, goldenResponse)
	}
	// Deterministic bytes: a second encode of the same map must match
	// (keys are sorted on the wire).
	again, err := EncodeResponseBinary(goldenResponse)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("encoding is not deterministic across calls")
	}
}

func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	data, err := EncodeRequestBinary(goldenRequest)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic or succeed.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeRequestBinary(data[:n]); err == nil {
			t.Fatalf("truncated request of %d bytes decoded", n)
		}
	}
	if _, err := DecodeRequestBinary(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeRequestBinary([]byte{99}); err == nil {
		t.Error("unknown version accepted")
	}

	rdata, err := EncodeResponseBinary(goldenResponse)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(rdata); n += 7 {
		if _, err := DecodeResponseBinary(rdata[:n]); err == nil {
			t.Fatalf("truncated response of %d bytes decoded", n)
		}
	}
}

// FuzzDecodeRequestBinary: any body must fail cleanly or decode to a
// request that re-encodes, and decodes again to the same request. Floats
// are compared bit for bit through the encoding, so NaN payloads count.
func FuzzDecodeRequestBinary(f *testing.F) {
	golden, err := hex.DecodeString(goldenRequestHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		ar, err := DecodeRequestBinary(data)
		if err != nil {
			return
		}
		enc, err := EncodeRequestBinary(ar)
		if err != nil {
			t.Fatalf("decoded request %+v does not re-encode: %v", ar, err)
		}
		back, err := DecodeRequestBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		again, err := EncodeRequestBinary(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the request: %+v -> %+v (%v)", ar, back, err)
		}
	})
}

// FuzzDecodeResponseBinary is FuzzDecodeRequestBinary for responses.
func FuzzDecodeResponseBinary(f *testing.F) {
	golden, err := hex.DecodeString(goldenResponseHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponseBinary(data)
		if err != nil {
			return
		}
		enc, err := EncodeResponseBinary(resp)
		if err != nil {
			t.Fatalf("decoded response %+v does not re-encode: %v", resp, err)
		}
		back, err := DecodeResponseBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded response rejected: %v", err)
		}
		again, err := EncodeResponseBinary(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the response: %+v -> %+v (%v)", resp, back, err)
		}
	})
}

func TestIsBinary(t *testing.T) {
	for header, want := range map[string]bool{
		"":                                       false,
		"application/json":                       false,
		ContentTypeBinary:                        true,
		ContentTypeBinary + "; q=0.9":            true,
		"application/json, " + ContentTypeBinary: true,
		"text/plain":                             false,
	} {
		if got := IsBinary(header); got != want {
			t.Errorf("IsBinary(%q) = %v, want %v", header, got, want)
		}
	}
}
