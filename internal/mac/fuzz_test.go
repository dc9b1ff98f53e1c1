package mac

import (
	"bytes"
	"runtime"
	"testing"

	"copa/internal/ofdm"
)

// Native fuzz targets for the wire-format parsers: any byte string must
// either fail cleanly or round-trip losslessly. Run with
// `go test -fuzz FuzzITS ./internal/mac` for a real campaign; under plain
// `go test` the seed corpus below executes as regression tests.

// addTransportSeeds enriches a target's corpus with the frames a lossy
// medium actually produces: truncations of a valid marshal (mid-header,
// mid-body, one byte short) and frames whose header survives intact but
// whose body no longer matches the CRC.
func addTransportSeeds(f *testing.F, valid []byte) {
	f.Helper()
	for _, n := range []int{1, headerBytes - 1, headerBytes, len(valid) / 2, len(valid) - 1} {
		if n > 0 && n < len(valid) {
			f.Add(append([]byte(nil), valid[:n]...))
		}
	}
	if len(valid) > headerBytes {
		crcFail := append([]byte(nil), valid...)
		crcFail[headerBytes] ^= 0x01 // first body byte: header stays valid
		f.Add(crcFail)
	}
}

func FuzzITSInitParse(f *testing.F) {
	f.Add([]byte{})
	f.Add((&ITSInit{Leader: Addr{1}, Client: Addr{2}, AirtimeUS: 4000}).Marshal())
	seed := (&ITSInit{AirtimeUS: 1}).Marshal()
	seed[len(seed)-1] ^= 0xff
	f.Add(seed)
	addTransportSeeds(f, (&ITSInit{Leader: Addr{3}, Client: Addr{4}, AirtimeUS: 2000}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalITSInit(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted frame does not round-trip")
		}
	})
}

func FuzzITSReqParse(f *testing.F) {
	f.Add([]byte{})
	f.Add((&ITSReq{CSIToClient1: []byte{1, 2}, CSIToClient2: []byte{3}}).Marshal())
	addTransportSeeds(f, (&ITSReq{
		Leader:       Addr{1},
		Follower:     Addr{2},
		AirtimeUS:    4000,
		CSIToClient1: []byte{9, 8, 7, 6},
		CSIToClient2: []byte{5, 4, 3},
	}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalITSReq(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted frame does not round-trip")
		}
	})
}

func FuzzITSAckParse(f *testing.F) {
	f.Add([]byte{})
	f.Add((&ITSAck{Decision: DecideSequential}).Marshal())
	f.Add((&ITSAck{
		Decision:         DecideConcurrent,
		FollowerPrecoder: []byte{1},
		FollowerPowerMW:  [][]float64{{0.5}},
	}).Marshal())
	addTransportSeeds(f, (&ITSAck{
		Leader:           Addr{1},
		Follower:         Addr{2},
		Decision:         DecideConcurrent,
		FollowerPrecoder: []byte{1, 2, 3, 4},
		FollowerPowerMW:  [][]float64{{0.25, 0.75}},
	}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalITSAck(data)
		if err != nil {
			return
		}
		// Power values quantize to µW on the wire, so compare the
		// re-marshaled form for byte equality.
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted frame does not round-trip")
		}
	})
}

// FuzzUnmarshalSubcarrierMap: any byte string must fail cleanly or
// parse to a map that marshals back to the same bytes, and the parser's
// allocations must not grow with the input (the map has a fixed size, so
// a long frame must be refused, not copied).
func FuzzUnmarshalSubcarrierMap(f *testing.F) {
	used := make([]bool, ofdm.NumSubcarriers)
	for k := range used {
		used[k] = k%3 != 0
	}
	m, err := NewSubcarrierMap(used)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m.Marshal())
	f.Add(m.Marshal()[:len(m)-1])
	f.Add(append(m.Marshal(), 0))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, len(m)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got SubcarrierMap
		var err error
		const limit = 1 << 10
		if n := allocatedBytes(limit, func() { got, err = UnmarshalSubcarrierMap(data) }); n > limit {
			t.Fatalf("parsing %d bytes allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatalf("accepted map %x marshals to %x", data, got.Marshal())
		}
		if c := got.Count(); c < 0 || c > ofdm.NumSubcarriers {
			t.Fatalf("count %d", c)
		}
	})
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
