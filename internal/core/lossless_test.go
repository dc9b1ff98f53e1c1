package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
	"time"

	"copa/internal/channel"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// The lossless pins record every field an exchange over the default
// Perfect medium reports, for fixed seeds, so a change to the exchange
// machinery that moves any of them — a byte of control traffic, a
// nanosecond of airtime, a leader election, a bit of a negotiated
// transmission — fails here first. The float-valued fields (predicted
// throughputs, negotiated powers and precoders, measured rates) enter
// through an FNV-64a digest of their IEEE bits. Re-capture after a
// deliberate change with
//
//	REGEN_PIN=1 go test ./internal/core -run 'TestLossless' -v

// sessionPin is one session's record; the integer fields are exact.
type sessionPin struct {
	leader       int
	kind         strategy.Kind
	concurrent   bool
	fallback     bool
	cause        FailCause
	controlBytes int
	retries      int
	airtime      time.Duration
	digest       uint64 // Outcome floats and both Tx
}

// roundPin is one cluster round's record.
type roundPin struct {
	leader, follower int
	concurrent       bool
	fallback         bool
	txops            int
	digest           uint64 // TputBps
}

var losslessSessionPins = map[string][]sessionPin{
	"1x1/max": {
		{0, 1, false, false, 0, 278, 0, 182666, 0x316971c75d233b0e},
		{0, 1, false, false, 0, 278, 0, 182666, 0xb38f64ac580884cf},
		{0, 1, false, false, 0, 278, 0, 182666, 0xc27e1a911d3f7296},
		{1, 1, false, false, 0, 277, 0, 182333, 0x68b6cce7c0f80356},
		{1, 1, false, false, 0, 277, 0, 182333, 0x359d5a598fd527c8},
		{0, 1, false, false, 0, 277, 0, 182333, 0x39018db17ba829bb},
	},
	"1x1/fair": {
		{0, 1, false, false, 0, 278, 0, 182666, 0x316971c75d233b0e},
		{0, 1, false, false, 0, 278, 0, 182666, 0xb38f64ac580884cf},
		{0, 1, false, false, 0, 278, 0, 182666, 0xc27e1a911d3f7296},
		{1, 1, false, false, 0, 277, 0, 182333, 0x68b6cce7c0f80356},
		{1, 1, false, false, 0, 277, 0, 182333, 0x359d5a598fd527c8},
		{0, 1, false, false, 0, 277, 0, 182333, 0x39018db17ba829bb},
	},
	"4x2/max": {
		{0, 4, true, false, 0, 2513, 0, 927665, 0xdf6b8fa57beae4b7},
		{0, 4, true, false, 0, 2507, 0, 925665, 0x6c5cb838a5f0203e},
		{0, 4, true, false, 0, 2522, 0, 930665, 0x8bafe85c4af44781},
		{1, 1, false, false, 0, 1104, 0, 457999, 0xec6077f34b284da1},
		{1, 1, false, false, 0, 1104, 0, 457999, 0x2be34b822654f708},
		{0, 1, false, false, 0, 1104, 0, 457999, 0x9d206ae9ae25d2f9},
	},
	"4x2/fair": {
		{0, 4, true, false, 0, 2513, 0, 927665, 0xdf6b8fa57beae4b7},
		{0, 4, true, false, 0, 2507, 0, 925665, 0x6c5cb838a5f0203e},
		{0, 4, true, false, 0, 2522, 0, 930665, 0x8bafe85c4af44781},
		{1, 1, false, false, 0, 1104, 0, 457999, 0xec6077f34b284da1},
		{1, 1, false, false, 0, 1104, 0, 457999, 0x2be34b822654f708},
		{0, 1, false, false, 0, 1104, 0, 457999, 0x9d206ae9ae25d2f9},
	},
	"3x2/max": {
		{0, 4, true, false, 0, 1478, 0, 582666, 0x79ac03d2417d75f9},
		{0, 4, true, false, 0, 1478, 0, 582666, 0x37df7a35c5f044e0},
		{0, 4, true, false, 0, 1478, 0, 582666, 0x9f5309b8d6ef1ed3},
		{1, 1, false, false, 0, 868, 0, 379333, 0xc979764f62a37274},
		{1, 1, false, false, 0, 868, 0, 379333, 0x6b84e6817101161c},
		{0, 1, false, false, 0, 868, 0, 379333, 0x9bb85626e256ac28},
	},
	"3x2/fair": {
		{0, 4, true, false, 0, 1478, 0, 582666, 0x79ac03d2417d75f9},
		{0, 1, false, false, 0, 868, 0, 379333, 0xbb61b053a6265b78},
		{0, 4, true, false, 0, 1478, 0, 582666, 0x9f5309b8d6ef1ed3},
		{1, 1, false, false, 0, 868, 0, 379333, 0xc979764f62a37274},
		{1, 1, false, false, 0, 868, 0, 379333, 0x6b84e6817101161c},
		{0, 1, false, false, 0, 868, 0, 379333, 0x9bb85626e256ac28},
	},
}

var losslessRoundPins = map[string][]roundPin{
	"pairs=3/deference=false": {
		{2, 0, false, false, 2, 0x71d6c4da89bd97b9},
		{1, 0, true, false, 1, 0xfc65d23e58abf50e},
		{2, 0, false, false, 2, 0x71d6c4da89bd97b9},
		{1, 0, true, false, 1, 0xffa265eca6fc640b},
		{2, 0, false, false, 2, 0x71d6c4da89bd97b9},
	},
	"pairs=3/deference=true": {
		{2, 0, false, false, 2, 0x71d6c4da89bd97b9},
		{1, -1, false, false, 1, 0x4fa4cff13b81905},
		{2, 0, false, false, 2, 0x71d6c4da89bd97b9},
		{1, -1, false, false, 1, 0x3ec6c864431fb34},
		{2, 0, false, false, 2, 0x71d6c4da89bd97b9},
	},
	"pairs=2/deference=true": {
		{1, 0, false, false, 2, 0x3e305d68a0b062c7},
		{0, 1, false, false, 2, 0x732b839a5be21948},
		{1, 0, false, false, 2, 0xe30c3a78cac37376},
		{0, 1, false, false, 2, 0xf8d2cd71e2220e9f},
		{0, 1, false, false, 2, 0x38ab64a2d7cbb614},
	},
}

// fmaFused reports whether this build contracts a*b+c into a fused
// multiply-add (GOAMD64=v3, arm64). Digests pin float bits, which only
// the unfused codegen reproduces; the integer fields are compared on
// every build.
var fmaFused = func() bool {
	a, b, c := 0x1p27+1, 0x1p27-1, -0x1p54
	return a*b+c != 0
}()

type floatDigest struct {
	h interface{ Write([]byte) (int, error) }
}

func (d floatDigest) f(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		d.h.Write(buf[:])
	}
}

func (d floatDigest) tx(tx *precoding.Transmission) {
	if tx == nil {
		d.f(-1)
		return
	}
	for _, row := range tx.PowerMW {
		d.f(row...)
	}
	d.f(tx.TxNoiseVarMW...)
	for _, m := range tx.Precoder.PerSubcarrier {
		for _, c := range m.Data {
			d.f(real(c), imag(c))
		}
	}
}

func pinSession(s *Session) sessionPin {
	h := fnv.New64a()
	d := floatDigest{h}
	d.f(s.Outcome.Predicted[0], s.Outcome.Predicted[1], s.Outcome.PerClient[0], s.Outcome.PerClient[1])
	d.tx(s.Tx[0])
	d.tx(s.Tx[1])
	return sessionPin{
		leader: s.LeaderIdx, kind: s.Outcome.Kind, concurrent: s.Concurrent,
		fallback: s.Fallback, cause: s.Cause, controlBytes: s.ControlBytes,
		retries: s.Retries, airtime: s.ExchangeAirtime, digest: h.Sum64(),
	}
}

func pinRound(r *RoundResult) roundPin {
	h := fnv.New64a()
	floatDigest{h}.f(r.TputBps...)
	return roundPin{
		leader: r.Leader, follower: r.Follower, concurrent: r.Concurrent,
		fallback: r.Fallback, txops: r.TXOPs, digest: h.Sum64(),
	}
}

func checkPins[P comparable](t *testing.T, name string, got, want []P, exact func(P) P) {
	t.Helper()
	if os.Getenv("REGEN_PIN") != "" {
		t.Logf("%q: %#v,", name, got)
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if fmaFused {
			g, w = exact(g), exact(w)
		}
		if g != w {
			t.Errorf("%s[%d] = %+v, want %+v", name, i, g, w)
		}
	}
}

// TestLosslessSessionsPinned runs three exchanges on each of two pairs
// per scenario and mode, re-sounding and advancing a TXOP between them
// so the leader election, the CSI estimates and the verdict vary.
func TestLosslessSessionsPinned(t *testing.T) {
	for _, sc := range []channel.Scenario{channel.Scenario1x1, channel.Scenario4x2, channel.Scenario3x2} {
		for _, mode := range []strategy.Mode{strategy.ModeMax, strategy.ModeFair} {
			name := fmt.Sprintf("%s/%v", sc.Name, mode)
			var got []sessionPin
			for _, seed := range []int64{61, 62} {
				p := newTestPair(t, seed, sc, mode)
				for i := 0; i < 3; i++ {
					p.MeasureCSI()
					s, err := p.RunExchange(4000)
					if err != nil {
						t.Fatalf("%s seed %d exchange %d: %v", name, seed, i, err)
					}
					got = append(got, pinSession(s))
					p.Advance(4*time.Millisecond, math.Inf(1))
				}
			}
			checkPins(t, name, got, losslessSessionPins[name], func(p sessionPin) sessionPin { p.digest = 0; return p })
		}
	}
}

// TestLosslessRoundsPinned pins Cluster.RunRound over a few rounds of a
// three-pair cluster, with and without deference, and of a two-pair one
// with deference, whose rounds are all sequential: each sits both pairs
// out, so the next election must clear that before it picks a follower.
func TestLosslessRoundsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		pairs     int
		deference bool
	}{{63, 3, false}, {63, 3, true}, {60, 2, true}} {
		name := fmt.Sprintf("pairs=%d/deference=%v", tc.pairs, tc.deference)
		src := rng.New(tc.seed)
		dep, err := channel.NewMultiDeployment(src.Split(1), channel.Scenario4x2, tc.pairs)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCluster(dep, channel.DefaultImpairments(), 30*time.Millisecond, strategy.ModeFair, src.Split(2))
		c.Deference = tc.deference
		var got []roundPin
		for r := 0; r < 5; r++ {
			c.MeasureCSI()
			res, err := c.RunRound()
			if err != nil {
				t.Fatalf("%s round %d: %v", name, r, err)
			}
			got = append(got, pinRound(res))
			c.clk += time.Duration(res.TXOPs) * 4 * time.Millisecond
		}
		checkPins(t, name, got, losslessRoundPins[name], func(p roundPin) roundPin { p.digest = 0; return p })
	}
}
