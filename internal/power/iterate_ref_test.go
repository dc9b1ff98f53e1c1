package power

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/precoding"
	"copa/internal/rng"
)

// iterateThreePass is iterate as it stood before each state shared one
// SINR pass: every snapshot computes the SINRs twice (once for the
// per-stream rates, once for the joint goodput) and deep-copies each
// improvement, and every sweep recomputes the coefficients of the state
// it starts from. The coefficients come from the fused kernel called on
// that state at sweep time; precoding's kernel-equivalence suite pins
// that call bit for bit to the separate coefficient pass the iteration
// used to make. The obs metrics are left out.
func iterateThreePass(senders []SenderCSI, cfg Config) *Result {
	n := len(senders)
	nSC := len(senders[0].Own.Subcarriers)
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 12
	}
	ws := &precoding.Workspace{}

	tx := make([]*precoding.Transmission, n)
	cur := make([][][]float64, n)
	next := make([][][]float64, n)
	for i, s := range senders {
		streams := s.Precoder.Streams
		cur[i] = newPowerGrid(nSC, streams)
		next[i] = newPowerGrid(nSC, streams)
		per := s.BudgetMW / float64(nSC*streams)
		for _, row := range cur[i] {
			for st := range row {
				row[st] = per
			}
		}
		tx[i] = precoding.NewTransmission(s.Precoder, cur[i], cfg.Impairments)
	}
	hints := cfg.WarmDrops
	warmHint := func(i, st int) int {
		if hints == nil || i >= len(hints) || st >= len(hints[i]) {
			return -1
		}
		return hints[i][st]
	}
	setHint := func(i, st, d int) {
		if hints == nil || i >= len(hints) || st >= len(hints[i]) {
			return
		}
		hints[i][st] = d
	}
	crossFor := func(i int) (*channel.Link, *precoding.Transmission) {
		if n == 1 {
			return nil, nil
		}
		j := 1 - i
		if senders[j].Cross == nil {
			return nil, nil
		}
		return senders[j].Cross, tx[j]
	}
	streamRates := func(own *channel.Link, t *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission) []ofdm.StreamRate {
		sinrs := precoding.StreamSINRsWS(ws, own, t, cross, crossTx, cfg.NoisePerSCMW)
		rates := make([]ofdm.StreamRate, t.Precoder.Streams)
		col := ws.Float64s(len(sinrs))
		for s := range rates {
			for k := range sinrs {
				col[k] = sinrs[k][s]
			}
			rates[s] = ofdm.BestRate(col)
		}
		return rates
	}
	evaluate := func() ([][]ofdm.StreamRate, []float64) {
		rates := make([][]ofdm.StreamRate, n)
		goodput := make([]float64, n)
		for i, s := range senders {
			cl, ct := crossFor(i)
			rates[i] = streamRates(s.Own, tx[i], cl, ct)
			goodput[i] = GoodputForWS(ws, s.Own, tx[i], cl, ct, cfg.NoisePerSCMW)
		}
		return rates, goodput
	}

	best := &Result{}
	snapshot := func(iter int, converged bool) (improved bool) {
		rates, goodput := evaluate()
		var agg float64
		for _, g := range goodput {
			agg += g
		}
		if best.Tx == nil || agg > best.Aggregate() {
			improved = true
			cp := make([]*precoding.Transmission, n)
			for i := range tx {
				powers := make([][]float64, nSC)
				for k := range powers {
					powers[k] = append([]float64(nil), tx[i].PowerMW[k]...)
				}
				cp[i] = precoding.NewTransmission(senders[i].Precoder, powers, cfg.Impairments)
			}
			best.Tx = cp
			best.StreamRates = rates
			best.Goodput = goodput
		}
		best.Iterations = iter
		best.Converged = converged
		return improved
	}
	snapshot(0, false)
	sinceBest := 0

	for iter := 1; iter <= cfg.MaxIters; iter++ {
		ws.Reset()
		var maxDelta float64
		for i, s := range senders {
			cl, ct := crossFor(i)
			coefs := ws.FloatRows(nSC, s.Precoder.Streams)
			precoding.StreamSINRsAndCoefficientsWS(ws, s.Own, tx[i], cl, ct, cfg.NoisePerSCMW, coefs)
			streams := s.Precoder.Streams
			perStream := s.BudgetMW / float64(streams)
			np := next[i]
			col := ws.Float64s(nSC)
			for st := 0; st < streams; st++ {
				for k := range coefs {
					col[k] = coefs[k][st]
				}
				var alloc Allocation
				switch {
				case cfg.Inner != nil:
					alloc = cfg.Inner(col, perStream)
				case warmHint(i, st) >= 0:
					alloc = EquiSNRWarmWS(&ws.Workspace, col, perStream, warmHint(i, st))
					setHint(i, st, alloc.Dropped)
				default:
					alloc = EquiSNRWS(&ws.Workspace, col, perStream)
				}
				for k := range np {
					np[k][st] = alloc.PowerMW[k]
					if d := math.Abs(alloc.PowerMW[k] - tx[i].PowerMW[k][st]); d > maxDelta {
						maxDelta = d
					}
				}
			}
		}
		for i := range tx {
			cur[i], next[i] = next[i], cur[i]
			tx[i] = precoding.NewTransmission(senders[i].Precoder, cur[i], cfg.Impairments)
		}
		converged := maxDelta < 1e-9*senders[0].BudgetMW
		if snapshot(iter, converged) {
			sinceBest = 0
		} else {
			sinceBest++
		}
		if converged {
			break
		}
		if cfg.Patience > 0 && sinceBest >= cfg.Patience {
			break
		}
	}
	return best
}

// iterateRig builds both senders of one deployment the way the strategy
// evaluator does: precoders and allocations on CSI estimates, each
// sender's Cross the estimate to the other client.
func iterateRig(t *testing.T, sc channel.Scenario, seed int64, null bool) [2]SenderCSI {
	t.Helper()
	dep := channel.DeploymentAt(seed, sc, 0)
	src := rng.New(seed)
	imp := channel.DefaultImpairments()
	var est [2][2]*channel.Link
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			est[i][j] = imp.EstimateCSI(src.Split(uint64(i*2+j)), dep.H[i][j])
		}
	}
	var senders [2]SenderCSI
	for i := 0; i < 2; i++ {
		var p *precoding.Precoder
		var err error
		if null {
			p, err = precoding.Nulling(est[i][i], est[i][1-i], sc.Streams)
		} else {
			p, err = precoding.Beamforming(est[i][i], sc.Streams)
		}
		if err != nil {
			t.Fatal(err)
		}
		senders[i] = SenderCSI{Own: est[i][i], Cross: est[i][1-i], Precoder: p, BudgetMW: channel.BudgetForAntennasMW(sc.APAntennas)}
	}
	return senders
}

// TestIterateMatchesThreePass pins iterate — one fused SINR pass per
// state, coefficients carried to the next sweep, rates only on a new
// best, best overwritten in place — to the three-pass reference: equal
// Results (reflect.DeepEqual) and equal refreshed warm hints, for
// Sequential and Concurrent under Equi-SNR, MercuryBest, warm hints and
// Patience 2.
func TestIterateMatchesThreePass(t *testing.T) {
	configs := []struct {
		name  string
		tweak func(*Config)
		warm  bool
	}{
		{"equisnr", func(*Config) {}, false},
		{"mercury", func(c *Config) { c.Inner = MercuryBest; c.MaxIters = 4 }, false},
		{"warm", func(*Config) {}, true},
		{"patience2", func(c *Config) { c.Patience = 2 }, false},
	}
	type rig struct {
		sc   channel.Scenario
		null bool
	}
	rigs := []rig{{channel.Scenario1x1, false}, {channel.Scenario4x2, false}, {channel.Scenario4x2, true}, {channel.Scenario3x2, false}}
	for _, r := range rigs {
		for seed := int64(1); seed <= 3; seed++ {
			senders := iterateRig(t, r.sc, seed, r.null)
			for _, c := range configs {
				name := fmt.Sprintf("%s/null=%v/seed%d/%s", r.sc.Name, r.null, seed, c.name)
				t.Run(name, func(t *testing.T) {
					for _, solo := range []bool{true, false} {
						in := senders[:]
						if solo {
							in = []SenderCSI{{Own: senders[0].Own, Precoder: senders[0].Precoder, BudgetMW: senders[0].BudgetMW}}
						}
						// Both sides start from the same stale drop hints.
						var hints [2][][]int
						if c.warm {
							for h := range hints {
								hints[h] = make([][]int, len(in))
								for i, s := range in {
									hints[h][i] = make([]int, s.Precoder.Streams)
									for st := range hints[h][i] {
										hints[h][i][st] = 4 + st
									}
								}
							}
						}
						cfg := DefaultConfig()
						c.tweak(&cfg)
						cfg.WarmDrops = hints[0]
						want := iterateThreePass(in, cfg)
						cfg.WarmDrops = hints[1]
						got := iterate(in, cfg)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("solo=%v: Result differs from the three-pass reference:\n got %+v\nwant %+v", solo, got, want)
						}
						if !reflect.DeepEqual(hints[0], hints[1]) {
							t.Fatalf("solo=%v: refreshed warm hints %v, reference %v", solo, hints[1], hints[0])
						}
					}
				})
			}
		}
	}
}
