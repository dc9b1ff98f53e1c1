package ofdm

// StreamRate is the outcome of rate selection for one spatial stream.
type StreamRate struct {
	MCS MCS
	// GoodputBps is the predicted PHY-layer goodput in bits/s (before
	// MAC overheads): data rate scaled by the fraction of subcarriers in
	// use and by per-MPDU delivery probability.
	GoodputBps float64
	// FER is the per-MPDU frame error rate at the selected MCS.
	FER float64
	// UncodedBER is the mean raw BER across used subcarriers.
	UncodedBER float64
}

// rawBERSum accumulates the raw BER of every used subcarrier for one
// constellation, in array order. Entries that are negative mark
// subcarriers the sender does not use: they carry no data and contribute
// no errors. A tiny direct-mapped memo shortcuts
// repeated inputs: equalized power allocations evaluate rate selection on
// vectors whose kept entries take only a handful of distinct values
// (the equalization target ± 1 ulp of reconstruction rounding), so most
// Q-function evaluations repeat an input just computed.
func rawBERSum(mp *modParams, sinrs []float64) (sum float64, used int) {
	var keys, vals [4]float64
	n, next := 0, 0
	for _, s := range sinrs {
		if s < 0 {
			continue // dropped subcarrier
		}
		used++
		b := -1.0
		for i := 0; i < n; i++ {
			if keys[i] == s {
				b = vals[i]
				break
			}
		}
		if b < 0 {
			b = uncodedBER(mp, s)
			keys[next], vals[next] = s, b
			if n < len(keys) {
				n++
			}
			next++
			if next == len(keys) {
				next = 0
			}
		}
		sum += b
	}
	return sum, used
}

// streamRateFromRaw finishes rate prediction for one MCS given the raw-BER
// sum over used subcarriers. The model follows the paper's methodology
// (§4.1): per-subcarrier SINR → raw BER for the constellation → mean raw
// BER across used subcarriers (one decoder spans all subcarriers, so weak
// subcarriers drag down the whole frame) → union-bound coded BER → MPDU
// frame-error rate → goodput.
func streamRateFromRaw(m MCS, rawSum float64, used int) StreamRate {
	if used == 0 {
		return StreamRate{MCS: m}
	}
	raw := rawSum / float64(used)
	coded := CodedBER(m.CodeRate, raw)
	fer := FrameErrorRate(coded, MPDUBytes*8)
	goodput := m.DataRateBps() * float64(used) / NumSubcarriers * (1 - fer)
	return StreamRate{MCS: m, GoodputBps: goodput, FER: fer, UncodedBER: raw}
}

// StreamGoodputCeiling is the highest goodput any MCS can predict for a
// stream using `used` subcarriers: the top-rate entry with a zero frame
// error rate, computed with the same float expression streamRateFromRaw
// uses. Power allocators use it to skip rate selections that provably
// cannot beat an incumbent.
func StreamGoodputCeiling(used int) float64 {
	m := mcsTable[len(mcsTable)-1]
	return m.DataRateBps() * float64(used) / NumSubcarriers
}

// BestRate selects the throughput-maximizing MCS for one spatial stream
// over the given per-subcarrier linear SINRs (negative entries = dropped).
//
// Two hoists keep this loop cheap without changing the selection:
//
//   - The raw-BER pass over the subcarriers depends only on the
//     constellation, so it runs at most once per distinct modulation
//     (four passes for the eight-entry table) instead of once per MCS.
//   - The table is scanned in descending rate order with ≥ replacement,
//     which selects the same entry as the ascending strict-> scan (the
//     lowest-index maximum), but lets an MCS be skipped outright when
//     its zero-FER ceiling rate·used/52 is already below the incumbent —
//     its goodput is ceiling·(1−FER) ≤ ceiling, so it can never win. At
//     working SINRs the top modulation decides within one union bound.
func BestRate(sinrs []float64) StreamRate {
	var sums [4]float64
	var useds [4]int
	var have [4]bool
	var best StreamRate
	table := Table()
	for i := len(table) - 1; i >= 0; i-- {
		m := table[i]
		mod := m.Modulation
		if !have[mod] {
			sums[mod], useds[mod] = rawBERSum(&modTab[mod], sinrs)
			have[mod] = true
		}
		if ceiling := m.DataRateBps() * float64(useds[mod]) / NumSubcarriers; ceiling < best.GoodputBps {
			continue
		}
		if r := streamRateFromRaw(m, sums[mod], useds[mod]); r.GoodputBps >= best.GoodputBps {
			best = r
		}
	}
	return best
}

// MultiDecoderThroughputBps predicts the PHY goodput of one stream when
// the transceiver can run an independent modulation and decoder per
// subcarrier (the Fig. 14 "N decoders" hypothetical). Each subcarrier
// independently picks its best MCS; its goodput contribution is its
// per-subcarrier rate times its own delivery probability.
func MultiDecoderThroughputBps(sinrs []float64) float64 {
	var total float64
	for _, s := range sinrs {
		if s < 0 {
			continue
		}
		var raws [4]float64
		var have [4]bool
		var best float64
		for _, m := range Table() {
			mod := m.Modulation
			if !have[mod] {
				raws[mod] = uncodedBER(&modTab[mod], s)
				have[mod] = true
			}
			coded := CodedBER(m.CodeRate, raws[mod])
			fer := FrameErrorRate(coded, MPDUBytes*8)
			rate := m.BitsPerSubcarrierSymbol() / SymbolDuration.Seconds() * (1 - fer)
			if rate > best {
				best = rate
			}
		}
		total += best
	}
	return total
}

// JointRate is the outcome of rate selection for a whole multi-stream
// transmission under 802.11n's equal-modulation constraint: one MCS and
// one convolutional decoder span every spatial stream and subcarrier, so
// the weakest used subcarrier–stream cells drag the entire frame (§2.1 —
// this constraint is the reason COPA drops subcarriers at all).
type JointRate struct {
	MCS MCS
	// GoodputBps is the whole transmission's predicted PHY goodput.
	GoodputBps float64
	// FER is the per-MPDU frame error rate at the selected MCS.
	FER float64
	// UncodedBER is the mean raw BER across used subcarrier–stream cells.
	UncodedBER float64
	// Used is the number of subcarrier–stream cells carrying data.
	Used int
}

// jointRawBERSum is rawBERSum over a [subcarrier][stream] SINR matrix,
// with the same row-major accumulation order as the original inline loop.
func jointRawBERSum(mp *modParams, sinrs [][]float64) (sum float64, used int) {
	var keys, vals [4]float64
	n, next := 0, 0
	for _, row := range sinrs {
		for _, s := range row {
			if s < 0 {
				continue
			}
			used++
			b := -1.0
			for i := 0; i < n; i++ {
				if keys[i] == s {
					b = vals[i]
					break
				}
			}
			if b < 0 {
				b = uncodedBER(mp, s)
				keys[next], vals[next] = s, b
				if n < len(keys) {
					n++
				}
				next++
				if next == len(keys) {
					next = 0
				}
			}
			sum += b
		}
	}
	return sum, used
}

// jointRateFromRaw finishes joint rate prediction for one MCS given the
// raw-BER sum over used cells, with streamRateFromRaw's model.
func jointRateFromRaw(m MCS, rawSum float64, used int) JointRate {
	if used == 0 {
		return JointRate{MCS: m}
	}
	raw := rawSum / float64(used)
	coded := CodedBER(m.CodeRate, raw)
	fer := FrameErrorRate(coded, MPDUBytes*8)
	goodput := m.BitsPerSubcarrierSymbol() * float64(used) / SymbolDuration.Seconds() * (1 - fer)
	return JointRate{MCS: m, GoodputBps: goodput, FER: fer, UncodedBER: raw, Used: used}
}

// JointBestRate selects the throughput-maximizing single MCS for a whole
// multi-stream transmission. As in BestRate, the raw-BER pass runs at
// most once per distinct modulation, the table is scanned in descending
// rate order with ≥ replacement (same lowest-index argmax as the
// ascending strict-> scan), and entries whose zero-FER ceiling is below
// the incumbent are skipped without evaluating the union bound.
func JointBestRate(sinrs [][]float64) JointRate {
	var sums [4]float64
	var useds [4]int
	var have [4]bool
	var best JointRate
	table := Table()
	for i := len(table) - 1; i >= 0; i-- {
		m := table[i]
		mod := m.Modulation
		if !have[mod] {
			sums[mod], useds[mod] = jointRawBERSum(&modTab[mod], sinrs)
			have[mod] = true
		}
		if ceiling := m.BitsPerSubcarrierSymbol() * float64(useds[mod]) / SymbolDuration.Seconds(); ceiling < best.GoodputBps {
			continue
		}
		if r := jointRateFromRaw(m, sums[mod], useds[mod]); r.GoodputBps >= best.GoodputBps {
			best = r
		}
	}
	return best
}
