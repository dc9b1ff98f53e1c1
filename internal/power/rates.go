package power

import (
	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/precoding"
)

// ClientRateFor predicts the whole transmission's rate at a client under
// 802.11n's equal-modulation constraint: a single MCS and decoder span
// all spatial streams, so every used subcarrier–stream cell feeds one
// frame (§2.1).
func ClientRateFor(own *channel.Link, tx *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission, noisePerSCMW float64) ofdm.JointRate {
	var ws precoding.Workspace
	sinrs := precoding.StreamSINRsWS(&ws, own, tx, cross, crossTx, noisePerSCMW)
	return ofdm.JointBestRate(sinrs)
}

// GoodputFor is the goodput of the client's joint best rate.
func GoodputFor(own *channel.Link, tx *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission, noisePerSCMW float64) float64 {
	return ClientRateFor(own, tx, cross, crossTx, noisePerSCMW).GoodputBps
}

// GoodputForWS is GoodputFor with SINR scratch carved from ws.
func GoodputForWS(ws *precoding.Workspace, own *channel.Link, tx *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission, noisePerSCMW float64) float64 {
	sinrs := precoding.StreamSINRsWS(ws, own, tx, cross, crossTx, noisePerSCMW)
	return ofdm.JointBestRate(sinrs).GoodputBps
}

// MultiDecoderGoodputForWS predicts goodput when the receiver can run an
// independent rate (and decoder) per subcarrier — the Fig. 14
// hypothetical. Same SINR model as GoodputFor, different rate mapping;
// the SINR scratch is carved from ws.
func MultiDecoderGoodputForWS(ws *precoding.Workspace, own *channel.Link, tx *precoding.Transmission, cross *channel.Link, crossTx *precoding.Transmission, noisePerSCMW float64) float64 {
	sinrs := precoding.StreamSINRsWS(ws, own, tx, cross, crossTx, noisePerSCMW)
	var total float64
	col := ws.Float64s(len(sinrs))
	for s := 0; s < tx.Precoder.Streams; s++ {
		for k := range sinrs {
			col[k] = sinrs[k][s]
		}
		total += ofdm.MultiDecoderThroughputBps(col)
	}
	return total
}
