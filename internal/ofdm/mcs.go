package ofdm

import "fmt"

// Modulation identifies a constellation used on a subcarrier.
type Modulation int

// Constellations used by 802.11n high-throughput rates.
const (
	BPSK Modulation = iota
	QPSK
	QAM16
	QAM64
)

// String returns the conventional name of the constellation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// BitsPerSymbol returns the number of coded bits carried per subcarrier
// per OFDM symbol.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	}
	panic("ofdm: unknown modulation")
}

// Points returns the constellation size M.
func (m Modulation) Points() int { return 1 << uint(m.BitsPerSymbol()) }

// CodeRate identifies a convolutional code rate of the 802.11 K=7
// (133,171) code family (the higher rates are punctured variants).
type CodeRate int

// Code rates used by 802.11n.
const (
	R12 CodeRate = iota // rate 1/2 (mother code)
	R23                 // rate 2/3
	R34                 // rate 3/4
	R56                 // rate 5/6
)

// String returns the rate as a fraction.
func (r CodeRate) String() string {
	switch r {
	case R12:
		return "1/2"
	case R23:
		return "2/3"
	case R34:
		return "3/4"
	case R56:
		return "5/6"
	}
	return fmt.Sprintf("CodeRate(%d)", int(r))
}

// Value returns the code rate as a float (information bits per coded bit).
func (r CodeRate) Value() float64 {
	switch r {
	case R12:
		return 0.5
	case R23:
		return 2.0 / 3.0
	case R34:
		return 0.75
	case R56:
		return 5.0 / 6.0
	}
	panic("ofdm: unknown code rate")
}

// MCS is one 802.11n modulation-and-coding scheme for a single spatial
// stream on a 20 MHz channel.
type MCS struct {
	Index      int
	Modulation Modulation
	CodeRate   CodeRate
}

// String renders the MCS in the familiar "MCS3 (16-QAM 1/2)" form.
func (m MCS) String() string {
	return fmt.Sprintf("MCS%d (%s %s)", m.Index, m.Modulation, m.CodeRate)
}

// DataRateBps returns the single-stream PHY data rate in bits/s when all
// data subcarriers are used: bitsPerSymbol × codeRate × 52 / 4 µs.
// MCS7 (64-QAM 5/6) gives the paper's headline 65 Mb/s.
func (m MCS) DataRateBps() float64 {
	return float64(m.Modulation.BitsPerSymbol()) * m.CodeRate.Value() *
		NumSubcarriers / SymbolDuration.Seconds()
}

// BitsPerSubcarrierSymbol returns the information bits carried by one
// subcarrier in one OFDM symbol at this MCS.
func (m MCS) BitsPerSubcarrierSymbol() float64 {
	return float64(m.Modulation.BitsPerSymbol()) * m.CodeRate.Value()
}

// Table returns the eight 802.11n single-stream MCS entries (MCS0–MCS7,
// 20 MHz, 800 ns GI), in increasing rate order.
func Table() []MCS { return mcsTable }

// mcsTable is shared by every Table call — the table is read-only by
// convention, and the rate-selection hot loop iterates it per subcarrier,
// so handing out one slice keeps that path allocation-free.
var mcsTable = []MCS{
	{0, BPSK, R12},  // 6.5 Mb/s
	{1, QPSK, R12},  // 13 Mb/s
	{2, QPSK, R34},  // 19.5 Mb/s
	{3, QAM16, R12}, // 26 Mb/s
	{4, QAM16, R34}, // 39 Mb/s
	{5, QAM64, R23}, // 52 Mb/s
	{6, QAM64, R34}, // 58.5 Mb/s
	{7, QAM64, R56}, // 65 Mb/s
}
