package precoding

import (
	"errors"
	"math"
	"testing"

	"copa/internal/channel"
	"copa/internal/linalg"
	"copa/internal/ofdm"
	"copa/internal/rng"
)

// Omni returns a rank-1 "omnidirectional" precoder that drives only the
// first antenna — the spatial profile of ITS control frames and of
// single-antenna senders.
func Omni(nTx, subcarriers int) *Precoder {
	p := &Precoder{Streams: 1, PerSubcarrier: make([]*linalg.Matrix, subcarriers)}
	for k := range p.PerSubcarrier {
		m := linalg.NewMatrix(nTx, 1)
		m.Set(0, 0, 1)
		p.PerSubcarrier[k] = m
	}
	return p
}

// Verify checks precoder invariants: orthonormal columns on every
// subcarrier. Returns the worst deviation found.
func (p *Precoder) Verify() float64 {
	worst := 0.0
	for _, m := range p.PerSubcarrier {
		g := m.H().Mul(m).Sub(linalg.Identity(m.Cols))
		if d := g.MaxAbs(); d > worst {
			worst = d
		}
	}
	return worst
}

func testLink(seed int64, nRx, nTx int, gainDB float64) *channel.Link {
	return channel.NewLink(rng.New(seed), nRx, nTx, channel.DBToLinear(gainDB))
}

func TestBeamformingOrthonormal(t *testing.T) {
	l := testLink(1, 2, 4, -50)
	p, err := Beamforming(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Streams != 2 || p.NTx() != 4 {
		t.Fatalf("precoder shape: streams=%d ntx=%d", p.Streams, p.NTx())
	}
	if dev := p.Verify(); dev > 1e-8 {
		t.Errorf("columns not orthonormal: %g", dev)
	}
}

func TestBeamformingRejectsTooManyStreams(t *testing.T) {
	l := testLink(2, 2, 4, -50)
	if _, err := Beamforming(l, 3); err == nil {
		t.Error("3 streams to a 2-antenna client should fail")
	}
	if _, err := Beamforming(l, 0); err == nil {
		t.Error("0 streams should fail")
	}
}

func TestBeamformingBeatsOmni(t *testing.T) {
	// SVD beamforming must deliver more power than a single-antenna
	// transmission of the same total power.
	l := testLink(3, 2, 4, -60)
	bf, err := Beamforming(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	omni := Omni(4, len(l.Subcarriers))
	pw := channel.TxBudgetPerSubcarrierMW()
	var bfPow, omniPow float64
	for k, h := range l.Subcarriers {
		g1 := h.Mul(bf.Scaled(k, []float64{pw}))
		g2 := h.Mul(omni.Scaled(k, []float64{pw}))
		bfPow += math.Pow(g1.FrobeniusNorm(), 2)
		omniPow += math.Pow(g2.FrobeniusNorm(), 2)
	}
	if bfPow <= omniPow {
		t.Errorf("beamforming %.3g <= omni %.3g", bfPow, omniPow)
	}
}

func TestNullingCancelsAtVictimPerfectCSI(t *testing.T) {
	own := testLink(4, 2, 4, -50)
	cross := testLink(5, 2, 4, -55)
	p, err := Nulling(own, cross, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dev := p.Verify(); dev > 1e-8 {
		t.Errorf("columns not orthonormal: %g", dev)
	}
	pw := []float64{1, 1}
	res := ResidualAtVictim(cross, p, pw)
	for k, r := range res {
		// Perfect CSI: cancellation down to numerical noise.
		if r > 1e-12*channel.DBToLinear(-55) {
			t.Fatalf("subcarrier %d residual %g too high for perfect CSI", k, r)
		}
	}
}

func TestNullingResidualWithNoisyCSI(t *testing.T) {
	src := rng.New(6)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-50))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-55))
	imp := channel.DefaultImpairments()
	crossEst := imp.EstimateCSI(src.Split(3), cross)

	p, err := Nulling(own, crossEst, 2)
	if err != nil {
		t.Fatal(err)
	}
	pw := []float64{1, 1}
	res := ResidualAtVictim(cross, p, pw)
	var mean float64
	for _, r := range res {
		mean += r
	}
	mean /= float64(len(res))
	// Residual should be well below the un-nulled power but clearly
	// above numerical zero — this is §2.2's residual interference.
	unnulled := channel.DBToLinear(-55) * 2 * 2 // 2 streams, 2 rx antennas
	redDB := channel.LinearToDB(mean / unnulled)
	if redDB > -15 || redDB < -45 {
		t.Errorf("nulling reduction with noisy CSI = %.1f dB; want deep but imperfect (≈-25..-30)", redDB)
	}
}

func TestNullingOverconstrained(t *testing.T) {
	own := testLink(7, 2, 3, -50)
	cross := testLink(8, 2, 3, -55)
	// 3 TX antennas, 2 victim antennas → nullspace dim 1 < 2 streams.
	_, err := Nulling(own, cross, 2)
	if !errors.Is(err, ErrOverconstrained) {
		t.Fatalf("err = %v, want ErrOverconstrained", err)
	}
	// One stream fits.
	if _, err := Nulling(own, cross, 1); err != nil {
		t.Fatalf("1 stream should fit: %v", err)
	}
	// SDA: shutting a victim antenna restores 2-stream nulling.
	if _, err := Nulling(own, cross.WithoutRxAntenna(1), 2); err != nil {
		t.Fatalf("SDA should make 2 streams feasible: %v", err)
	}
}

func TestNullingDOF(t *testing.T) {
	cases := []struct{ nTx, nVictim, want int }{
		{4, 2, 2}, {3, 2, 1}, {2, 2, 0}, {1, 2, 0}, {4, 1, 3},
	}
	for _, c := range cases {
		if got := NullingDOF(c.nTx, c.nVictim); got != c.want {
			t.Errorf("NullingDOF(%d,%d) = %d, want %d", c.nTx, c.nVictim, got, c.want)
		}
	}
}

func TestScaledPower(t *testing.T) {
	l := testLink(9, 2, 4, -50)
	p, err := Beamforming(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Scaled(0, []float64{4, 9})
	// Column power equals allocated power (orthonormal base columns).
	var c0, c1 float64
	for r := 0; r < m.Rows; r++ {
		v0, v1 := m.At(r, 0), m.At(r, 1)
		c0 += real(v0)*real(v0) + imag(v0)*imag(v0)
		c1 += real(v1)*real(v1) + imag(v1)*imag(v1)
	}
	if math.Abs(c0-4) > 1e-9 || math.Abs(c1-9) > 1e-9 {
		t.Errorf("scaled column powers = %g, %g; want 4, 9", c0, c1)
	}
}

func TestStreamSINRsNoInterference(t *testing.T) {
	l := testLink(10, 2, 4, -55)
	p, err := Beamforming(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.TotalTxBudgetMW())
	tx := NewTransmission(p, powers, channel.PerfectHardware())
	sinrs := StreamSINRs(l, tx, nil, nil, channel.NoisePerSubcarrierMW())
	if len(sinrs) != ofdm.NumSubcarriers || len(sinrs[0]) != 2 {
		t.Fatalf("shape %dx%d", len(sinrs), len(sinrs[0]))
	}
	mean := MeanSINRDB(sinrs)
	// −55 dB antenna-pair gain, 15 dBm budget split 2 ways: tens of dB.
	if mean < 15 || mean > 65 {
		t.Errorf("mean SNR = %.1f dB, expected a strong indoor link", mean)
	}
}

func TestStreamSINRsInterferenceHurts(t *testing.T) {
	src := rng.New(11)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-55))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-58))
	imp := channel.PerfectHardware()

	p1, err := Beamforming(own, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Beamforming(cross, 2) // interferer beamforms "somewhere"
	if err != nil {
		t.Fatal(err)
	}
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.TotalTxBudgetMW())
	tx1 := NewTransmission(p1, powers, imp)
	tx2 := NewTransmission(p2, powers, imp)

	alone := MeanSINRDB(StreamSINRs(own, tx1, nil, nil, channel.NoisePerSubcarrierMW()))
	crowded := MeanSINRDB(StreamSINRs(own, tx1, cross, tx2, channel.NoisePerSubcarrierMW()))
	if crowded >= alone-3 {
		t.Errorf("strong interference barely hurt: alone %.1f dB, crowded %.1f dB", alone, crowded)
	}
}

func TestStreamSINRsNullingProtectsVictim(t *testing.T) {
	src := rng.New(12)
	h11 := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-55))
	h21 := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-58)) // AP2→C1
	h22 := channel.NewLink(src.Split(3), 2, 4, channel.DBToLinear(-55))
	imp := channel.PerfectHardware()

	p1, _ := Beamforming(h11, 2)
	pBF, _ := Beamforming(h22, 2)
	pNull, err := Nulling(h22, h21, 2)
	if err != nil {
		t.Fatal(err)
	}
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.TotalTxBudgetMW())
	tx1 := NewTransmission(p1, powers, imp)
	noise := channel.NoisePerSubcarrierMW()

	sinrBF := MeanSINRDB(StreamSINRs(h11, tx1, h21, NewTransmission(pBF, powers, imp), noise))
	sinrNull := MeanSINRDB(StreamSINRs(h11, tx1, h21, NewTransmission(pNull, powers, imp), noise))
	if sinrNull <= sinrBF+10 {
		t.Errorf("perfect nulling should dramatically protect C1: BF %.1f dB, null %.1f dB", sinrBF, sinrNull)
	}
}

func TestDroppedSubcarrierMarking(t *testing.T) {
	l := testLink(13, 2, 4, -55)
	p, _ := Beamforming(l, 2)
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.TotalTxBudgetMW())
	powers[5][0] = 0 // drop stream 0 on subcarrier 5
	powers[7][0], powers[7][1] = 0, 0
	tx := NewTransmission(p, powers, channel.DefaultImpairments())
	sinrs := StreamSINRs(l, tx, nil, nil, channel.NoisePerSubcarrierMW())
	if sinrs[5][0] != Dropped || sinrs[5][1] < 0 {
		t.Errorf("subcarrier 5: %v", sinrs[5])
	}
	if sinrs[7][0] != Dropped || sinrs[7][1] != Dropped {
		t.Errorf("subcarrier 7: %v", sinrs[7])
	}
	// Fully dropped subcarrier radiates leakage, not EVM.
	leak := channel.DBToLinear(channel.LeakageFloorDB) * channel.TxBudgetPerSubcarrierMW() / 4
	if math.Abs(tx.TxNoiseVarMW[7]-leak) > 1e-15 {
		t.Errorf("leakage var = %g, want %g", tx.TxNoiseVarMW[7], leak)
	}
}

func TestEqualSplitBudget(t *testing.T) {
	powers := EqualSplit(52, 2, 31.6)
	var sum float64
	for _, row := range powers {
		for _, p := range row {
			sum += p
		}
	}
	if math.Abs(sum-31.6) > 1e-9 {
		t.Errorf("budget sums to %g", sum)
	}
}

func TestTransmissionTotalPower(t *testing.T) {
	l := testLink(14, 1, 1, -50)
	p, _ := Beamforming(l, 1)
	powers := EqualSplit(ofdm.NumSubcarriers, 1, 10)
	tx := NewTransmission(p, powers, channel.PerfectHardware())
	if math.Abs(tx.TotalPowerMW()-10) > 1e-9 {
		t.Errorf("total = %g", tx.TotalPowerMW())
	}
}

func TestOmniPrecoder(t *testing.T) {
	p := Omni(4, 10)
	if p.Streams != 1 || len(p.PerSubcarrier) != 10 {
		t.Fatal("omni shape wrong")
	}
	if dev := p.Verify(); dev > 0 {
		t.Errorf("omni not orthonormal: %g", dev)
	}
}

func BenchmarkNulling4x2(b *testing.B) {
	own := testLink(20, 2, 4, -50)
	cross := testLink(21, 2, 4, -55)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Nulling(own, cross, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamSINRs(b *testing.B) {
	src := rng.New(22)
	own := channel.NewLink(src.Split(1), 2, 4, channel.DBToLinear(-55))
	cross := channel.NewLink(src.Split(2), 2, 4, channel.DBToLinear(-58))
	p1, _ := Beamforming(own, 2)
	p2, _ := Beamforming(cross, 2)
	powers := EqualSplit(ofdm.NumSubcarriers, 2, channel.TotalTxBudgetMW())
	imp := channel.DefaultImpairments()
	tx1 := NewTransmission(p1, powers, imp)
	tx2 := NewTransmission(p2, powers, imp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StreamSINRs(own, tx1, cross, tx2, channel.NoisePerSubcarrierMW())
	}
}
