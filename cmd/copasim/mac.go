package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"copa/internal/channel"
	"copa/internal/core"
	"copa/internal/csi"
	"copa/internal/mac"
	"copa/internal/ofdm"
	"copa/internal/precoding"
	"copa/internal/rng"
	"copa/internal/strategy"
)

// The MAC fairness studies run at fixed sizes: three contending
// stations (or COPA pairs), 20000 slotted-DCF TXOPs, and 40 contention
// rounds of the full-protocol cluster.
const (
	macStations   = 3
	dcfTXOPs      = 20000
	clusterRounds = 40
)

// printITS builds the three ITS control frames for one topology of each
// antenna scenario, prints their wire sizes and the CSI compression
// statistics, and round-trips every frame through its codec as a
// self-check.
func printITS(_ context.Context, o *opts) error {
	for _, sc := range []channel.Scenario{channel.Scenario1x1, channel.Scenario4x2, channel.Scenario3x2} {
		if err := printITSScenario(sc, o.seed); err != nil {
			return fmt.Errorf("its %s: %w", sc.Name, err)
		}
	}
	return nil
}

func printITSScenario(sc channel.Scenario, seed int64) error {
	src := rng.New(seed)
	dep := channel.NewDeployment(src.Split(1), sc)
	imp := channel.DefaultImpairments()

	// The follower's CSI to both clients, as carried in the ITS REQ.
	csi1raw := imp.EstimateCSI(src.Split(2), dep.H[1][0])
	csi2raw := imp.EstimateCSI(src.Split(3), dep.H[1][1])
	blob1, err1 := csi.EncodeLink(csi1raw)
	blob2, err2 := csi.EncodeLink(csi2raw)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}

	raw := csi.RawSize(sc.ClientAntennas, sc.APAntennas, ofdm.NumSubcarriers)
	fmt.Printf("scenario %s: CSI raw %d B → compressed %d B / %d B (ratios %.2f / %.2f)\n",
		sc.Name, raw, len(blob1), len(blob2),
		csi.Ratio(raw, len(blob1)), csi.Ratio(raw, len(blob2)))

	rec1, err := csi.DecodeLink(blob1)
	if err != nil {
		return err
	}
	fmt.Printf("CSI reconstruction error: %.1f dB\n",
		csi.ReconstructionErrorDB(csi1raw.Subcarriers, rec1.Subcarriers))

	addr := func(b byte) mac.Addr { return mac.Addr{0x02, 0, 0, 0, 0, b} }
	initFrame := (&mac.ITSInit{Leader: addr(1), Client: addr(0x11), AirtimeUS: 4000}).Marshal()
	reqFrame := (&mac.ITSReq{
		Leader: addr(1), Follower: addr(2),
		Client1: addr(0x11), Client2: addr(0x12),
		AirtimeUS:    4000,
		CSIToClient1: blob1, CSIToClient2: blob2,
	}).Marshal()

	ack := &mac.ITSAck{
		Leader: addr(1), Follower: addr(2),
		Client1: addr(0x11), Client2: addr(0x12),
		AirtimeUS: 4000, Decision: mac.DecideSequential,
	}
	if sc.APAntennas > sc.ClientAntennas {
		p, err := precoding.Nulling(csi2raw, csi1raw, sc.APAntennas-sc.ClientAntennas)
		if err != nil {
			return err
		}
		pre, err := csi.EncodePrecoder(p.PerSubcarrier)
		if err != nil {
			return err
		}
		ack.Decision = mac.DecideConcurrent
		ack.FollowerPrecoder = pre
		ack.FollowerPowerMW = precoding.EqualSplit(ofdm.NumSubcarriers, p.Streams, channel.BudgetForAntennasMW(sc.APAntennas))
	}
	ackFrame := ack.Marshal()

	fmt.Printf("\nwire sizes: ITS INIT %d B · ITS REQ %d B · ITS ACK %d B\n",
		len(initFrame), len(reqFrame), len(ackFrame))

	// Round-trip self-check.
	_, errInit := mac.UnmarshalITSInit(initFrame)
	_, errReq := mac.UnmarshalITSReq(reqFrame)
	_, errAck := mac.UnmarshalITSAck(ackFrame)
	if err := errors.Join(errInit, errReq, errAck); err != nil {
		return err
	}
	fmt.Println("round-trip: all three frames decode cleanly")
	return nil
}

// printDCF runs the slotted DCF fairness simulation with and without a
// COPA pair, and with the post-ITS deference window of §3.1.
func printDCF(_ context.Context, o *opts) error {
	fmt.Printf("DCF with %d stations; stations 0,1 form a COPA pair (sequential verdicts)\n\n", macStations)
	for _, cfg := range []struct {
		name string
		d    mac.DCF
	}{
		{"plain DCF (no COPA)", mac.DCF{Stations: macStations}},
		{"COPA pair, no deference", mac.DCF{Stations: macStations, COPAPair: true}},
		{"COPA pair + deference (§3.1)", mac.DCF{Stations: macStations, COPAPair: true, Deference: true}},
	} {
		stats := cfg.d.Run(rng.New(o.seed), dcfTXOPs)
		fmt.Printf("%-30s Jain=%.4f collisions=%.2f%% airtime=", cfg.name, stats.JainIndex, stats.Collisions*100)
		printShares(stats.Airtime, 1, "%.3f")
		fmt.Println()
	}
	return nil
}

// printCluster runs the full-protocol cluster of COPA pairs (4x2) with
// and without the §3.1 deference window.
func printCluster(_ context.Context, o *opts) error {
	fmt.Printf("cluster of %d COPA pairs (4x2), %d contention rounds, full ITS protocol\n\n", macStations, clusterRounds)
	for _, cfg := range []struct {
		name      string
		deference bool
	}{
		{"no deference", false},
		{"with §3.1 deference", true},
	} {
		src := rng.New(o.seed)
		dep, err := channel.NewMultiDeployment(src.Split(1), channel.Scenario4x2, macStations)
		if err != nil {
			return err
		}
		c := core.NewCluster(dep, channel.DefaultImpairments(), 30*time.Millisecond, strategy.ModeFair, src.Split(2))
		c.Deference = cfg.deference
		stats, err := c.RunRounds(clusterRounds)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s Jain=%.4f concurrent=%.0f%% airtime=", cfg.name, stats.JainIndex, stats.ConcurrentFraction*100)
		printShares(stats.AirtimeShare, 1, "%.3f")
		fmt.Printf("  tput=")
		printShares(stats.MeanTputBps, 1e6, "%.0f")
		fmt.Println(" Mb/s")
	}
	return nil
}

// printShares prints vs/scale slash-separated in the given format.
func printShares(vs []float64, scale float64, format string) {
	for i, v := range vs {
		if i > 0 {
			fmt.Print("/")
		}
		fmt.Printf(format, v/scale)
	}
}
