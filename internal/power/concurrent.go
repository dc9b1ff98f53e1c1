package power

import (
	"math"

	"copa/internal/channel"
	"copa/internal/ofdm"
	"copa/internal/precoding"
)

// InnerAllocator is the single-stream allocation step plugged into the
// Equi-SINR iteration: EquiSNR for COPA, MercuryBest for COPA+.
type InnerAllocator func(coef []float64, budgetMW float64) Allocation

// SenderCSI bundles the channel knowledge the leader AP has about one
// sender when computing a joint allocation (all links are CSI estimates,
// not ground truth).
type SenderCSI struct {
	// Own is the sender → its-own-client channel estimate.
	Own *channel.Link
	// Cross is the sender → other-client channel estimate; nil when the
	// sender is transmitting alone.
	Cross *channel.Link
	// Precoder is the sender's chosen spatial profile.
	Precoder *precoding.Precoder
	// BudgetMW is the sender's total transmit power budget.
	BudgetMW float64
}

// Config parameterizes the iterative allocation.
type Config struct {
	Impairments  channel.Impairments
	NoisePerSCMW float64
	// MaxIters bounds the Equi-SINR iteration (Fig. 6); the paper's
	// algorithm iterates until convergence or a limit.
	MaxIters int
	// Inner is the per-stream allocator; defaults to EquiSNR.
	Inner InnerAllocator

	// Scratch, when set, is the workspace arena the iteration carves its
	// SINR and allocation scratch from; the call resets it freely, so the
	// caller must not hold workspace-carved values across Sequential or
	// Concurrent. Leave nil to use a private arena per call.
	Scratch *precoding.Workspace

	// WarmDrops[i][s], when non-nil, is sender i stream s's previous
	// Allocation.Dropped; the per-stream inner solves then run the
	// warm-started Equi-SNR scan (EquiSNRWarmWS — bit-identical results,
	// cheaper scan). Entries < 0 mean "no hint" for that stream. The
	// entries are refreshed in place after every Jacobi sweep, so a
	// caller that keeps the slice across epochs hands the next solve
	// up-to-date hints for free. Only consulted when Inner is nil.
	WarmDrops [][]int
	// Patience, when > 0, stops the Jacobi iteration after this many
	// consecutive sweeps without a strictly better best-so-far
	// allocation. The best-response dynamics track their best state and
	// typically peak within the first sweeps before oscillating (the
	// discrete Equi-SNR drop levels cycle rather than contract), so a
	// small patience keeps the result on instances whose best arrives
	// late while skipping the dead tail everywhere else — the drift
	// controller's incremental re-allocation runs with Patience 2.
	// Zero (the default) always runs MaxIters sweeps.
	Patience int
}

// DefaultConfig returns the standard COPA allocation configuration.
// Inner is left nil, which means EquiSNR: keeping the default as nil lets
// the iteration take the allocation-free EquiSNRWS fast path.
func DefaultConfig() Config {
	return Config{
		Impairments:  channel.DefaultImpairments(),
		NoisePerSCMW: channel.NoisePerSubcarrierMW(),
		MaxIters:     12,
	}
}

// Result is the outcome of a joint (or solo) allocation.
type Result struct {
	// Tx[i] is sender i's finished transmission descriptor.
	Tx []*precoding.Transmission
	// StreamRates[i] are sender i's predicted per-stream rates (on the
	// CSI estimates the allocation was computed from).
	StreamRates [][]ofdm.StreamRate
	// Goodput[i] is the predicted total goodput of sender i in bits/s.
	Goodput []float64
	// Iterations actually performed.
	Iterations int
	// Converged reports whether the iteration settled before MaxIters.
	Converged bool
}

// Aggregate returns the predicted aggregate goodput across senders.
func (r *Result) Aggregate() float64 {
	var t float64
	for _, g := range r.Goodput {
		t += g
	}
	return t
}

// Sequential allocates power for a sender transmitting alone (COPA-SEQ's
// building block): Equi-SNR per stream, iterated a few times so that
// inter-stream interference between the sender's own MIMO streams is
// accounted for.
func Sequential(s SenderCSI, cfg Config) *Result {
	return iterate([]SenderCSI{s}, cfg)
}

// Concurrent jointly allocates power for two senders transmitting
// concurrently (§3.2.1, Fig. 6): starting from equal split, each stream
// of each sender is re-allocated against the interference implied by the
// other streams' current allocation; the cross-interference is then
// recomputed and the process iterates. Because the per-stream steps are
// independent the iteration may regress, so the best solution seen (by
// predicted aggregate goodput) is retained and returned.
//
// senders[0].Cross must be the channel from sender 0 to client 1 and vice
// versa.
func Concurrent(senders [2]SenderCSI, cfg Config) *Result {
	return iterate(senders[:], cfg)
}

// newPowerGrid allocates an nSC×streams power matrix with contiguous rows.
func newPowerGrid(nSC, streams int) [][]float64 {
	flat := make([]float64, nSC*streams)
	grid := make([][]float64, nSC)
	for k := range grid {
		grid[k] = flat[k*streams : (k+1)*streams : (k+1)*streams]
	}
	return grid
}

func iterate(senders []SenderCSI, cfg Config) *Result {
	timing := mAllocSeconds.Begin()
	n := len(senders)
	nSC := len(senders[0].Own.Subcarriers)
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 12
	}
	ws := cfg.Scratch
	if ws == nil {
		ws = &precoding.Workspace{}
	}
	ws.Reset()

	// Working transmissions over ping-pong power grids: tx[i] reads from
	// cur[i] while the Jacobi step writes next[i], so the workspace can be
	// reset at every iteration boundary without touching live powers.
	// coefs[i] holds the SINR coefficients of tx[i], which the snapshot
	// pass that scored the state leaves for the next sweep. best owns its
	// powers and transmissions from the start; an improvement overwrites
	// them in place, since only the final best is returned.
	tx := make([]*precoding.Transmission, n)
	cur := make([][][]float64, n)
	next := make([][][]float64, n)
	coefs := make([][][]float64, n)
	best := &Result{
		Tx:          make([]*precoding.Transmission, n),
		StreamRates: make([][]ofdm.StreamRate, n),
		Goodput:     make([]float64, n),
	}
	for i, s := range senders {
		streams := s.Precoder.Streams
		cur[i] = newPowerGrid(nSC, streams)
		next[i] = newPowerGrid(nSC, streams)
		coefs[i] = newPowerGrid(nSC, streams)
		best.Tx[i] = &precoding.Transmission{Precoder: s.Precoder, PowerMW: newPowerGrid(nSC, streams), TxNoiseVarMW: make([]float64, nSC)}
		best.StreamRates[i] = make([]ofdm.StreamRate, streams)
		// Equal split start (the paper's assumption about the other
		// sender's initial behaviour); same arithmetic as EqualSplit.
		per := s.BudgetMW / float64(nSC*streams)
		for _, row := range cur[i] {
			for st := range row {
				row[st] = per
			}
		}
		tx[i] = precoding.NewTransmission(s.Precoder, cur[i], cfg.Impairments)
	}
	// warmHint returns the per-(sender, stream) drop hint for the
	// warm-started inner scan, or -1 (no hint) when none was provided.
	// hints are refreshed each Jacobi sweep from the sweep's own results.
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

	sinrs := make([][][]float64, n)
	goodput := make([]float64, n)
	// snapshot scores the current state with one SINR pass per sender and
	// keeps it if it beats the best so far. The same pass leaves the
	// state's SINR coefficients in coefs unless no sweep can follow.
	snapshot := func(iter int, converged bool) (improved bool) {
		withCoefs := iter < cfg.MaxIters && !converged
		var agg float64
		for i, s := range senders {
			cl, ct := crossFor(i)
			var dst [][]float64
			if withCoefs {
				dst = coefs[i]
			}
			sinrs[i] = precoding.StreamSINRsAndCoefficientsWS(ws, s.Own, tx[i], cl, ct, cfg.NoisePerSCMW, dst)
			// Score with the joint (single-MCS-across-streams) rate the
			// client will actually decode at.
			goodput[i] = ofdm.JointBestRate(sinrs[i]).GoodputBps
		}
		for _, g := range goodput {
			agg += g
		}
		if iter == 0 || agg > best.Aggregate() {
			improved = true
			col := ws.Float64s(nSC)
			for i, b := range best.Tx {
				for k, row := range tx[i].PowerMW {
					copy(b.PowerMW[k], row)
				}
				copy(b.TxNoiseVarMW, tx[i].TxNoiseVarMW)
				// Per-stream rates are only reported for the best state.
				for st := range best.StreamRates[i] {
					for k, row := range sinrs[i] {
						col[k] = row[st]
					}
					best.StreamRates[i][st] = ofdm.BestRate(col)
				}
			}
			copy(best.Goodput, goodput)
		}
		best.Iterations = iter
		best.Converged = converged
		return improved
	}
	snapshot(0, false)
	sinceBest := 0

	for iter := 1; iter <= cfg.MaxIters; iter++ {
		// Everything carved last iteration (SINR scratch, inner
		// allocations) is dead: live powers sit in cur/next, the current
		// state's coefficients in coefs, and best holds its own copies.
		ws.Reset()
		// Jacobi step: every stream of every sender re-allocates against
		// the interference of the *current* state; all updates then land
		// together.
		var maxDelta float64
		for i, s := range senders {
			streams := s.Precoder.Streams
			perStream := s.BudgetMW / float64(streams)
			np := next[i]
			col := ws.Float64s(nSC)
			for st := 0; st < streams; st++ {
				for k, row := range coefs[i] {
					col[k] = row[st]
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
	mAllocIters.ObserveInt(best.Iterations)
	if !best.Converged {
		mConvergeFails.Inc()
	}
	timing.End()
	return best
}
