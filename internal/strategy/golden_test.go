package strategy

import (
	"math"
	"sort"
	"testing"

	"copa/internal/channel"
	"copa/internal/power"
	"copa/internal/rng"
)

// goldenRow pins one strategy outcome on a fixed-seed deployment.
type goldenRow struct {
	kind      Kind
	conc, sda bool
	pc0, pc1  uint64 // math.Float64bits of PerClient
	pr0, pr1  uint64 // math.Float64bits of Predicted
}

// goldenOutcomes pin every outcome field of the fixed-seed deployments
// to the last bit. They were captured with:
//
//	src := rng.New(42)
//	dep := channel.NewDeployment(src.Split(1), sc)
//	ev := NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
//	outs, _ := ev.EvaluateAll()
//
// and recording math.Float64bits of every outcome field. Any drift here
// means a floating-point operation was reordered somewhere in the
// pipeline and must be either reverted or deliberately re-baselined.
//
// Re-baseline note (batched eigensolver kernels, DESIGN §13): the 4x2
// and 3x2 rows were re-captured when precoding moved to the batched
// Gram-eig SVD path. The batched kernels compute the same orthonormal
// factors via a different (closed-form / batched-Jacobi) operation
// order, which shifts precoder entries by O(1e-8) and the throughput
// outcomes below by a few ulps. Equivalence to the scalar reference is
// enforced separately by internal/precoding's kernel-equivalence suite
// (kernelEquivTol = 1e-6) in the CI kernel-equivalence matrix. The 1x1
// rows were unchanged by the re-baseline. To re-capture after another
// deliberate numeric change: REGEN_GOLDEN=1 go test ./internal/strategy
// -run TestRegenGolden -v.
var goldenOutcomes = map[string][]goldenRow{
	"4x2": {
		{Kind(0), false, false, 0x4188b32d3f672070, 0x418b6210c0d877a6, 0x41889cba9b5ea9c2, 0x418b62110568b3d3},
		{Kind(1), false, false, 0x418a6ec9fc50bdae, 0x418b222856172067, 0x418a6c7ee7882ba9, 0x418b22285617209d},
		{Kind(2), true, false, 0x4149424aa76c688a, 0x418563bcdfab73b0, 0x413eb686d9f40d71, 0x418701b79effa543},
		{Kind(3), true, false, 0x41685f7b308d43ae, 0x4184c7bff010656e, 0x41694e140be3d6b7, 0x41867e67ef943c1e},
		{Kind(4), true, false, 0x417275cca5f9aff3, 0x4191a6f8b2e2ad23, 0x41782b7673a4d0da, 0x4191f90c4d18eb0d},
	},
	"1x1": {
		{Kind(0), false, false, 0x415e43a395259f04, 0x4168b8a383f25896, 0x4160d731ae9c5492, 0x416dc5c690075f93},
		{Kind(1), false, false, 0x41611d429649df4d, 0x417a0f4eb9b4635d, 0x4168beded158b56a, 0x417a13a2302c82c0},
		{Kind(3), true, false, 0x41555d5cefa1615d, 0x4170da2f6eb8b822, 0x415562df47bf84ff, 0x4170d9c4b26e8511},
	},
	"3x2": {
		{Kind(0), false, false, 0x4184c294ec7432d7, 0x41889edb1675ce0c, 0x4185120e89e61644, 0x4188a0ea102d1707},
		{Kind(1), false, false, 0x4186f54384bc7463, 0x418b220d36161c79, 0x4186edcb8ceeb37e, 0x418b2213d0c02ed7},
		{Kind(2), true, true, 0x415727a8ae5bc1d7, 0x41800a9a1e131e18, 0x415a60ca5eae7504, 0x4180089c140fd095},
		{Kind(3), true, false, 0x41514f7450a4a8e2, 0x417a951fece6ffaa, 0x4150e991af60af6d, 0x417a8e0f5fd9b2b8},
		{Kind(4), true, true, 0x4178f4cfd104e678, 0x418ab2ca153c5eee, 0x4174701b93398848, 0x418b3920045f5abe},
	},
}

var goldenScenarios = map[string]channel.Scenario{
	"4x2": channel.Scenario4x2,
	"1x1": channel.Scenario1x1,
	"3x2": channel.Scenario3x2,
}

// goldenCOPAPlus pins the COPA+ outcomes (Alloc.Inner = power.MercuryBest,
// MaxIters = 3) of the same fixed-seed worlds. Mercury/water-filling
// inverts a tabulated MMSE, so these rows belong to the kernel-tolerance
// tier: they are compared within kernelTol relative, not bit for bit,
// and an exact re-derivation of that inverse stays inside them. Captured
// with REGEN_GOLDEN=1 go test ./internal/strategy -run TestRegenGolden -v.
var goldenCOPAPlus = map[string][]goldenRow{
	"4x2": {
		{Kind(0), false, false, 0x4188b32d3f672070, 0x418b6210c0d877a6, 0x41889cba9b5ea9c2, 0x418b62110568b3d3},
		{Kind(1), false, false, 0x418aba60886ab3b6, 0x418b222856172060, 0x418aa23d580abf53, 0x418b22285617209d},
		{Kind(2), true, false, 0x4149424aa76c688a, 0x418563bcdfab73b0, 0x413eb686d9f40d71, 0x418701b79effa543},
		{Kind(3), true, false, 0x0000000000000000, 0x4185601d7bdcfb95, 0x0000000000000000, 0x41856089d59bd397},
		{Kind(4), true, false, 0x41714e5906a6f259, 0x418d056949e7a7ce, 0x41716289beec7b4e, 0x418f65eb0ac02454},
	},
	"1x1": {
		{Kind(0), false, false, 0x415e43a395259f04, 0x4168b8a383f25896, 0x4160d731ae9c5492, 0x416dc5c690075f93},
		{Kind(1), false, false, 0x41640f70f64b14c0, 0x417798e366ab3495, 0x41654894a33affdc, 0x4178478bfee335c0},
		{Kind(3), true, false, 0x0000000000000000, 0x416747917befce34, 0x0000000000000000, 0x4164fa9f8d70937c},
	},
	"3x2": {
		{Kind(0), false, false, 0x4184c294ec7432d7, 0x41889edb1675ce0c, 0x4185120e89e61644, 0x4188a0ea102d1707},
		{Kind(1), false, false, 0x41859994c926fd02, 0x418b220c7260341a, 0x41859cf7c2eadacd, 0x418b2216d05c2cf7},
		{Kind(2), true, true, 0x415727a8ae5bc1d7, 0x41800a9a1e131e18, 0x415a60ca5eae7504, 0x4180089c140fd095},
		{Kind(3), true, false, 0x0000000000000000, 0x417fca309acb4ea2, 0x0000000000000000, 0x418000c2c5a08a5d},
		{Kind(4), true, true, 0x41700a0ef5c2aa22, 0x41853cf7d84e6c3e, 0x4172831bd29e6bce, 0x41833cd3073eb2a3},
	},
}

// fmaProbe holds operands chosen so that a*b+c is exactly -1 when the
// compiler contracts it into a fused multiply-add and exactly 0 when the
// product is rounded first: (2²⁷+1)(2²⁷−1) = 2⁵⁴−1 rounds to 2⁵⁴ in
// float64. Package-level vars keep the expression out of constant folding
// so it is evaluated by the same codegen the pipeline gets.
var fmaProbe = struct{ a, b, c float64 }{0x1p27 + 1, 0x1p27 - 1, -0x1p54}

// fmaContracted reports whether this build fuses a*b+c. True on
// FMA-native GOARCHes (arm64, ppc64, s390x) and on amd64 when built with
// GOAMD64=v3 or higher; false on default amd64 builds. Probed at runtime
// rather than keyed on runtime.GOARCH so the golden comparison stays
// bit-exact precisely when the codegen makes that possible.
var fmaContracted = fmaProbe.a*fmaProbe.b+fmaProbe.c != 0

// matchBits reports whether got reproduces the pinned bits. On builds
// without multiply-add contraction the match must be exact; on FMA
// builds the compiler may contract a*b+c, so the kernel-tolerance tier
// (matchKernelTol) applies instead.
func matchBits(got float64, want uint64) bool {
	if !fmaContracted {
		return math.Float64bits(got) == want
	}
	return matchKernelTol(got, want)
}

// goldenEval evaluates the named fixed-seed golden world and returns its
// outcomes in ascending Kind order. copaPlus swaps the inner allocator
// for mercury/water-filling exactly as campaign.EvaluateTopology's COPA+
// pass does (power.MercuryBest, three Equi-SINR sweeps).
func goldenEval(name string, copaPlus bool) (map[Kind]Outcome, []Kind, error) {
	src := rng.New(42)
	dep := channel.NewDeployment(src.Split(1), goldenScenarios[name])
	ev := NewEvaluator(dep, channel.DefaultImpairments(), src.Split(2))
	if copaPlus {
		ev.Alloc.Inner = power.MercuryBest
		ev.Alloc.MaxIters = 3
	}
	outs, err := ev.EvaluateAll()
	if err != nil {
		return nil, nil, err
	}
	kinds := make([]Kind, 0, len(outs))
	for k := range outs {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return outs, kinds, nil
}

// checkGolden compares every outcome of one golden world against its
// pinned rows using match for the float fields.
func checkGolden(t *testing.T, name string, rows []goldenRow, copaPlus bool, match func(float64, uint64) bool) {
	t.Helper()
	outs, kinds, err := goldenEval(name, copaPlus)
	if err != nil {
		t.Fatalf("EvaluateAll: %v", err)
	}
	if len(kinds) != len(rows) {
		t.Fatalf("got %d outcomes, want %d", len(kinds), len(rows))
	}
	for i, row := range rows {
		if kinds[i] != row.kind {
			t.Fatalf("outcome %d: kind %v, want %v", i, kinds[i], row.kind)
		}
		o := outs[row.kind]
		if o.Concurrent != row.conc || o.SDA != row.sda {
			t.Errorf("%v: conc=%v sda=%v, want conc=%v sda=%v",
				row.kind, o.Concurrent, o.SDA, row.conc, row.sda)
		}
		checks := []struct {
			name string
			got  float64
			want uint64
		}{
			{"PerClient[0]", o.PerClient[0], row.pc0},
			{"PerClient[1]", o.PerClient[1], row.pc1},
			{"Predicted[0]", o.Predicted[0], row.pr0},
			{"Predicted[1]", o.Predicted[1], row.pr1},
		}
		for _, c := range checks {
			if !match(c.got, c.want) {
				t.Errorf("%v %s = %v (bits %#x), want bits %#x (%v)",
					row.kind, c.name, c.got, math.Float64bits(c.got),
					c.want, math.Float64frombits(c.want))
			}
		}
	}
}

// kernelTol is the relative tolerance of the kernel-tolerance tier.
const kernelTol = 1e-9

// matchKernelTol reports whether got is within kernelTol relative of the
// pinned value.
func matchKernelTol(got float64, want uint64) bool {
	w := math.Float64frombits(want)
	return got == w || math.Abs(got-w) <= kernelTol*math.Max(math.Abs(got), math.Abs(w))
}

// TestGoldenOutcomes proves the allocation-free evaluation path is
// numerically identical to the seed implementation: same strategies
// feasible, same Concurrent/SDA flags, same per-client and predicted
// throughputs to the last bit (on amd64).
func TestGoldenOutcomes(t *testing.T) {
	for name, rows := range goldenOutcomes {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, rows, false, matchBits)
		})
	}
}

// TestGoldenCOPAPlus pins the COPA+ pipeline's outcomes on the same
// golden worlds within the kernel-tolerance tier (DESIGN §13).
func TestGoldenCOPAPlus(t *testing.T) {
	for name, rows := range goldenCOPAPlus {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, rows, true, matchKernelTol)
		})
	}
}
