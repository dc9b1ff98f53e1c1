package linalg

import (
	"math/rand"
	"testing"
)

// TestWorkspaceKernelAllocBudgets pins the steady-state allocation budget
// of the workspace-backed kernels at zero: after one warm-up call grows
// the arena chunks, repeated Reset+call cycles must not allocate.
func TestWorkspaceKernelAllocBudgets(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a := randomMatrix(r, 4, 4)
	herm := a.Mul(a.H()) // Hermitian PSD
	tall := randomMatrix(r, 4, 3)
	wide := tall.H()
	rhs := make([]complex128, 4)
	for i := range rhs {
		rhs[i] = complex(r.NormFloat64(), r.NormFloat64())
	}

	kernels := []struct {
		name string
		run  func(ws *Workspace)
	}{
		{"EigHermitianWS", func(ws *Workspace) { herm.EigHermitianWS(ws) }},
		{"SVDWS", func(ws *Workspace) { tall.SVDWS(ws) }},
		{"SolveWS", func(ws *Workspace) {
			if _, err := herm.SolveWS(ws, rhs); err != nil {
				t.Fatalf("SolveWS: %v", err)
			}
		}},
		{"NullspaceWS", func(ws *Workspace) { wide.NullspaceWS(ws, 1e-9) }},
	}
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			var ws Workspace
			k.run(&ws) // warm up the arena
			allocs := testing.AllocsPerRun(100, func() {
				ws.Reset()
				k.run(&ws)
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs/run in steady state, want 0", k.name, allocs)
			}
		})
	}
}

// TestWorkspaceCarveReuse checks that reused carves come back zeroed and
// that Reset actually rewinds rather than growing.
func TestWorkspaceCarveReuse(t *testing.T) {
	var ws Workspace
	c := ws.Complex(8)
	for i := range c {
		c[i] = complex(float64(i)+1, 0)
	}
	f := ws.Float64s(5)
	for i := range f {
		f[i] = float64(i) + 1
	}
	ws.Reset()
	c2 := ws.Complex(8)
	for i, v := range c2 {
		if v != 0 {
			t.Fatalf("reused complex carve not cleared at %d: %v", i, v)
		}
	}
	if &c[0] != &c2[0] {
		t.Error("Reset did not rewind the complex arena to the same storage")
	}
	f2 := ws.Float64s(5)
	for i, v := range f2 {
		if v != 0 {
			t.Fatalf("reused float carve not cleared at %d: %v", i, v)
		}
	}
}
