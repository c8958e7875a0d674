package passes

import (
	"math"
	"testing"

	"dae/internal/fuzzgen"
	"dae/internal/interp"
	"dae/internal/lower"
)

// TestSimplifyCFGDuplicateEdgeSeeds: fuzzgen tasks whose lowering leaves a
// conditional branch with both arms on one empty forwarding block. Jump
// threading used to give the target's phis one incoming value per edge of
// that duplicate pair, so the optimized module failed Verify. Each seed must
// now optimize to valid IR that leaves the same memory as the unoptimized
// module.
func TestSimplifyCFGDuplicateEdgeSeeds(t *testing.T) {
	for _, seed := range []int64{9437252, 7140, 7547} {
		src := fuzzgen.New(seed).Task()
		run := func(optimize bool) []float64 {
			m, err := lower.Compile(src, "fuzz")
			if err != nil {
				t.Fatalf("seed %d: compile: %v", seed, err)
			}
			if optimize {
				if _, err := OptimizeModule(m); err != nil {
					t.Fatalf("seed %d: optimize: %v", seed, err)
				}
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("seed %d (optimized=%t): %v\nsource:\n%s", seed, optimize, err, src)
			}
			h := interp.NewHeap()
			a, b, idx := h.AllocFloat("A", fuzzgen.N), h.AllocFloat("B", fuzzgen.N), h.AllocInt("I", fuzzgen.N)
			for k := 0; k < fuzzgen.N; k++ {
				a.F[k], b.F[k], idx.I[k] = float64(k%17)-8, float64(k%5)/4, int64(k*7%fuzzgen.N)
			}
			env := interp.NewEnv(interp.NewProgram(m), nil)
			if _, err := env.Call(m.Func("fuzz"), interp.Ptr(a), interp.Ptr(b), interp.Ptr(idx),
				interp.Int(fuzzgen.N), interp.Int(13), interp.Int(-7)); err != nil {
				t.Fatalf("seed %d (optimized=%t): run: %v", seed, optimize, err)
			}
			mem := append(append([]float64{}, a.F...), b.F...)
			for _, v := range idx.I {
				mem = append(mem, float64(v))
			}
			return mem
		}
		ref, opt := run(false), run(true)
		for k := range ref {
			if math.Float64bits(ref[k]) != math.Float64bits(opt[k]) {
				t.Fatalf("seed %d: optimization changed memory word %d: %v != %v", seed, k, opt[k], ref[k])
			}
		}
	}
}
