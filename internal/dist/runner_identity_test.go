package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"genmp/internal/grid"
	"genmp/internal/sim"
	"genmp/internal/xport"
)

// TestSweepRunnerBatchBitIdentical proves the private-tile runner's batched path
// (including the PassAccess masks that skip untouched gathers and unwritten
// scatters) produces bitwise-identical results to the scalar per-line oracle
// for every kernel family, sweep dimension, and panel width — on odd extents
// so partial panels are exercised.
func TestSweepRunnerBatchBitIdentical(t *testing.T) {
	p, gamma, eta := 8, []int{4, 4, 2}, []int{16, 13, 9}
	env := mustTestEnv(t, p, gamma, eta)
	rng := rand.New(rand.NewSource(21))
	for _, solver := range identitySolvers() {
		for dim := range eta {
			gs := identityGrids(t, rng, solver, eta, dim)
			run := func(batch int) []*grid.Grid {
				out := make([]*grid.Grid, len(gs))
				_, err := testMachine(p).Run(func(r *sim.Rank) {
					fields := make([]*Field, len(gs))
					for v := range fields {
						fields[v] = NewField(env, r.ID, 0)
						v := v
						fields[v].FillFunc(func(g []int) float64 { return gs[v].At(g...) })
					}
					runner := NewSweepRunner(solver, fields)
					runner.Batch = batch
					runner.Run(r, dim)
					for v := range fields {
						if g := GatherToRoot(r, fields[v], xport.AlgAuto); g != nil {
							out[v] = g
						}
					}
				})
				if err != nil {
					t.Fatalf("%s dim %d batch %d: %v", solver.Name(), dim, batch, err)
				}
				return out
			}
			want := run(-1)
			for _, batch := range identityBatches {
				requireBitIdentical(t, fmt.Sprintf("%s dim %d batch %d", solver.Name(), dim, batch), want, run(batch))
			}
		}
	}
}
