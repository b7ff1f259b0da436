package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"genmp/internal/grid"
	"genmp/internal/sim"
	"genmp/internal/sweep"
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

// TestSweepRunnerPaddedFieldsBitIdentical runs the runner over fields with
// halos: all of one depth, where a batch's lines are a progression in every
// vec only when they stay inside one run of the padded storage, and of
// mixed depths, where the vecs' strides differ so no batch of more than
// one line is solved in place. Either way the batched path must match the
// scalar oracle bit for bit.
func TestSweepRunnerPaddedFieldsBitIdentical(t *testing.T) {
	p, gamma, eta := 2, []int{1, 2, 2}, []int{12, 16, 8}
	env := mustTestEnv(t, p, gamma, eta)
	rng := rand.New(rand.NewSource(5))
	solver := sweep.Tridiag{}
	for _, depths := range [][]int{{2, 2, 2, 2}, {1, 0, 2, 0}} {
		for dim := range eta {
			gs := identityGrids(t, rng, solver, eta, dim)
			run := func(batch int) []*grid.Grid {
				out := make([]*grid.Grid, len(gs))
				_, err := testMachine(p).Run(func(r *sim.Rank) {
					fields := make([]*Field, len(gs))
					for v := range fields {
						fields[v] = NewField(env, r.ID, depths[v])
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
					t.Fatalf("depths %v dim %d batch %d: %v", depths, dim, batch, err)
				}
				return out
			}
			want := run(-1)
			for _, batch := range append([]int{0}, identityBatches...) {
				requireBitIdentical(t, fmt.Sprintf("depths %v dim %d batch %d", depths, dim, batch), want, run(batch))
			}
		}
	}
}

// TestSweepRunnerInPlaceGeometry pins which batches the runner solves in
// place. With SP class A's tile cross-section at p = 2 (tiles 4×32×32 of
// γ 1×2×2 here, 64×32×32 in class A), every 32-line batch along every
// axis is an arithmetic progression in storage, so no sweep acquires the
// arena. ADI 12³ at p = 2 (tiles 12×6×6) solves dims 0 and 2 in place and
// packs along dim 1, whose lines come in runs of 6.
func TestSweepRunnerInPlaceGeometry(t *testing.T) {
	cases := []struct {
		eta    []int
		solver sweep.Solver
		packs  []bool // per dim
	}{
		{[]int{4, 64, 64}, sweep.NewPenta(), []bool{false, false, false}},
		{[]int{12, 12, 12}, sweep.Tridiag{}, []bool{false, true, false}},
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range cases {
		env := mustTestEnv(t, 2, []int{1, 2, 2}, c.eta)
		for dim, packs := range c.packs {
			gs := identityGrids(t, rng, c.solver, c.eta, dim)
			gets := make([]int64, 2)
			if _, err := testMachine(2).Run(func(r *sim.Rank) {
				fields := make([]*Field, len(gs))
				for v := range fields {
					fields[v] = NewField(env, r.ID, 0)
					fields[v].Load(gs[v])
				}
				runner := NewSweepRunner(c.solver, fields)
				runner.Run(r, dim)
				gets[r.ID] = runner.WorkspaceStats().Gets
			}); err != nil {
				t.Fatal(err)
			}
			for q, n := range gets {
				if (n > 0) != packs {
					t.Errorf("η %v %s dim %d rank %d: %d arena acquisitions, want packing %v", c.eta, c.solver.Name(), dim, q, n, packs)
				}
			}
		}
	}
}
