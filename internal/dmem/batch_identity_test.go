package dmem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"genmp/internal/grid"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// strictIdentityGrids builds the global reference system for one solver: a
// diagonally dominant random banded system (band entries reaching outside a
// line along dim zeroed) or the [a, x] pair of the first-order recurrence.
func strictIdentityGrids(rng *rand.Rand, solver sweep.Solver, eta []int, dim int) []*grid.Grid {
	if _, ok := solver.(sweep.Recurrence); ok {
		a := grid.New(eta...)
		x := grid.New(eta...)
		a.FillFunc(func([]int) float64 { return rng.Float64()*1.6 - 0.8 })
		x.FillFunc(func([]int) float64 { return rng.Float64()*4 - 2 })
		return []*grid.Grid{a, x}
	}
	kl, ku := 1, 1
	if sv, ok := solver.(sweep.Banded); ok {
		kl, ku = sv.KL, sv.KU
	}
	gs := make([]*grid.Grid, kl+ku+2)
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	n := eta[dim]
	for k := 1; k <= kl; k++ {
		k := k
		gs[k-1].FillFunc(func(idx []int) float64 {
			if idx[dim] < k {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[kl].FillFunc(func([]int) float64 { return 4 + float64(kl+ku) + rng.Float64() })
	for u := 1; u <= ku; u++ {
		u := u
		gs[kl+u].FillFunc(func(idx []int) float64 {
			if idx[dim] >= n-u {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[kl+ku+1].FillFunc(func([]int) float64 { return rng.Float64()*10 - 5 })
	return gs
}

// TestSweepRunnerBatchBitIdentical proves the strict runner's batched path
// (including the PassAccess masks that skip untouched gathers and unwritten
// scatters) produces bitwise-identical results to the scalar per-line oracle
// for every kernel family, sweep dimension, and panel width — on odd extents
// so partial panels are exercised.
func TestSweepRunnerBatchBitIdentical(t *testing.T) {
	p, gamma, eta := 8, []int{4, 4, 2}, []int{16, 13, 9}
	env := mustEnv(t, p, gamma, eta)
	rng := rand.New(rand.NewSource(21))
	for _, solver := range []sweep.Solver{sweep.Recurrence{}, sweep.Tridiag{}, sweep.NewPenta()} {
		for dim := range eta {
			gs := strictIdentityGrids(rng, solver, eta, dim)
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
			for _, batch := range []int{1, 7, 64} {
				got := run(batch)
				for v := range want {
					wd, gd := want[v].Data(), got[v].Data()
					for i := range wd {
						if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
							t.Fatal(fmt.Sprintf("%s dim %d batch %d: vec %d element %d: scalar %v vs batched %v",
								solver.Name(), dim, batch, v, i, wd[i], gd[i]))
						}
					}
				}
			}
		}
	}
}
