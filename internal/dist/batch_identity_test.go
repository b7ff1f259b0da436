package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"genmp/internal/grid"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

// requireBitIdentical fails unless every element of got matches want down to
// the exact float64 bit pattern: the batched kernels are drop-in replacements
// for the scalar oracle, not approximations, so the tolerance is zero.
func requireBitIdentical(t *testing.T, tag string, want, got []*grid.Grid) {
	t.Helper()
	for v := range want {
		wd, gd := want[v].Data(), got[v].Data()
		for i := range wd {
			if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
				t.Fatalf("%s: vec %d element %d: scalar %v vs batched %v",
					tag, v, i, wd[i], gd[i])
			}
		}
	}
}

// identitySolvers covers every batched kernel family: the first-order
// recurrence, the specialized tridiagonal, and the general banded code
// (pentadiagonal), whose backward pass also exercises the PassAccess masks
// that skip gathering the lower bands and scatter only the rhs.
func identitySolvers() []sweep.Solver {
	return []sweep.Solver{sweep.Recurrence{}, sweep.Tridiag{}, sweep.NewPenta()}
}

func identityGrids(t *testing.T, rng *rand.Rand, solver sweep.Solver, eta []int, dim int) []*grid.Grid {
	t.Helper()
	switch sv := solver.(type) {
	case sweep.Recurrence:
		return makeRecurrenceGrids(rng, eta)
	case sweep.Tridiag:
		return makeBandedGrids(rng, eta, 1, 1, dim)
	case sweep.Banded:
		return makeBandedGrids(rng, eta, sv.KL, sv.KU, dim)
	}
	t.Fatalf("unknown solver %T", solver)
	return nil
}

// identityBatches spans the interesting panel widths: single-line panels,
// a width that never divides the odd line counts below, and one wider than
// most cross-sections.
var identityBatches = []int{1, 7, 64}

func TestBlockSweepsBatchBitIdentical(t *testing.T) {
	p := 4
	eta := []int{13, 10, 9}
	rng := rand.New(rand.NewSource(12))
	for _, solver := range identitySolvers() {
		modes := []struct {
			name  string
			dim   int // dimension the sweep runs along
			grain int
			exec  func(b *Block, r *sim.Rank, work []*grid.Grid, grain int)
		}{
			{"local", 1, 0, func(b *Block, r *sim.Rank, work []*grid.Grid, _ int) {
				b.LocalSweep(r, 1, solver, work)
			}},
			{"wavefront", 0, 1, func(b *Block, r *sim.Rank, work []*grid.Grid, grain int) {
				b.WavefrontSweep(r, solver, work, grain)
			}},
			{"wavefront", 0, 5, func(b *Block, r *sim.Rank, work []*grid.Grid, grain int) {
				b.WavefrontSweep(r, solver, work, grain)
			}},
			{"transpose", 0, 0, func(b *Block, r *sim.Rank, work []*grid.Grid, _ int) {
				b.TransposeSweep(r, solver, work)
			}},
		}
		for _, mode := range modes {
			gs := identityGrids(t, rng, solver, eta, mode.dim)
			run := func(batch int) []*grid.Grid {
				b, err := NewBlock(p, eta, 0, HandCoded())
				if err != nil {
					t.Fatal(err)
				}
				b.Batch = batch
				work := cloneAll(gs)
				if _, err := testMachine(p).Run(func(r *sim.Rank) {
					mode.exec(b, r, work, mode.grain)
				}); err != nil {
					t.Fatalf("%s %s batch %d: %v", mode.name, solver.Name(), batch, err)
				}
				return work
			}
			want := run(-1)
			for _, batch := range identityBatches {
				tag := fmt.Sprintf("block %s grain %d %s batch %d", mode.name, mode.grain, solver.Name(), batch)
				requireBitIdentical(t, tag, want, run(batch))
			}
		}
	}
}
