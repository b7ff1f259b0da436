package dmem

import (
	"fmt"

	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// RunBT executes the BT pseudo-application (5×5 block tridiagonal line
// solves) in strict distributed-memory mode. The returned grid (rank 0)
// matches nas.BTSerialSolve elementwise.
func RunBT(env *dist.Env, mach *sim.Machine, steps int) (*grid.Grid, sim.Result, error) {
	return RunBTOverlap(env, mach, steps, plan.Overlap{})
}

// RunBTOverlap is RunBT under the boundary-first overlap schedule with
// cross-timestep halo pipelining (see RunSPOverlap); the final field is
// bit-identical to RunBT.
func RunBTOverlap(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	if err := btCheck(env); err != nil {
		return nil, sim.Result{}, err
	}
	solver := sweep.NewBlockTridiag(nas.BTBlockSize)
	sweepPlan, err := CompileSweepPlanOverlap(env, solver, o)
	if err != nil {
		return nil, sim.Result{}, err
	}
	var out *grid.Grid
	body := btBody(env, solver, sweepPlan, steps, o, &out)
	res, err := mach.Run(func(r *sim.Rank) { body(r) })
	if err != nil {
		return nil, sim.Result{}, err
	}
	return out, res, nil
}

// RunBTReal executes BT on the real-parallel runtime (see RunSPReal). pl
// nil compiles the schedule locally; the final field is Float64bits-
// identical to RunBTOverlap's.
func RunBTReal(env *dist.Env, rm *rt.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	if err := btCheck(env); err != nil {
		return nil, rt.Result{}, err
	}
	solver := sweep.NewBlockTridiag(nas.BTBlockSize)
	if pl == nil {
		var err error
		if pl, err = CompileSweepPlanOverlap(env, solver, o); err != nil {
			return nil, rt.Result{}, err
		}
	}
	var out *grid.Grid
	body := btBody(env, solver, pl, steps, o, &out)
	res, err := rm.Run(func(r *rt.Rank) { body(r) })
	if err != nil {
		return nil, rt.Result{}, err
	}
	return out, res, nil
}

// btCheck validates tile thickness against the BT halo depth.
func btCheck(env *dist.Env) error {
	const haloDepth = 2
	gamma := env.M.Gamma()
	for dim := range env.Eta {
		if gamma[dim] > 1 && env.Eta[dim]/gamma[dim] < haloDepth {
			return fmt.Errorf("dmem: tiles along dim %d are thinner than the halo depth %d", dim, haloDepth)
		}
	}
	return nil
}

// btBody builds the per-rank body of the BT strict run, shared by both
// backends. Only rank 0 writes *out.
func btBody(env *dist.Env, solver sweep.Solver, sweepPlan *plan.SweepPlan, steps int, o plan.Overlap, out **grid.Grid) func(t xport.Transport) {
	const haloDepth = 2
	bb := nas.BTBlockSize * nas.BTBlockSize
	return func(t xport.Transport) {
		u := NewField(env, t.Rank(), haloDepth)
		u.FillFunc(initialAt(env.Eta))
		rhs := NewField(env, t.Rank(), 0)
		vecs := make([]*Field, solver.NumVecs())
		for v := range vecs {
			vecs[v] = NewField(env, t.Rank(), 0)
		}
		fvecs := vecs[3*bb:]
		sc := newStepScratch(u, rhs)
		runner := NewSweepRunner(solver, vecs)
		runner.Plan = sweepPlan

		var haloPre []xport.Request
		for step := 0; step < steps; step++ {
			u.ExchangeHalosPiped(t, haloPre)
			haloPre = nil
			strictComputeRHS(u, rhs, sc)
			strictScatterBTRHS(rhs, fvecs)
			t.ComputeFlops(nas.BTFlopsRHS * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
			for dim := range env.Eta {
				strictBuildBTLHS(dim, env.Eta[dim], vecs)
				t.ComputeFlops(nas.BTFlopsLHSBuild * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
				runner.Run(t, dim)
			}
			if o.Enabled && step+1 < steps {
				haloPre = u.PostHaloRecvs(t)
			}
			strictAdd(u, fvecs[0], sc)
			t.ComputeFlops(nas.BTFlopsAdd * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
		}
		if g := GatherToRoot(t, u, xport.AlgAuto); g != nil {
			*out = g
		}
	}
}

// strictScatterBTRHS copies the scalar stencil output into the B solution
// components with the same scaling as nas.btScatterRHS.
func strictScatterBTRHS(rhs *Field, fvecs []*Field) {
	for i := 0; i < rhs.NumTiles(); i++ {
		src := rhs.TileGrid(i).Data()
		for c, f := range fvecs {
			dst := f.TileGrid(i).Data()
			scale := 1 + 0.1*float64(c)
			for k, v := range src {
				dst[k] = v * scale
			}
		}
	}
}

// strictBuildBTLHS assembles the block coefficients per owned tile from the
// same global formula as nas.BuildBlockLHS.
func strictBuildBTLHS(dim, n int, vecs []*Field) {
	const b = nas.BTBlockSize
	bb := b * b
	f := vecs[0]
	for i := 0; i < f.NumTiles(); i++ {
		bnd := f.GlobalBounds(i)
		start := bnd.Lo[dim]
		data := make([][]float64, 3*bb)
		for v := range data {
			data[v] = vecs[v].TileGrid(i).Data()
		}
		ref := f.TileGrid(i)
		ref.EachLine(f.InteriorRect(i), dim, func(l grid.Line) {
			off := l.Base
			for k := 0; k < l.N; k++ {
				g := start + k
				for r := 0; r < b; r++ {
					rowSum := 0.0
					for c := 0; c < b; c++ {
						av, cv := 0.0, 0.0
						if g >= 1 {
							av = nas.BTCoeff(g+dim, r, c, 0)
						}
						if g < n-1 {
							cv = nas.BTCoeff(g+dim, r, c, 1)
						}
						data[r*b+c][off] = av
						data[2*bb+r*b+c][off] = cv
						rowSum += abs(av) + abs(cv)
						if c != r {
							bv := nas.BTCoeff(g+dim, r, c, 2)
							data[bb+r*b+c][off] = bv
							rowSum += abs(bv)
						}
					}
					data[bb+r*b+r][off] = rowSum + 1.5
				}
				off += l.Stride
			}
		})
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
