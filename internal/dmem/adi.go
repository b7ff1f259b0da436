package dmem

import (
	"genmp/internal/adi"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// RunADI executes the ADI heat integration in strict distributed-memory
// mode: tridiagonal half-steps along every dimension with per-rank private
// storage and payload-borne carries. ADI's stencil-free coefficient builds
// need no halos at all, so the only communication is the sweep carries plus
// the final gather. The returned grid (rank 0) matches
// adi.Problem.SerialSolve elementwise.
func RunADI(pb adi.Problem, env *dist.Env, mach *sim.Machine) (*grid.Grid, sim.Result, error) {
	return RunADIOverlap(pb, env, mach, plan.Overlap{})
}

// RunADIOverlap is RunADI under the boundary-first overlap schedule (ADI
// has no stencil halos, so the sweep carries are the only pipelined
// traffic); the final field is bit-identical to RunADI.
func RunADIOverlap(pb adi.Problem, env *dist.Env, mach *sim.Machine, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	solver := sweep.Tridiag{}
	sweepPlan, err := CompileSweepPlanOverlap(env, solver, o)
	if err != nil {
		return nil, sim.Result{}, err
	}
	var out *grid.Grid
	body := adiBody(pb, env, sweepPlan, &out)
	res, err := mach.Run(func(r *sim.Rank) { body(r) })
	if err != nil {
		return nil, sim.Result{}, err
	}
	return out, res, nil
}

// RunADIReal executes ADI on the real-parallel runtime (see RunSPReal). pl
// nil compiles the schedule locally; the final field is Float64bits-
// identical to RunADIOverlap's.
func RunADIReal(pb adi.Problem, env *dist.Env, rm *rt.Machine, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	if pl == nil {
		var err error
		if pl, err = CompileSweepPlanOverlap(env, sweep.Tridiag{}, o); err != nil {
			return nil, rt.Result{}, err
		}
	}
	var out *grid.Grid
	body := adiBody(pb, env, pl, &out)
	res, err := rm.Run(func(r *rt.Rank) { body(r) })
	if err != nil {
		return nil, rt.Result{}, err
	}
	return out, res, nil
}

// adiBody builds the per-rank body of the ADI strict run, shared by both
// backends. Only rank 0 writes *out.
func adiBody(pb adi.Problem, env *dist.Env, sweepPlan *plan.SweepPlan, out **grid.Grid) func(t xport.Transport) {
	solver := sweep.Tridiag{}
	return func(t xport.Transport) {
		u := NewField(env, t.Rank(), 0)
		u.FillFunc(pb.InitialAt)
		vecs := make([]*Field, solver.NumVecs()) // lower, diag, upper, rhs
		for v := range vecs {
			vecs[v] = NewField(env, t.Rank(), 0)
		}
		runner := NewSweepRunner(solver, vecs)
		runner.Plan = sweepPlan
		const buildFlops = 4
		for step := 0; step < pb.Steps; step++ {
			for dim := range pb.Eta {
				strictFillADI(pb, dim, u, vecs)
				t.ComputeFlops(buildFlops * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
				runner.Run(t, dim)
				strictCopy(vecs[3], u)
				t.ComputeFlops(1 * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
			}
		}
		if g := GatherToRoot(t, u, xport.AlgAuto); g != nil {
			*out = g
		}
	}
}

// strictFillADI assembles the half-step coefficients over every owned tile:
// lower = upper = −α (zeroed at the physical boundary), diag = 1+2α, and
// rhs = u — the same arithmetic as adi.Problem.fillCoefficients.
func strictFillADI(pb adi.Problem, dim int, u *Field, vecs []*Field) {
	a := pb.Alpha
	n := pb.Eta[dim]
	for i := 0; i < u.NumTiles(); i++ {
		b := u.GlobalBounds(i)
		start := b.Lo[dim]
		ug := u.TileGrid(i)
		grids := make([]*grid.Grid, 4)
		data := make([][]float64, 4)
		for v := 0; v < 4; v++ {
			grids[v] = vecs[v].TileGrid(i)
			data[v] = grids[v].Data()
		}
		ud := ug.Data()
		interior := vecs[0].InteriorRect(i)
		grids[0].EachLine(interior, dim, func(l grid.Line) {
			off := l.Base
			for k := 0; k < l.N; k++ {
				g := start + k
				if g == 0 {
					data[0][off] = 0
				} else {
					data[0][off] = -a
				}
				data[1][off] = 1 + 2*a
				if g == n-1 {
					data[2][off] = 0
				} else {
					data[2][off] = -a
				}
				data[3][off] = ud[off] // u has depth 0 here: same layout
				off += l.Stride
			}
		})
	}
}

// strictCopy copies src interiors into dst interiors (same depth-0 layout).
func strictCopy(src, dst *Field) {
	for i := 0; i < src.NumTiles(); i++ {
		copy(dst.TileGrid(i).Data(), src.TileGrid(i).Data())
	}
}
