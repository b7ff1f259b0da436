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

// RunSP executes the SP pseudo-application in strict distributed-memory
// mode: every rank holds private padded copies of its tiles, stencil halos
// and sweep carries move in real message payloads, and the final state is
// gathered to rank 0 over messages. The returned grid (non-nil only from
// the outer call, assembled on rank 0) matches nas.SerialSolve elementwise.
//
// Every tile must be at least haloDepth (2) cells thick in every cut
// dimension so a single neighbor's face covers the stencil reach.
func RunSP(env *dist.Env, mach *sim.Machine, steps int) (*grid.Grid, sim.Result, error) {
	return RunSPOverlap(env, mach, steps, plan.Overlap{})
}

// RunSPOverlap is RunSP with the boundary-first overlap schedule: the sweep
// plan is compiled with the overlap annotation (each phase solves its
// boundary lines, posts the carry with Isend and solves the interior while
// the message flies), and the stencil halos pipeline across timesteps (each
// step preposts the next step's halo receives before the add phase). The
// final field is bit-identical to RunSP; the zero Overlap reproduces it
// exactly.
func RunSPOverlap(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	if err := spCheck(env); err != nil {
		return nil, sim.Result{}, err
	}
	solver := sweep.NewPenta()
	sweepPlan, err := CompileSweepPlanOverlap(env, solver, o)
	if err != nil {
		return nil, sim.Result{}, err
	}
	var out *grid.Grid
	body := spBody(env, solver, sweepPlan, steps, o, &out)
	res, err := mach.Run(func(r *sim.Rank) { body(r) })
	if err != nil {
		return nil, sim.Result{}, err
	}
	return out, res, nil
}

// RunSPReal executes SP on the real-parallel runtime: the same per-rank
// body, the same compiled schedule, measured in wall-clock time. pl is the
// schedule to execute — typically shipped via obs.WritePlanJSON/
// obs.PlanFromJSON so workers load rather than recompile it; nil compiles
// locally. The final field is Float64bits-identical to RunSPOverlap's.
func RunSPReal(env *dist.Env, rm *rt.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	if err := spCheck(env); err != nil {
		return nil, rt.Result{}, err
	}
	solver := sweep.NewPenta()
	if pl == nil {
		var err error
		if pl, err = CompileSweepPlanOverlap(env, solver, o); err != nil {
			return nil, rt.Result{}, err
		}
	}
	var out *grid.Grid
	body := spBody(env, solver, pl, steps, o, &out)
	res, err := rm.Run(func(r *rt.Rank) { body(r) })
	if err != nil {
		return nil, rt.Result{}, err
	}
	return out, res, nil
}

// spHaloDepth is the stencil reach of the SP pseudo-application.
const spHaloDepth = 2

// spCheck validates that every tile is thick enough for the halo depth.
func spCheck(env *dist.Env) error {
	gamma := env.M.Gamma()
	for dim := range env.Eta {
		if gamma[dim] > 1 && env.Eta[dim]/gamma[dim] < spHaloDepth {
			return fmt.Errorf("dmem: tiles along dim %d are thinner than the halo depth %d", dim, spHaloDepth)
		}
	}
	return nil
}

// spBody builds the per-rank body of the SP strict run — shared verbatim
// by the simulator and real-parallel backends, so schedule and data flow
// cannot drift between them. Only rank 0 writes *out (the gathered grid).
func spBody(env *dist.Env, solver sweep.Solver, sweepPlan *plan.SweepPlan, steps int, o plan.Overlap, out **grid.Grid) func(t xport.Transport) {
	return func(t xport.Transport) {
		u := NewField(env, t.Rank(), spHaloDepth)
		u.FillFunc(initialAt(env.Eta))
		vecs := make([]*Field, solver.NumVecs())
		for v := range vecs {
			vecs[v] = NewField(env, t.Rank(), 0)
		}
		rhs := vecs[5]
		sc := newStepScratch(u, rhs)
		runner := NewSweepRunner(solver, vecs)
		runner.Plan = sweepPlan

		var haloPre []xport.Request
		for step := 0; step < steps; step++ {
			u.ExchangeHalosPiped(t, haloPre)
			haloPre = nil
			t.Compute(env.Overhead.PerTileVisit * float64(u.NumTiles()))
			strictComputeRHS(u, rhs, sc)
			t.ComputeFlops(nas.FlopsRHS * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
			for dim := range env.Eta {
				strictBuildLHS(dim, env.Eta[dim], vecs, sc)
				t.ComputeFlops(nas.FlopsLHSBuild * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
				runner.Run(t, dim)
			}
			if o.Enabled && step+1 < steps {
				haloPre = u.PostHaloRecvs(t)
			}
			strictAdd(u, rhs, sc)
			t.ComputeFlops(nas.FlopsAdd * float64(ownedElements(u)) * env.Overhead.ComputeFactor)
		}
		if g := GatherToRoot(t, u, xport.AlgAuto); g != nil {
			*out = g
		}
	}
}

// initialAt evaluates nas.InitialState's formula pointwise so every rank
// initializes its own tiles without touching shared data.
func initialAt(eta []int) func(global []int) float64 {
	return func(idx []int) float64 {
		v := 1.0
		for i, x := range idx {
			v += float64((x+1)*(i+2)) / float64(eta[i]*(i+3))
		}
		return v
	}
}

func ownedElements(f *Field) int {
	n := 0
	for i := 0; i < f.NumTiles(); i++ {
		n += f.GlobalBounds(i).Size()
	}
	return n
}

// stepScratch is one rank's reusable state for the SP and BT step loops,
// built once per run so the loops enumerate no lines and allocate nothing
// per step.
type stepScratch struct {
	// uRows[i] and fRows[i] are local tile i's last-axis rows of the
	// padded u and of the unpadded fields (rhs and the solve vectors share
	// one geometry).
	uRows, fRows [][]grid.Line
	// uStride and global are strictComputeRHS's coordinate scratch.
	uStride, global []int
	// band is strictBuildLHS's table: per band, nas.BandRow's value at
	// each position along the solve dimension; grown on first use.
	band []float64
}

// newStepScratch builds the scratch of the rank owning u and f, where f is
// any of the rank's unpadded fields.
func newStepScratch(u, f *Field) *stepScratch {
	d := len(u.Env.Eta)
	sc := &stepScratch{
		uRows: make([][]grid.Line, u.NumTiles()), fRows: make([][]grid.Line, f.NumTiles()),
		uStride: make([]int, d), global: make([]int, d),
	}
	for i := range sc.uRows {
		sc.uRows[i] = u.TileGrid(i).AppendLines(u.InteriorRect(i), d-1, nil)
		sc.fRows[i] = f.TileGrid(i).AppendLines(f.InteriorRect(i), d-1, nil)
	}
	return sc
}

// strictComputeRHS evaluates the SP stencil over every owned tile reading
// only the rank's private padded storage. Domain-boundary reads clamp
// exactly as the serial nas.ComputeRHS does.
func strictComputeRHS(u *Field, rhs *Field, sc *stepScratch) {
	env := u.Env
	d := len(env.Eta)
	uStride, global := sc.uStride, sc.global
	for i := 0; i < u.NumTiles(); i++ {
		ud := u.TileGrid(i).Data()
		rd := rhs.TileGrid(i).Data()
		// Strides of the padded u grid.
		s := 1
		for k := d - 1; k >= 0; k-- {
			uStride[k] = s
			s *= u.shapes[i][k]
		}
		// Walk u's interior and rhs's interior in lockstep (same shape,
		// different padding).
		rhsLines := sc.fRows[i]
		for li, l := range sc.uRows[i] {
			rl := rhsLines[li]
			u.localToGlobal(i, l.Base, global)
			uOff := l.Base
			rOff := rl.Base
			for k := 0; k < l.N; k++ {
				acc := 0.0
				for dim := 0; dim < d; dim++ {
					g := global[dim]
					n := env.Eta[dim]
					at := func(delta int) float64 {
						cc := g + delta
						if cc < 0 {
							cc = 0
						}
						if cc >= n {
							cc = n - 1
						}
						return ud[uOff+(cc-g)*uStride[dim]]
					}
					acc += nas.StencilTerm(at(-2), at(-1), at(0), at(1), at(2))
				}
				rd[rOff] = acc
				uOff += l.Stride
				rOff += rl.Stride
				global[d-1]++
			}
			global[d-1] -= l.N
		}
	}
}

// strictBuildLHS assembles the pentadiagonal bands along dim over every
// owned tile from the global row formula (identical to nas.BuildLHS). The
// coefficients depend only on the position along dim, so each tile
// evaluates nas.BandRow once per position into the rank's band table, then
// writes the five band fields in storage order, one last-axis row at a
// time: a copy of the table when dim is the last axis, a constant fill
// otherwise.
func strictBuildLHS(dim, n int, vecs []*Field, sc *stepScratch) {
	last := len(vecs[0].Env.Eta) - 1
	for i := 0; i < vecs[0].NumTiles(); i++ {
		b := vecs[0].GlobalBounds(i)
		ext := b.Hi[dim] - b.Lo[dim]
		if len(sc.band) < 5*ext {
			sc.band = make([]float64, 5*ext)
		}
		band := sc.band[:5*ext]
		for k := 0; k < ext; k++ {
			band[k], band[ext+k], band[2*ext+k], band[3*ext+k], band[4*ext+k] = nas.BandRow(b.Lo[dim]+k, dim, n)
		}
		// The rows run over the other dimensions in row-major order, so
		// the position along dim < last advances every inner rows.
		inner := 1
		for j := dim + 1; j < last; j++ {
			inner *= b.Hi[j] - b.Lo[j]
		}
		for v := 0; v < 5; v++ {
			tab := band[v*ext : (v+1)*ext]
			data := vecs[v].TileGrid(i).Data()
			for r, l := range sc.fRows[i] {
				row := data[l.Base : l.Base+l.N]
				if dim == last {
					copy(row, tab)
					continue
				}
				c := tab[r/inner%ext]
				for x := range row {
					row[x] = c
				}
			}
		}
	}
}

// strictAdd folds rhs into u over every owned tile (different paddings).
func strictAdd(u *Field, rhs *Field, sc *stepScratch) {
	for i := 0; i < u.NumTiles(); i++ {
		ud := u.TileGrid(i).Data()
		rd := rhs.TileGrid(i).Data()
		rhsLines := sc.fRows[i]
		for li, l := range sc.uRows[i] {
			rl := rhsLines[li]
			uOff, rOff := l.Base, rl.Base
			for k := 0; k < l.N; k++ {
				ud[uOff] += rd[rOff]
				uOff += l.Stride
				rOff += rl.Stride
			}
		}
	}
}
