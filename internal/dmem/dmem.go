// Package dmem runs SP, BT and ADI in strict distributed-memory mode on
// either backend: every rank owns private copies of its tiles (padded with
// halo shells), all boundary data moves in real message payloads, and no
// rank ever reads another rank's storage — an MPI program's execution
// model, validated elementwise against the serial references.
//
// Each run is the application's one per-rank body (nas.RunSPRank,
// nas.RunBTRank, adi.Problem.RunRank) over tiles filled from the initial
// state, followed by a gather of the final field to rank 0 over messages.
// The same body, priced the same way, produces the Table 1 model-only
// runs, so a strict run differs from a model-only one only in carrying
// data (and, under dHPF's overhead model, in not pricing replication; see
// DESIGN.md §15).
//
// Field, NewField, SweepRunner, NewSweepRunner, GatherToRoot and
// CompileSweepPlan are aliases of the dist private-tile storage, kept only
// because the benchmark module calls them by these names; code in this
// module uses dist's.
package dmem

import (
	"genmp/internal/adi"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// Field is dist.Field.
type Field = dist.Field

// SweepRunner is dist.SweepRunner.
type SweepRunner = dist.SweepRunner

// NewField is dist.NewField.
func NewField(env *dist.Env, rank, depth int) *Field { return dist.NewField(env, rank, depth) }

// NewSweepRunner is dist.NewSweepRunner.
func NewSweepRunner(solver sweep.Solver, fields []*Field) *SweepRunner {
	return dist.NewSweepRunner(solver, fields)
}

// GatherToRoot is dist.GatherToRoot.
func GatherToRoot(r xport.Transport, f *Field, alg xport.Alg) *grid.Grid {
	return dist.GatherToRoot(r, f, alg)
}

// CompileSweepPlan is dist.CompileSweepPlan.
func CompileSweepPlan(env *dist.Env, solver sweep.Solver) (*plan.SweepPlan, error) {
	return dist.CompileSweepPlan(env, solver)
}

// body is one rank's share of a strict run; it returns the rank's final
// field for the gather.
type body func(t xport.Transport) *dist.Field

// gather runs b and assembles the final field on rank 0, which writes it
// to *out.
func (b body) gather(t xport.Transport, out **grid.Grid) {
	if g := dist.GatherToRoot(t, b(t), xport.AlgAuto); g != nil {
		*out = g
	}
}

func (b body) onSim(mach *sim.Machine) (*grid.Grid, sim.Result, error) {
	var out *grid.Grid
	res, err := mach.Run(func(r *sim.Rank) { b.gather(r, &out) })
	if err != nil {
		return nil, sim.Result{}, err
	}
	return out, res, nil
}

func (b body) onRT(rm *rt.Machine) (*grid.Grid, rt.Result, error) {
	var out *grid.Grid
	res, err := rm.Run(func(r *rt.Rank) { b.gather(r, &out) })
	if err != nil {
		return nil, rt.Result{}, err
	}
	return out, res, nil
}

// compile returns pl, or when pl is nil the schedule of solver over env
// with the overlap annotation o.
func compile(env *dist.Env, solver sweep.Solver, o plan.Overlap, pl *plan.SweepPlan) (*plan.SweepPlan, error) {
	if pl != nil {
		return pl, nil
	}
	return dist.CompileSweepPlanOverlap(env, solver, o)
}

// RunSP executes the SP pseudo-application in strict distributed-memory
// mode. The returned grid (non-nil only from the outer call, assembled on
// rank 0) is Float64bits-identical to nas.SerialSolve.
//
// Every tile must be at least nas.StencilReach (2) cells thick in every cut
// dimension so a single neighbor's face covers the stencil reach.
func RunSP(env *dist.Env, mach *sim.Machine, steps int) (*grid.Grid, sim.Result, error) {
	return RunSPOverlap(env, mach, steps, plan.Overlap{})
}

// RunSPOverlap is RunSP with the boundary-first overlap schedule: the sweep
// plan is compiled with the overlap annotation (each phase solves its
// boundary lines, posts the carry with Isend and solves the interior while
// the message flies), and the stencil halos pipeline across timesteps. The
// final field is bit-identical to RunSP; the zero Overlap reproduces it
// exactly.
func RunSPOverlap(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	b, err := spBody(env, steps, o, nil)
	if err != nil {
		return nil, sim.Result{}, err
	}
	return b.onSim(mach)
}

// RunSPReal executes SP on the real-parallel runtime: the same per-rank
// body, measured in wall-clock time. pl is the schedule to execute —
// typically shipped via obs.WritePlanJSON/obs.PlanFromJSON so workers load
// rather than recompile it; nil compiles locally under o. Halo pipelining
// follows the plan's own overlap annotation. The final field is
// Float64bits-identical to RunSPOverlap's.
func RunSPReal(env *dist.Env, rm *rt.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	b, err := spBody(env, steps, o, pl)
	if err != nil {
		return nil, rt.Result{}, err
	}
	return b.onRT(rm)
}

func spBody(env *dist.Env, steps int, o plan.Overlap, pl *plan.SweepPlan) (body, error) {
	if err := env.CheckHalo(nas.StencilReach); err != nil {
		return nil, err
	}
	pl, err := compile(env, sweep.NewPenta(), o, pl)
	if err != nil {
		return nil, err
	}
	init := func(f *dist.Field) { f.FillFunc(nas.InitialAt(env.Eta)) }
	return func(t xport.Transport) *dist.Field { return nas.RunSPRank(t, env, pl, steps, init) }, nil
}

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
	b, err := btBody(env, steps, o, nil)
	if err != nil {
		return nil, sim.Result{}, err
	}
	return b.onSim(mach)
}

// RunBTReal executes BT on the real-parallel runtime (see RunSPReal). pl
// nil compiles the schedule locally; the final field is Float64bits-
// identical to RunBTOverlap's.
func RunBTReal(env *dist.Env, rm *rt.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	b, err := btBody(env, steps, o, pl)
	if err != nil {
		return nil, rt.Result{}, err
	}
	return b.onRT(rm)
}

func btBody(env *dist.Env, steps int, o plan.Overlap, pl *plan.SweepPlan) (body, error) {
	if err := env.CheckHalo(nas.StencilReach); err != nil {
		return nil, err
	}
	pl, err := compile(env, sweep.NewBlockTridiag(nas.BTBlockSize), o, pl)
	if err != nil {
		return nil, err
	}
	init := func(f *dist.Field) { f.FillFunc(nas.InitialAt(env.Eta)) }
	return func(t xport.Transport) *dist.Field { return nas.RunBTRank(t, env, pl, steps, init) }, nil
}

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
	b, err := adiBody(pb, env, o, nil)
	if err != nil {
		return nil, sim.Result{}, err
	}
	return b.onSim(mach)
}

// RunADIReal executes ADI on the real-parallel runtime (see RunSPReal). pl
// nil compiles the schedule locally; the final field is Float64bits-
// identical to RunADIOverlap's.
func RunADIReal(pb adi.Problem, env *dist.Env, rm *rt.Machine, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
	b, err := adiBody(pb, env, o, pl)
	if err != nil {
		return nil, rt.Result{}, err
	}
	return b.onRT(rm)
}

func adiBody(pb adi.Problem, env *dist.Env, o plan.Overlap, pl *plan.SweepPlan) (body, error) {
	pl, err := compile(env, sweep.Tridiag{}, o, pl)
	if err != nil {
		return nil, err
	}
	init := func(f *dist.Field) { f.FillFunc(pb.InitialAt) }
	return func(t xport.Transport) *dist.Field { return pb.RunRank(t, env, pl, init) }, nil
}
