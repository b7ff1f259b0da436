// Package dmem runs SP, BT and ADI in strict distributed-memory mode on
// either backend: every rank owns private copies of its tiles (padded with
// halo shells), all boundary data moves in real message payloads, and no
// rank ever reads another rank's storage — an MPI program's execution
// model, validated elementwise against the serial references.
//
// There is one entry point per workload (RunSP, RunBT, RunADI), which takes
// any machine: the simulator, or rt's, which is the simulator's without a
// cost model. Each run is the application's one per-rank body
// (nas.RunSPRank, nas.RunBTRank, adi.Problem.RunRank) over tiles filled
// from the initial state, followed by a gather of the final field to rank 0
// over messages. The same body, priced the same way, produces the Table 1
// model-only runs, so a strict run differs from a model-only one only in
// carrying data (and, under dHPF's overhead model, in not pricing
// replication; see DESIGN.md §15).
//
// Field, NewField, SweepRunner, NewSweepRunner, GatherToRoot and
// CompileSweepPlan are aliases of the dist private-tile storage, and the
// Run*Overlap and Run*Real wrappers spellings of the three entry points,
// kept only because the benchmark module and the rt identity tests call
// them by these names; other code in this module uses dist's and RunSP,
// RunBT and RunADI.
package dmem

import (
	"genmp/internal/adi"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
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

// RunSP executes the SP pseudo-application in strict distributed-memory
// mode on mach: the simulator, or rt's machine for wall time. pl is the
// schedule to execute — e.g. shipped via obs.WritePlanJSON/obs.LoadPlan so
// workers load rather than recompile it; nil compiles it under o, where the
// zero Overlap is the plain schedule and Enabled the boundary-first one
// (each phase solves its boundary lines, posts the carry with Isend and
// solves the interior while the message flies; the stencil halos pipeline
// across timesteps). The returned grid (non-nil only from the outer call,
// assembled on rank 0) is Float64bits-identical to nas.SerialSolve on
// either machine, with or without overlap.
//
// Every tile must be at least nas.StencilReach (2) cells thick in every cut
// dimension so a single neighbor's face covers the stencil reach.
func RunSP(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, sim.Result, error) {
	return runNAS(env, mach, steps, o, pl, sweep.NewPenta(), nas.RunSPRank)
}

// RunBT executes the BT pseudo-application (5×5 block tridiagonal line
// solves) like RunSP; the returned grid (rank 0) matches nas.BTSerialSolve
// elementwise.
func RunBT(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, sim.Result, error) {
	return runNAS(env, mach, steps, o, pl, sweep.NewBlockTridiag(nas.BTBlockSize), nas.RunBTRank)
}

// RunADI executes the ADI heat integration like RunSP: tridiagonal
// half-steps along every dimension with per-rank private storage and
// payload-borne carries. ADI's stencil-free coefficient builds need no
// halos at all, so the only communication is the sweep carries plus the
// final gather. The returned grid (rank 0) matches adi.Problem.SerialSolve
// elementwise.
func RunADI(pb adi.Problem, env *dist.Env, mach *sim.Machine, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, sim.Result, error) {
	pl, err := compile(env, sweep.Tridiag{}, o, pl)
	if err != nil {
		return nil, sim.Result{}, err
	}
	init := func(f *dist.Field) { f.FillFunc(pb.InitialAt) }
	return run(mach, func(t xport.Transport) *dist.Field { return pb.RunRank(t, env, pl, init) })
}

// RunSPOverlap is RunSP compiling its own schedule.
func RunSPOverlap(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	return RunSP(env, mach, steps, o, nil)
}

// RunSPReal is RunSP.
func RunSPReal(env *dist.Env, rm *sim.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, sim.Result, error) {
	return RunSP(env, rm, steps, o, pl)
}

// RunBTOverlap is RunBT compiling its own schedule.
func RunBTOverlap(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	return RunBT(env, mach, steps, o, nil)
}

// RunBTReal is RunBT.
func RunBTReal(env *dist.Env, rm *sim.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, sim.Result, error) {
	return RunBT(env, rm, steps, o, pl)
}

// RunADIOverlap is RunADI compiling its own schedule.
func RunADIOverlap(pb adi.Problem, env *dist.Env, mach *sim.Machine, o plan.Overlap) (*grid.Grid, sim.Result, error) {
	return RunADI(pb, env, mach, o, nil)
}

// RunADIReal is RunADI.
func RunADIReal(pb adi.Problem, env *dist.Env, rm *sim.Machine, o plan.Overlap, pl *plan.SweepPlan) (*grid.Grid, sim.Result, error) {
	return RunADI(pb, env, rm, o, pl)
}

// runNAS runs SP or BT: rank is the application's per-rank body and
// solver its line solver.
func runNAS(env *dist.Env, mach *sim.Machine, steps int, o plan.Overlap, pl *plan.SweepPlan, solver sweep.Solver,
	rank func(xport.Transport, *dist.Env, *plan.SweepPlan, int, func(*dist.Field)) *dist.Field) (*grid.Grid, sim.Result, error) {
	if err := env.CheckHalo(nas.StencilReach); err != nil {
		return nil, sim.Result{}, err
	}
	pl, err := compile(env, solver, o, pl)
	if err != nil {
		return nil, sim.Result{}, err
	}
	init := func(f *dist.Field) { f.FillFunc(nas.InitialAt(env.Eta)) }
	return run(mach, func(t xport.Transport) *dist.Field { return rank(t, env, pl, steps, init) })
}

// compile returns pl, or when pl is nil the schedule of solver over env
// with the overlap annotation o.
func compile(env *dist.Env, solver sweep.Solver, o plan.Overlap, pl *plan.SweepPlan) (*plan.SweepPlan, error) {
	if pl != nil {
		return pl, nil
	}
	return dist.CompileSweepPlanOverlap(env, solver, o)
}

// run executes body on every rank of mach and assembles the final field on
// rank 0.
func run(mach *sim.Machine, body func(t xport.Transport) *dist.Field) (*grid.Grid, sim.Result, error) {
	var out *grid.Grid
	res, err := mach.Run(func(r *sim.Rank) {
		if g := dist.GatherToRoot(r, body(r), xport.AlgAuto); g != nil {
			out = g
		}
	})
	if err != nil {
		return nil, sim.Result{}, err
	}
	return out, res, nil
}
