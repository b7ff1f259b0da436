package nas

import (
	"fmt"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// spSolver is the pentadiagonal solver with the real SP's per-point flop
// weights: the data path solves one scalar component; the time model
// charges for the benchmark's five solution components and auxiliary
// arithmetic.
type spSolver struct{ sweep.Banded }

func newSPSolver() spSolver { return spSolver{sweep.NewPenta()} }

func (spSolver) ForwardFlopsPerElement() float64  { return FlopsSolve * 0.7 }
func (spSolver) BackwardFlopsPerElement() float64 { return FlopsSolve * 0.3 }
func (s spSolver) FlopsPerElement() float64 {
	return s.ForwardFlopsPerElement() + s.BackwardFlopsPerElement()
}

// Phase labels stamped on the simulator's per-phase statistics (see
// sim.Rank.BeginPhase); the calibration audit of internal/exp keys its
// predicted-vs-measured comparison on these.
const (
	PhaseHalo   = "halo"
	PhaseRHS    = "rhs"
	PhaseAdd    = "add"
	PhaseReduce = "reduce"
)

// PhaseSolve returns the label of the line-sweep phase along dim
// (LHS build + forward/backward passes).
func PhaseSolve(dim int) string { return fmt.Sprintf("solve%d", dim) }

// CompilePlan compiles the SweepPlan of the SP application over env: the
// schedule its solve phases execute, the instance the cost model folds
// over (cost.PlanSweepTime) and obs dumps. Pass it to RunPlanned so
// prediction and measurement consume the very same plan.
func CompilePlan(env *dist.Env) (*plan.SweepPlan, error) {
	return plan.Compile(plan.Spec{M: env.M, Eta: env.Eta, Solver: newSPSolver()})
}

// CompilePlanOverlap is CompilePlan with the boundary-first overlap
// annotation (plan.Overlap): the identical schedule plus per-phase split
// points and interior-carry tags. RunPlanned (and every other consumer of
// the plan) switches on the annotation itself — overlap is a property of
// the compiled plan, not of any executor.
func CompilePlanOverlap(env *dist.Env, o plan.Overlap) (*plan.SweepPlan, error) {
	return plan.Compile(plan.Spec{M: env.M, Eta: env.Eta, Solver: newSPSolver(), Overlap: o})
}

// Run advances the SP pseudo-application for the given number of steps on a
// multipartitioned domain. In data mode u is advanced in place and matches
// SerialSolve; in model-only mode (u == nil) only virtual time and traffic
// are produced.
func Run(env *dist.Env, mach *sim.Machine, steps int, u *grid.Grid) (sim.Result, error) {
	return RunPlanned(env, mach, steps, u, nil)
}

// RunPlanned is Run executing a pre-compiled SweepPlan (from CompilePlan
// over the same env); pl == nil compiles one internally.
func RunPlanned(env *dist.Env, mach *sim.Machine, steps int, u *grid.Grid, pl *plan.SweepPlan) (sim.Result, error) {
	if pl == nil {
		var err error
		if pl, err = CompilePlan(env); err != nil {
			return sim.Result{}, err
		}
	}
	return runOnGrid(env, mach, u, func(t xport.Transport, init func(*dist.Field)) *dist.Field {
		return RunSPRank(t, env, pl, steps, init)
	})
}

// runOnGrid runs body on every rank of mach: model-only when u is nil,
// else each rank fills its tiles from u before its steps and stores them
// back into u after them. Neither copy is charged.
func runOnGrid(env *dist.Env, mach *sim.Machine, u *grid.Grid, body func(t xport.Transport, init func(*dist.Field)) *dist.Field) (sim.Result, error) {
	if u == nil {
		return mach.Run(func(r *sim.Rank) { body(r, nil) })
	}
	if err := env.CheckHalo(StencilReach); err != nil {
		return sim.Result{}, err
	}
	return mach.Run(func(r *sim.Rank) {
		body(r, func(f *dist.Field) { f.Load(u) }).Store(u)
	})
}

// RunSPRank runs one rank's share of an SP run on t: steps timesteps of
// the compiled plan pl over the rank's private tiles, then the residual
// reduction (like the real benchmark's verification phase). init fills the
// rank's u field; nil runs model-only, with no grids and dHPF's partial
// replication priced in (see haloDepth). Every SP entry point runs this
// body: Run, RunPlanned, Speedup, SerialTime and dmem's strict runs on
// either backend. It returns the rank's final u.
//
// A step is labeled halo, rhs, solve<dim> and add; the reduction, reduce.
// Each compute phase is charged by dist.Field.Charge. Under an
// overlap-annotated plan each step preposts the next step's halo receives
// before the add phase (cross-timestep halo pipelining, DESIGN.md §14) —
// timing-neutral in virtual time, but the discipline a real MPI runtime
// needs to overlap the step tail with halo traffic.
func RunSPRank(t xport.Transport, env *dist.Env, pl *plan.SweepPlan, steps int, init func(*dist.Field)) *dist.Field {
	s := newRankState(t, env, pl, newSPSolver(), init)
	rhs := s.vecs[5]
	var haloPre []xport.Request
	for step := 0; step < steps; step++ {
		t.BeginPhase(PhaseHalo)
		s.u.ExchangeHalosPiped(t, haloPre)
		haloPre = nil
		t.BeginPhase(PhaseRHS)
		if s.sc != nil {
			computeRHS(s.u, rhs, s.sc)
		}
		s.u.Charge(t, FlopsRHS)
		for dim := range env.Eta {
			t.BeginPhase(s.solve[dim])
			if s.sc != nil {
				buildLHS(dim, env.Eta[dim], s.vecs, s.sc)
			}
			s.u.Charge(t, FlopsLHSBuild)
			s.runner.Run(t, dim)
		}
		t.BeginPhase(PhaseAdd)
		if pl.Overlap.Enabled && step+1 < steps {
			haloPre = s.u.PostHaloRecvs(t)
		}
		if s.sc != nil {
			addTiles(s.u, rhs, s.sc)
		}
		s.u.Charge(t, FlopsAdd)
	}
	t.BeginPhase(PhaseReduce)
	t.AllReduce([]float64{sumSquares(rhs, s.sc)}, func(a, b float64) float64 { return a + b })
	return s.u
}

// SerialTime returns the virtual time of the original sequential program
// for the given extents and steps on the machine's CPU: the baseline for
// Table 1 speedups.
func SerialTime(mach *sim.Machine, eta []int, steps int) (float64, error) {
	m, err := core.NewGeneralized(1, ones(len(eta)))
	if err != nil {
		return 0, err
	}
	env, err := dist.NewEnv(m, eta, dist.Original())
	if err != nil {
		return 0, err
	}
	cpu := mach.CPU
	cpu.WorkingSetBytes = WorkingSetBytes(eta, 1)
	serialMach := sim.NewMachine(1, mach.Net, cpu)
	res, err := Run(env, serialMach, steps, nil)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

func ones(d int) []int {
	g := make([]int, d)
	for i := range g {
		g[i] = 1
	}
	return g
}

// Variant identifies the two code versions compared in Table 1.
type Variant int

const (
	// HandCodedDiagonal is the NASA hand-written MPI code: diagonal
	// multipartitioning, runnable only on perfect squares.
	HandCodedDiagonal Variant = iota
	// DHPFGeneralized is the dHPF-compiled code: generalized
	// multipartitioning, any processor count.
	DHPFGeneralized
)

// Speedup runs the SP model for one (variant, p) cell of Table 1 and
// returns the speedup relative to serialTime. For HandCodedDiagonal on a
// non-square p it returns an error (the hand-coded version cannot run
// there, matching the blank cells of the table).
func Speedup(variant Variant, p int, mach *sim.Machine, eta []int, steps int, serialTime float64) (float64, error) {
	var m *core.Multipartitioning
	var ov dist.OverheadModel
	var err error
	switch variant {
	case HandCodedDiagonal:
		m, err = core.NewDiagonal(p, len(eta))
		ov = dist.HandCoded()
	case DHPFGeneralized:
		obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
		var res partition.Result
		res, err = partition.OptimalCapped(p, len(eta), obj, eta)
		if err == nil {
			m, err = core.NewGeneralized(p, res.Gamma)
		}
		ov = dist.DHPF()
	default:
		return 0, fmt.Errorf("nas: unknown variant %d", variant)
	}
	if err != nil {
		return 0, err
	}
	env, err := dist.NewEnv(m, eta, ov)
	if err != nil {
		return 0, err
	}
	cpu := mach.CPU
	cpu.WorkingSetBytes = WorkingSetBytes(eta, p)
	pm := sim.NewMachine(p, mach.Net, cpu)
	pm.Coll = mach.Coll
	if mach.Fabric != nil {
		// Rebuild rather than share: fabrics carry per-p state (hop-count
		// means, contention occupancy) and must not span machines.
		fab, err := sim.NewFabric(mach.Fabric.Name(), mach.Net, p)
		if err != nil {
			return 0, err
		}
		pm.Fabric = fab
	}
	res, err := Run(env, pm, steps, nil)
	if err != nil {
		return 0, err
	}
	return serialTime / res.Makespan, nil
}

// spGridCount is the number of resident full-size arrays in the SP state
// (u, rhs and the five pentadiagonal bands).
const spGridCount = 7

// WorkingSetBytes returns the per-rank resident data volume of the SP
// state for the cache model.
func WorkingSetBytes(eta []int, p int) float64 {
	n := 1
	for _, e := range eta {
		n *= e
	}
	return float64(n*8*spGridCount) / float64(p)
}

// Origin2000Machine returns the virtual machine calibrated for the Table 1
// reproduction: 250 MHz R10000-class CPUs (~180 Mflop/s sustained on SP)
// and an Origin-class interconnect.
func Origin2000Machine(p int) *sim.Machine {
	return sim.NewMachine(p,
		sim.Network{
			Latency:      12e-6,
			Bandwidth:    140e6,
			SendOverhead: 4e-6,
			RecvOverhead: 4e-6,
		},
		sim.CPU{FlopsPerSec: 180e6, CacheBoost: 1.25, L2Bytes: 4 << 20})
}

// Origin2000MachineOn returns the Table 1 machine with its interconnect
// replaced by the named topology ("" or "default" keeps the crossbar-like
// Origin model; see sim.FabricNames).
func Origin2000MachineOn(topology string, p int) (*sim.Machine, error) {
	mach := Origin2000Machine(p)
	fab, err := sim.NewFabric(topology, mach.Net, p)
	if err != nil {
		return nil, err
	}
	mach.Fabric = fab
	return mach, nil
}
