package nas

import (
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// BT-style benchmark: the NAS BT (Block Tridiagonal) pseudo-application is
// the other line-sweep CFD code the multipartitioning literature targets
// (Naik et al. parallelized exactly this ADI class). Its timestep has the
// same shape as SP — compute_rhs, x/y/z line solves, add — but each line
// solve is a *block* tridiagonal system with dense 5×5 blocks coupling the
// five flow variables. This file provides the structurally faithful
// reproduction: the same synthetic stencil physics as SP driving block
// tridiagonal solves with sweep.BlockTridiag, solving a 5-component state.
//
// Everything the paper says about multipartitioned sweeps applies verbatim:
// only the per-line carries are bigger (a 5×5 block plus a 5-vector per
// line instead of a handful of scalars), which makes BT a good stress of
// the aggregated-communication path.

// BTBlockSize is the block order of the BT solves (five flow variables).
const BTBlockSize = 5

// Modeled per-point flop weights for BT (the real benchmark runs ≈ 2.5×
// the flops of SP per point; the solver's own weights are computed from
// the block algebra and dominate).
const (
	BTFlopsRHS = 650.0
	BTFlopsAdd = 25.0
	// BTFlopsLHSBuild covers assembling three 5×5 blocks per point.
	BTFlopsLHSBuild = 150.0
)

// btVecs returns the number of per-point arrays of the BT solve:
// 3 blocks of B² entries plus the B-component right-hand side.
func btVecs() int { return 3*BTBlockSize*BTBlockSize + BTBlockSize }

// BTCoeff is the deterministic block-coefficient generator, indexed so the
// systems are non-constant yet reproducible by every execution mode:
// g is the global row, (r, c) the block entry, and which selects the A (0),
// C (1) or off-diagonal-B (2) block.
func BTCoeff(g, r, c, which int) float64 {
	h := (g*31 + r*17 + c*7 + which*13) % 19
	return (float64(h) - 9) / 40 // in [−0.225, 0.225]
}

// BuildBlockLHS fills the 3·B² block-coefficient grids for a solve along
// dim over region rect: A blocks (coupling to k−1), B blocks (diagonal,
// made block-diagonally dominant), C blocks (coupling to k+1), with A
// zeroed at the line start and C at the line end.
func BuildBlockLHS(dim int, rect grid.Rect, vecs []*grid.Grid) {
	data := make([][]float64, 3*BTBlockSize*BTBlockSize)
	for i := range data {
		data[i] = vecs[i].Data()
	}
	buildBlockLHS(dim, vecs[0].Shape()[dim], rect.Lo[dim], vecs[0], rect, data)
}

// buildBlockLHS writes the block coefficients of a line of length n along
// dim over region rect of ref's layout, whose first row along dim is global
// row start; data holds the 3·B² coefficient arrays in that layout.
func buildBlockLHS(dim, n, start int, ref *grid.Grid, rect grid.Rect, data [][]float64) {
	const b = BTBlockSize
	bb := b * b
	ref.EachLine(rect, dim, func(l grid.Line) {
		off := l.Base
		for k := 0; k < l.N; k++ {
			g := start + k
			for r := 0; r < b; r++ {
				rowSum := 0.0
				for c := 0; c < b; c++ {
					av, cv := 0.0, 0.0
					if g >= 1 {
						av = BTCoeff(g+dim, r, c, 0)
					}
					if g < n-1 {
						cv = BTCoeff(g+dim, r, c, 1)
					}
					data[r*b+c][off] = av
					data[2*bb+r*b+c][off] = cv
					rowSum += abs64(av) + abs64(cv)
					if c != r {
						bv := BTCoeff(g+dim, r, c, 2)
						data[bb+r*b+c][off] = bv
						rowSum += abs64(bv)
					}
				}
				data[bb+r*b+r][off] = rowSum + 1.5
			}
			off += l.Stride
		}
	})
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// btSolver wraps the 5×5 block solver; its flop weights follow from the
// block algebra directly, so no inflation is needed (unlike spSolver).
func btSolver() sweep.BlockTridiag { return sweep.NewBlockTridiag(BTBlockSize) }

// btScatterRHS copies the scalar stencil output into the B right-hand-side
// component grids with per-component scaling, over rect.
func btScatterRHS(rhs *grid.Grid, fvecs []*grid.Grid, rect grid.Rect) {
	rd := rhs.Data()
	d := rhs.Dims()
	comps := make([][]float64, len(fvecs))
	for i := range fvecs {
		comps[i] = fvecs[i].Data()
	}
	rhs.EachLine(rect, d-1, func(l grid.Line) {
		off := l.Base
		for k := 0; k < l.N; k++ {
			v := rd[off]
			for c := range comps {
				comps[c][off] = v * (1 + 0.1*float64(c))
			}
			off += l.Stride
		}
	})
}

// BTSerialSolve advances u in place by steps BT timesteps — the reference
// implementation.
func BTSerialSolve(u *grid.Grid, steps int) {
	eta := u.Shape()
	rhs := grid.New(eta...)
	vecs := make([]*grid.Grid, btVecs())
	for i := range vecs {
		vecs[i] = grid.New(eta...)
	}
	const bb = BTBlockSize * BTBlockSize
	fvecs := vecs[3*bb:]
	all := u.Bounds()
	solver := btSolver()
	for s := 0; s < steps; s++ {
		ComputeRHS(u, rhs, all)
		btScatterRHS(rhs, fvecs, all)
		for dim := range eta {
			BuildBlockLHS(dim, all, vecs)
			solveAllLines(solver, vecs, all, dim)
		}
		Add(u, fvecs[0], all)
	}
}

// BTRun advances the BT pseudo-application on a multipartitioned domain; u
// nil selects model-only mode. In data mode the final u matches
// BTSerialSolve.
func BTRun(env *dist.Env, mach *sim.Machine, steps int, u *grid.Grid) (sim.Result, error) {
	return BTRunPlanned(env, mach, steps, u, nil)
}

// BTRunPlanned is BTRun executing a pre-compiled SweepPlan compiled over
// the same env; pl == nil compiles one internally. An overlap-annotated
// plan selects the boundary-first schedule and cross-timestep halo
// pipelining, exactly as in RunPlanned.
func BTRunPlanned(env *dist.Env, mach *sim.Machine, steps int, u *grid.Grid, pl *plan.SweepPlan) (sim.Result, error) {
	if pl == nil {
		var err error
		if pl, err = plan.Compile(plan.Spec{M: env.M, Eta: env.Eta, Solver: btSolver()}); err != nil {
			return sim.Result{}, err
		}
	}
	return runOnGrid(env, mach, u, func(t xport.Transport, init func(*dist.Field)) *dist.Field {
		return RunBTRank(t, env, pl, steps, init)
	})
}

// RunBTRank runs one rank's share of a BT run on t: steps timesteps of the
// compiled plan pl over the rank's private tiles, labeled like RunSPRank's
// but with no closing reduction. init fills the rank's u field; nil runs
// model-only. Every BT entry point runs this body: BTRun, BTRunPlanned and
// dmem's strict runs on either backend. It returns the rank's final u.
func RunBTRank(t xport.Transport, env *dist.Env, pl *plan.SweepPlan, steps int, init func(*dist.Field)) *dist.Field {
	s := newRankState(t, env, pl, btSolver(), init)
	fvecs := s.vecs[3*BTBlockSize*BTBlockSize:]
	var rhs *dist.Field
	if s.sc != nil {
		rhs = dist.NewField(env, t.Rank(), 0)
	}
	var haloPre []xport.Request
	for step := 0; step < steps; step++ {
		t.BeginPhase(PhaseHalo)
		s.u.ExchangeHalosPiped(t, haloPre)
		haloPre = nil
		t.BeginPhase(PhaseRHS)
		if s.sc != nil {
			computeRHS(s.u, rhs, s.sc)
			scatterBTRHS(rhs, fvecs)
		}
		s.u.Charge(t, BTFlopsRHS)
		for dim := range env.Eta {
			t.BeginPhase(s.solve[dim])
			if s.sc != nil {
				buildBlockLHSTiles(dim, env.Eta[dim], s.vecs)
			}
			s.u.Charge(t, BTFlopsLHSBuild)
			s.runner.Run(t, dim)
		}
		t.BeginPhase(PhaseAdd)
		if pl.Overlap.Enabled && step+1 < steps {
			haloPre = s.u.PostHaloRecvs(t)
		}
		if s.sc != nil {
			addTiles(s.u, fvecs[0], s.sc)
		}
		s.u.Charge(t, BTFlopsAdd)
	}
	return s.u
}
