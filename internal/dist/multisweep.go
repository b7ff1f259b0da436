package dist

import (
	"fmt"
	"sync"

	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// MultiSweep executes a line sweep (forward elimination + back
// substitution) along one dimension of a multipartitioned array.
//
// In data mode, Vecs holds Solver.NumVecs() grids of the array's extents
// (the solver's per-line arrays; see internal/sweep for each solver's
// layout); the solution is produced in place. In model-only mode Vecs is
// nil and only time/bytes are accounted.
//
// Aggregate selects communication vectorization: when true (the behavior of
// both dHPF-generated and hand-coded multipartitioned codes), the carries
// of all lines of all of a processor's tiles in a slab travel in a single
// message per phase — possible because the mapping has the neighbor
// property; when false, one message per tile is sent (the ablation of
// DESIGN.md §4.1).
type MultiSweep struct {
	Env       *Env
	Solver    sweep.Solver
	Vecs      []*grid.Grid
	Aggregate bool
	// Batch is the panel width of the batched sweep kernels: 0 picks
	// sweep.DefaultBatchLines, negative forces the scalar per-line path
	// (the bit-identical oracle / "before" ablation).
	Batch int
	// Overlap is folded into the lazily compiled plan's Spec (ignored when
	// Plan is pre-set): enabled, phases solve boundary lines first and post
	// the carry while the interior computes (DESIGN.md §14). The executor
	// itself switches on Plan.Overlap, so overlap is a property of the
	// compiled schedule, not of this struct. Overlap requires aggregated
	// messaging; with Aggregate false the annotation is ignored.
	Overlap plan.Overlap
	// Plan is the compiled schedule the executor runs. Leave nil to have
	// the first Run compile it from (Env, Solver, Batch, Overlap); pre-set
	// it to share one instance with other consumers (the cost fold, the obs
	// dump) — it must have been compiled from the same configuration.
	Plan *plan.SweepPlan
	// scratchBuf holds one reusable arena per rank (indexed by rank ID, so
	// concurrently running ranks never share); presized by init.
	scratchBuf []Scratch
	once       sync.Once
}

// NewMultiSweep builds a sweep executor; vecs may be nil for model-only
// runs.
func NewMultiSweep(env *Env, solver sweep.Solver, vecs []*grid.Grid) (*MultiSweep, error) {
	if vecs != nil {
		if len(vecs) != solver.NumVecs() {
			return nil, fmt.Errorf("dist: solver %s needs %d grids, got %d", solver.Name(), solver.NumVecs(), len(vecs))
		}
		for i, g := range vecs {
			for dim, e := range env.Eta {
				if g.Shape()[dim] != e {
					return nil, fmt.Errorf("dist: grid %d has shape %v, want %v", i, g.Shape(), env.Eta)
				}
			}
		}
	}
	return &MultiSweep{Env: env, Solver: solver, Vecs: vecs, Aggregate: true}, nil
}

// init lazily compiles the plan and presizes the per-rank arenas exactly
// once, so a MultiSweep built as a literal is as allocation-free in steady
// state as one from NewMultiSweep.
func (s *MultiSweep) init() {
	s.once.Do(func() {
		if s.Plan == nil {
			pl, err := plan.Compile(plan.Spec{M: s.Env.M, Eta: s.Env.Eta, Solver: s.Solver, Batch: s.Batch, Overlap: s.Overlap})
			if err != nil {
				panic("dist: " + err.Error())
			}
			s.Plan = pl
		}
		if s.scratchBuf == nil {
			s.scratchBuf = make([]Scratch, s.Env.M.P())
		}
	})
}

// CompiledPlan returns the executor's SweepPlan, compiling it on first use
// — the instance the cost model folds over and obs dumps.
func (s *MultiSweep) CompiledPlan() *plan.SweepPlan {
	s.init()
	return s.Plan
}

// WorkspaceStats aggregates arena acquisition counters across all ranks'
// scratch; with warmed arenas the hit rate is 1. Not safe against ranks
// still running.
func (s *MultiSweep) WorkspaceStats() sweep.WorkspaceStats {
	return scratchWorkspaceStats(s.scratchBuf)
}

// Run performs the full sweep along dim for the calling rank: the forward
// pass over slabs 0..γ−1 and (if the solver has one) the backward pass over
// slabs γ−1..0.
func (s *MultiSweep) Run(r xport.Transport, dim int) {
	s.init()
	sc := &s.scratchBuf[r.Rank()]
	for _, backward := range [2]bool{false, true} {
		if backward && !HasBackwardPass(s.Solver) {
			break
		}
		pp := s.Plan.Pass(r.Rank(), dim, backward)
		RunPass(r, PassSpec{
			Pass: pp, Solver: s.Solver, Batch: s.Batch, Bind: sc.bindGrids(s.Vecs, pp, false),
			Overhead: s.Env.Overhead, PerTileMessages: !s.Aggregate, Scratch: sc,
		})
	}
}
