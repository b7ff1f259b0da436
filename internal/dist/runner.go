package dist

import (
	"fmt"

	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// SweepRunner executes line sweeps over one rank's private fields. The
// schedule itself — phases, neighbors, tags, carry byte counts — is a
// compiled plan.SweepPlan shared with every other consumer; the runner
// keeps only what binds that plan to this rank's storage: each
// tile's local index and per-field line geometry (each field may have its
// own halo depth, so the offsets differ even though the cross-sections
// coincide), plus the SoA panel arenas of the batched kernels. A rank
// builds one runner and reuses it across timesteps and dimensions, so the
// steady state allocates nothing: carries travel in pooled payload
// buffers, and line data moves through the reusable workspace panels.
type SweepRunner struct {
	Solver sweep.Solver
	Fields []*Field
	// Batch is the panel width of the batched sweep kernels: 0 picks
	// sweep.DefaultBatchLines, negative forces the scalar per-line path
	// (the bit-identical oracle / "before" ablation).
	Batch int
	// Overlap is folded into the lazily compiled plan's Spec (ignored when
	// Plan is pre-set — use CompileSweepPlanOverlap for the shared
	// instance). The runner itself switches on Plan.Overlap.
	Overlap plan.Overlap
	// Plan is the compiled schedule the runner executes. Leave nil to have
	// the first Run compile it from the fields' environment; pre-set it
	// (see CompileSweepPlan) to share one instance across all rank
	// runners instead of compiling the full O(p) schedule per rank.
	Plan *plan.SweepPlan

	scratch Scratch
	// binds[dim*2+direction] binds that pass to this rank's tiles, built on
	// first use; grids holds the tile grids the last Tile call handed out.
	binds []passBinding
	grids []*grid.Grid
}

// WorkspaceStats reports this runner's arena acquisition counters; with
// warmed arenas the hit rate is 1. Runners are per-rank, so read it only
// after the owning rank has finished.
func (sr *SweepRunner) WorkspaceStats() sweep.WorkspaceStats {
	return sr.scratch.WorkspaceStats()
}

// tileBind binds one plan tile to this rank's storage: the local tile
// index and, per field, the tile's lines in the shared canonical order
// (identical cross-sections, field-specific padding).
type tileBind struct {
	local int
	geom  [][]grid.Line
}

// passBinding is the Binding of one (dim, direction) pass: phase k's
// tile ti is bound by tiles[k][ti].
type passBinding struct {
	sr    *SweepRunner
	tiles [][]tileBind
}

// Tile implements Binding.
func (pb *passBinding) Tile(k, ti int) ([]*grid.Grid, [][]grid.Line) {
	tb := &pb.tiles[k][ti]
	for v, f := range pb.sr.Fields {
		pb.sr.grids[v] = f.TileGrid(tb.local)
	}
	return pb.sr.grids, tb.geom
}

// CompileSweepPlan compiles the sweep schedule a SweepRunner executes over
// env with the given solver — the one instance every rank's SweepRunner
// should share (set SweepRunner.Plan). The fields are assumed unpadded
// (the applications' solve vectors); runners over padded fields may still
// share it, since padding only moves storage offsets, which live in the
// runner's binding cache, not the plan.
func CompileSweepPlan(env *Env, solver sweep.Solver) (*plan.SweepPlan, error) {
	return plan.Compile(plan.Spec{
		M: env.M, Eta: env.Eta, Solver: solver,
		Halos: make([]int, solver.NumVecs()),
	})
}

// CompileSweepPlanOverlap is CompileSweepPlan with the boundary-first
// overlap annotation enabled (plan.Overlap): the same schedule plus per-
// phase split points and interior-message tags.
func CompileSweepPlanOverlap(env *Env, solver sweep.Solver, o plan.Overlap) (*plan.SweepPlan, error) {
	return plan.Compile(plan.Spec{
		M: env.M, Eta: env.Eta, Solver: solver,
		Halos:   make([]int, solver.NumVecs()),
		Overlap: o,
	})
}

// NewSweepRunner builds a runner for one rank's fields. fields must hold
// Solver.NumVecs() fields of the same rank.
func NewSweepRunner(solver sweep.Solver, fields []*Field) *SweepRunner {
	if len(fields) != solver.NumVecs() {
		panic(fmt.Sprintf("dist: solver %s needs %d fields, got %d", solver.Name(), solver.NumVecs(), len(fields)))
	}
	return &SweepRunner{Solver: solver, Fields: fields}
}

// ensurePlan compiles the runner's schedule on first use when no shared
// instance was provided.
func (sr *SweepRunner) ensurePlan() {
	if sr.Plan != nil {
		return
	}
	f0 := sr.Fields[0]
	halos := make([]int, len(sr.Fields))
	for i, f := range sr.Fields {
		halos[i] = f.Depth
	}
	pl, err := plan.Compile(plan.Spec{
		M: f0.Env.M, Eta: f0.Env.Eta, Solver: sr.Solver,
		Halos: halos, Batch: sr.Batch, Overlap: sr.Overlap,
	})
	if err != nil {
		panic("dist: " + err.Error())
	}
	sr.Plan = pl
}

// CompiledPlan returns the runner's SweepPlan, compiling it on first use.
func (sr *SweepRunner) CompiledPlan() *plan.SweepPlan {
	sr.ensurePlan()
	return sr.Plan
}

// Run performs the full sweep along dim for the calling rank. Over model
// fields it runs model-only: the same charges and messages, no data.
func (sr *SweepRunner) Run(r xport.Transport, dim int) {
	sr.ensurePlan()
	for _, backward := range [2]bool{false, true} {
		if backward && !HasBackwardPass(sr.Solver) {
			break
		}
		pp := sr.Plan.Pass(r.Rank(), dim, backward)
		ps := PassSpec{
			Pass: pp, Solver: sr.Solver, Batch: sr.Batch,
			Overhead: sr.Fields[0].Env.Overhead, Scratch: &sr.scratch,
		}
		if sr.Fields[0].hasData() {
			ps.Bind = sr.bindings(pp)
		}
		RunPass(r, ps)
	}
}

// bindings returns the storage binding of pass pp for this rank's fields,
// resolving local tile indices and per-field line geometry on first use.
func (sr *SweepRunner) bindings(pp *plan.Pass) *passBinding {
	if sr.binds == nil {
		sr.binds = make([]passBinding, 2*len(sr.Fields[0].Env.Eta))
		sr.grids = make([]*grid.Grid, len(sr.Fields))
	}
	key := pp.Dim * 2
	if pp.Backward {
		key++
	}
	pb := &sr.binds[key]
	if pb.tiles != nil {
		return pb
	}
	f0 := sr.Fields[0]
	pb.sr, pb.tiles = sr, make([][]tileBind, len(pp.Phases))
	for k := range pp.Phases {
		ph := &pp.Phases[k]
		tb := make([]tileBind, len(ph.Tiles))
		for ti := range ph.Tiles {
			t := &ph.Tiles[ti]
			i := f0.LocalTileOf(t.Coord)
			if i < 0 {
				panic("dist: sweep plan names a tile this rank does not own")
			}
			geom := make([][]grid.Line, len(sr.Fields))
			for v, f := range sr.Fields {
				// Fields with equal halo depth have identical padded shapes
				// and so identical line geometry — share one slice.
				shared := false
				for w := 0; w < v; w++ {
					if sr.Fields[w].Depth == f.Depth {
						geom[v] = geom[w]
						shared = true
						break
					}
				}
				if !shared {
					geom[v] = f.TileGrid(i).AppendLines(f.InteriorRect(i), pp.Dim, make([]grid.Line, 0, t.Lines))
				}
			}
			tb[ti] = tileBind{local: i, geom: geom}
		}
		pb.tiles[k] = tb
	}
	return pb
}
