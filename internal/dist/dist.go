// Package dist is the distribution runtime — the stand-in for the code the
// Rice dHPF compiler generates from HPF directives. It executes line-sweep
// computations over distributed arrays under three data distributions:
//
//   - Multipartitioning: the paper's subject. Tiles are enumerated slab by
//     slab in dependence order; the carries of all lines crossing a
//     processor's tile faces travel in one aggregated message per
//     communication phase (full communication vectorization, possible
//     because generalized multipartitionings have the neighbor property).
//     A rank keeps its tiles in private Fields, padded with halo shells;
//     SweepRunner sweeps them and GatherToRoot assembles a result. Every
//     multipartitioned sweep runs this way: the applications (nas, adi)
//     step their compiled plans over Fields, on the simulator or the
//     real-parallel runtime, and so do the kernel benchmarks.
//   - Static block unipartitioning (Block.WavefrontSweep): one dimension is
//     cut into p slabs; sweeps along it are pipelined wavefronts whose
//     message granularity trades pipeline fill/drain against per-message
//     overhead (the Section 1 tension).
//   - Dynamic block partitioning (Block.TransposeSweep): sweeps along the
//     partitioned dimension first transpose the array so the sweep is
//     local, then transpose back.
//
// Every executor runs in two modes: data mode (real float64 storage, with
// message payloads carrying the real carries and halo faces) for
// correctness validation, and model-only mode (no storage; only element
// counts and byte counts flow) for large-scale performance runs. The
// sweeps share one pass loop, RunPass, which takes the storage as a
// Binding (nil in model-only mode); a Field built by NewModelField runs its
// halos, sweeps and compute charges payload-free.
package dist

import (
	"fmt"
	"sync"

	"genmp/internal/core"
	"genmp/internal/grid"
	"genmp/internal/numutil"
	"genmp/internal/redist"
	"genmp/internal/xport"
)

// Reserved message-tag space of the halo exchange (see xport.ReserveTags).
// Sweep carries are tagged by the compiled schedule itself, from the shared
// plan.SweepTags reservation — same base as the historical dist/sweep
// space, so tag values are unchanged.
var haloTags = xport.ReserveTags("dist/halo", 1<<26, 64)

// OverheadModel captures the per-construct costs that distinguish hand-
// written message-passing code from compiler-generated code. The paper's
// Table 1 compares the NASA hand-coded SP (diagonal multipartitioning) with
// dHPF-generated code (generalized multipartitioning); the residual gaps
// (e.g. 22% at 64 CPUs) are code-quality overheads, modeled here.
type OverheadModel struct {
	Name string
	// ComputeFactor multiplies all computation time (scalar code quality:
	// the dHPF-generated serial SP ran at 0.91 of the original's speed,
	// the hand-coded MPI version at 0.95).
	ComputeFactor float64
	// PerTileVisit is charged once per tile per computation phase (loop
	// nest setup, distribution-descriptor interpretation).
	PerTileVisit float64
	// PerMessage is charged per message for packing/unpacking beyond the
	// network's own overheads.
	PerMessage float64
	// ReplicationDepth is the width (in elements) of partially replicated
	// computation into shadow regions, the dHPF technique that trades a
	// little redundant compute for fewer/smaller messages. The replicated
	// work is charged; its benefit is modeled as no separate boundary
	// exchange for stencil phases.
	ReplicationDepth int
}

// Original returns the overhead model of the original sequential program:
// no parallelization overheads at all. Used as the speedup baseline (the
// paper's speedups are "relative to the original sequential version").
func Original() OverheadModel {
	return OverheadModel{Name: "original", ComputeFactor: 1.0}
}

// HandCoded returns the overhead model of carefully hand-written MPI code.
func HandCoded() OverheadModel {
	return OverheadModel{
		Name:          "hand-coded",
		ComputeFactor: 1.0 / 0.95,
		PerTileVisit:  2e-6,
		PerMessage:    1e-6,
	}
}

// DHPF returns the overhead model of dHPF-generated code.
func DHPF() OverheadModel {
	return OverheadModel{
		Name:             "dHPF",
		ComputeFactor:    1.0 / 0.91,
		PerTileVisit:     6e-6,
		PerMessage:       3e-6,
		ReplicationDepth: 1,
	}
}

// Env binds a multipartitioning to a concrete array size and overhead model.
type Env struct {
	M        *core.Multipartitioning
	Eta      []int
	Overhead OverheadModel

	// haloPlans caches compiled halo redistributions per (depth, nGrids) so
	// repeated exchanges share one schedule across ranks and timesteps. Env
	// is shared by concurrently running rank goroutines, hence the mutex.
	haloMu    sync.Mutex
	haloPlans map[haloKey]*redist.Plan
}

// haloKey identifies one compiled halo schedule.
type haloKey struct {
	depth, nGrids int
}

// NewEnv validates extents against the multipartitioning.
func NewEnv(m *core.Multipartitioning, eta []int, ov OverheadModel) (*Env, error) {
	if len(eta) != m.Dims() {
		return nil, fmt.Errorf("dist: array rank %d does not match partitioning rank %d", len(eta), m.Dims())
	}
	for i, e := range eta {
		if e < m.Gamma()[i] {
			return nil, fmt.Errorf("dist: extent η[%d] = %d smaller than cut count γ[%d] = %d", i, e, i, m.Gamma()[i])
		}
	}
	return &Env{M: m, Eta: numutil.CopyInts(eta), Overhead: ov}, nil
}

// OwnedElements returns the number of array elements owned by rank q.
func (e *Env) OwnedElements(q int) int {
	n := 0
	lo, hi := e.boundsScratch()
	for _, tile := range e.M.TilesOf(q) {
		e.M.TileBoundsInto(e.Eta, tile, lo, hi)
		n += grid.RectOf(lo, hi).Size()
	}
	return n
}

// boundsScratch returns one lo/hi pair for a loop over tiles: bounds are
// computed into it tile by tile instead of allocating two slices per tile.
func (e *Env) boundsScratch() (lo, hi []int) {
	d := len(e.Eta)
	b := make([]int, 2*d)
	return b[:d:d], b[d:]
}

// HaloBytes returns the bytes rank q must receive per stencil exchange of
// the given depth over nGrids grids: for each direction ±dim, the cross-
// sections of its tiles that have an in-domain neighbor.
func (e *Env) HaloBytes(q, depth, nGrids int) int {
	total := 0
	gamma := e.M.Gamma()
	lo, hi := e.boundsScratch()
	for _, tile := range e.M.TilesOf(q) {
		e.M.TileBoundsInto(e.Eta, tile, lo, hi)
		for dim := range e.Eta {
			cross := 1
			for j := range e.Eta {
				if j != dim {
					cross *= hi[j] - lo[j]
				}
			}
			if tile[dim] > 0 {
				total += depth * cross
			}
			if tile[dim] < gamma[dim]-1 {
				total += depth * cross
			}
		}
	}
	return total * 8 * nGrids
}

// HaloPlan returns the compiled halo exchange of the given depth over
// nGrids grids, compiling it with redist.CompileHalo under the dist/halo
// tag space on first use. All ranks and all Fields over e execute the one
// shared instance.
func (e *Env) HaloPlan(depth, nGrids int) *redist.Plan {
	key := haloKey{depth: depth, nGrids: nGrids}
	e.haloMu.Lock()
	defer e.haloMu.Unlock()
	if pl, ok := e.haloPlans[key]; ok {
		return pl
	}
	pl, err := redist.CompileHalo(redist.HaloSpec{
		M: e.M, Eta: e.Eta, Depth: depth, NGrids: nGrids, Tags: haloTags,
	})
	if err != nil {
		panic("dist: " + err.Error())
	}
	if e.haloPlans == nil {
		e.haloPlans = map[haloKey]*redist.Plan{}
	}
	e.haloPlans[key] = pl
	return pl
}
