// Package dist is the distribution runtime — the stand-in for the code the
// Rice dHPF compiler generates from HPF directives. It executes line-sweep
// computations over distributed arrays on the virtual-time machine of
// internal/sim, under three data distributions:
//
//   - Multipartitioning (MultiSweep): the paper's subject. Tiles are
//     enumerated slab by slab in dependence order; the carries of all lines
//     crossing a processor's tile faces travel in one aggregated message per
//     communication phase (full communication vectorization, possible
//     because generalized multipartitionings have the neighbor property).
//   - Static block unipartitioning (Block.WavefrontSweep): one dimension is
//     cut into p slabs; sweeps along it are pipelined wavefronts whose
//     message granularity trades pipeline fill/drain against per-message
//     overhead (the Section 1 tension).
//   - Dynamic block partitioning (Block.TransposeSweep): sweeps along the
//     partitioned dimension first transpose the array so the sweep is
//     local, then transpose back.
//
// Every executor runs in two modes: data mode (real float64 grids are
// gathered/solved/scattered, with message payloads carrying the real
// carries) for correctness validation, and model-only mode (nil grids; only
// element counts and byte counts flow) for large-scale performance runs.
// The sweeps share one pass loop, RunPass, which takes the storage as a
// Binding (nil in model-only mode); dmem's strict runner calls it too.
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

// EachOwnedTile calls f with the bounds of every tile of rank q (no cost
// accounting). lo and hi are valid only during the call: they are
// overwritten for the next tile.
func (e *Env) EachOwnedTile(q int, f func(lo, hi []int)) {
	lo, hi := e.boundsScratch()
	for _, tile := range e.M.TilesOf(q) {
		e.M.TileBoundsInto(e.Eta, tile, lo, hi)
		f(lo, hi)
	}
}

// ComputeOnTiles models (and, when f is non-nil, performs) a local
// computation phase of flopsPerElement over every element of every tile of
// the calling rank, charging per-tile overheads and the compute factor.
// Used for the stencil phases (compute_rhs, add) between sweeps. lo and hi
// are valid only during f: they are overwritten for the next tile, so f
// must copy any bound it keeps.
func (e *Env) ComputeOnTiles(r xport.Transport, flopsPerElement float64, f func(lo, hi []int)) {
	elements := 0
	lo, hi := e.boundsScratch()
	for _, tile := range e.M.TilesOf(r.Rank()) {
		e.M.TileBoundsInto(e.Eta, tile, lo, hi)
		r.Compute(e.Overhead.PerTileVisit)
		rect := grid.RectOf(lo, hi)
		elements += rect.Size()
		if e.Overhead.ReplicationDepth > 0 {
			// Partial replication: recompute a shadow shell of the given
			// depth around the tile (bounded by the domain).
			elements += shellElements(lo, hi, e.Eta, e.Overhead.ReplicationDepth)
		}
		if f != nil {
			f(lo, hi)
		}
	}
	r.ComputeFlops(flopsPerElement * float64(elements) * e.Overhead.ComputeFactor)
}

// shellElements counts the elements in a shell of the given depth around
// [lo,hi), clipped to the domain extents.
func shellElements(lo, hi, eta []int, depth int) int {
	inner := 1
	outer := 1
	for i := range lo {
		inner *= hi[i] - lo[i]
		olo := numutil.MaxInt(0, lo[i]-depth)
		ohi := numutil.MinInt(eta[i], hi[i]+depth)
		outer *= ohi - olo
	}
	return outer - inner
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

// ExchangeHalos models a stencil boundary exchange of the given depth for
// nGrids grids: one aggregated message to each of the 2d neighbor
// processors (the neighbor property makes a single target per direction),
// each via the transport's Exchange neighbor primitive under the dist/halo
// tag space. In data mode the grids share storage, so the messages carry no
// payload — they establish ordering and cost. Ranks whose tiles touch the
// domain boundary in a direction still exchange with their tile-neighbors
// for the interior faces.
// The schedule itself is compiled once per (depth, nGrids) by
// redist.CompileHalo — this wrapper is the thin special case of the
// generalized redistribution engine, replaying the historical hand-built
// loop bit for bit (same step order, byte counts, tags, and per-message
// bracketing).
func (e *Env) ExchangeHalos(r xport.Transport, depth, nGrids int) {
	if e.M.P() == 1 || depth == 0 {
		return
	}
	redist.Execute(r, e.haloPlan(depth, nGrids), redist.ExecOpts{PerMessage: e.Overhead.PerMessage})
}

// PostHaloRecvs posts the receives of the NEXT ExchangeHalosPiped call with
// the same (depth, nGrids) as nonblocking requests — the cross-timestep
// halo pipelining of the overlap schedule (DESIGN.md §14). Returns nil when
// there is no halo traffic.
func (e *Env) PostHaloRecvs(r xport.Transport, depth, nGrids int) []xport.Request {
	if e.M.P() == 1 || depth == 0 {
		return nil
	}
	return redist.PostRecvs(r, e.haloPlan(depth, nGrids))
}

// ExchangeHalosPiped is ExchangeHalos consuming requests preposted by an
// earlier PostHaloRecvs; pre == nil falls back to the blocking exchange.
// Virtual time is identical either way.
func (e *Env) ExchangeHalosPiped(r xport.Transport, depth, nGrids int, pre []xport.Request) {
	if e.M.P() == 1 || depth == 0 {
		return
	}
	redist.Execute(r, e.haloPlan(depth, nGrids), redist.ExecOpts{PerMessage: e.Overhead.PerMessage, Preposted: pre})
}

// haloPlan returns the compiled halo schedule for (depth, nGrids),
// compiling it on first use. All ranks execute the one shared instance.
func (e *Env) haloPlan(depth, nGrids int) *redist.Plan {
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
