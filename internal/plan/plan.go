// Package plan is the compiled intermediate representation of a line-sweep
// communication schedule — the repo's stand-in for the schedule dHPF
// materializes at compile time (paper Section 5). A SweepPlan is compiled
// once from (partitioning, modular mapping, solver, per-field halo/layout,
// batch knob) and then consumed by every subsystem that used to re-derive
// it privately: the one pass executor dist.RunPass (which
// dist.MultiSweep, the dist wavefront pipeline and the strict
// distributed-memory dmem.SweepRunner call with their own storage
// bindings), the cost model's per-phase prediction fold, and the obs plan
// dump. One plan, many consumers — predictions and executors can no
// longer silently disagree.
//
// The IR materializes, per rank × sweep dimension × direction, the full
// phase schedule: neighbor ranks, tile line geometry in canonical
// (row-major tile, row-major line) order, carry byte counts, and message
// tags drawn from the shared xport.ReserveTags reservation. Validate checks
// the properties the executors rely on: a single neighbor per direction
// (the paper's neighbor property), tag disjointness per channel, and
// byte-count symmetry between matching send/recv phases.
package plan

import (
	"fmt"
	"sync"

	"genmp/internal/core"
	"genmp/internal/grid"
	"genmp/internal/numutil"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// SweepTags is the shared tag reservation all compiled sweep schedules mint
// from. Both runtimes (dist and dmem) execute plans drawn from this single
// space: their sweeps never share a machine, and per-channel FIFO order
// disambiguates messages within one run.
var SweepTags = xport.ReserveTags("plan/sweep", 1<<28, 1<<28)

// Spec is the input of Compile: everything a multipartitioned sweep
// schedule depends on.
type Spec struct {
	// M is the multipartitioning (tile grid + modular mapping).
	M *core.Multipartitioning
	// Eta is the array extents the tile grid cuts.
	Eta []int
	// Solver supplies the schedule's identity (name) and the per-line carry
	// lengths that size every message.
	Solver sweep.Solver
	// Halos records the per-field halo depths of the storage the plan will
	// run over (layout metadata carried into the dump; nil when the
	// executor's fields are unpadded or shared).
	Halos []int
	// Batch is the executor's kernel panel-width knob, recorded for the
	// dump (0 = default, negative = scalar oracle). It does not affect the
	// schedule.
	Batch int
	// Tags is the tag space messages are minted from; the zero value picks
	// SweepTags.
	Tags xport.TagSpace
	// Overlap enables the boundary-first split annotation (see Overlap).
	Overlap Overlap
}

// WavefrontSpec is the input of CompileWavefront: a block unipartitioning
// pipelined along its cut dimension.
type WavefrontSpec struct {
	// P is the number of processors (slabs along Dim).
	P int
	// Eta is the array extents.
	Eta []int
	// Dim is the partitioned dimension the pipeline advances along.
	Dim int
	// Grain is the number of lines per pipeline message.
	Grain int
	// Solver supplies the plan identity and carry lengths.
	Solver sweep.Solver
	// Batch is the executor's kernel panel-width knob (metadata).
	Batch int
	// Tags is the tag space; the zero value picks SweepTags.
	Tags xport.TagSpace
	// Overlap enables the boundary-first split annotation (see Overlap).
	Overlap Overlap
}

// Kind distinguishes the two schedule families the IR covers.
type Kind string

const (
	// KindMultipartition is a full multipartitioned sweep: γ_dim phases per
	// direction, one aggregated carry message per phase boundary.
	KindMultipartition Kind = "multipartition"
	// KindWavefront is a pipelined block sweep: one phase per grain block,
	// carries flowing rank to rank along the cut dimension.
	KindWavefront Kind = "wavefront"
)

// Tile is one tile's line geometry inside a phase, in the canonical order
// both runtimes iterate (row-major tiles, row-major lines within a tile).
//
// Coord and Rect are shared: Compile builds each tile's coordinate and
// region once, and every pass of the rank that visits the tile points at
// the same slices (a wavefront rank's blocks share its slab's Rect). They
// are immutable once compiled; callers must not modify them.
type Tile struct {
	// Coord is the tile-grid coordinate (nil for wavefront plans, whose
	// "tile" is the rank's whole slab).
	Coord []int
	// Rect is the tile's index region of the global array.
	Rect grid.Rect
	// LineOff is the offset of this tile's first line in the canonical line
	// order: within the phase (and so within the carry payload) for
	// multipartitioned plans, within the rank's full pass for wavefront
	// blocks (whose executors index the slab's line list directly).
	LineOff int
	// Lines is the tile's cross-section line count orthogonal to the sweep.
	Lines int
	// ChunkLen is the tile's extent along the sweep dimension.
	ChunkLen int
}

// Phase is one step of a pass: receive the upstream carries, compute the
// slab's tiles, ship the downstream carries.
type Phase struct {
	// Slab is the slab index (multipartition) or pipeline block index
	// (wavefront) this phase covers.
	Slab int
	// RecvFrom / SendTo are the single upstream / downstream ranks, −1 at
	// the open ends of the chain.
	RecvFrom int
	SendTo   int
	// RecvTag / SendTag are the message tags of the carries (meaningful
	// only when the corresponding rank is ≥ 0).
	RecvTag int
	SendTag int
	// RecvBytes / SendBytes are the carry message sizes: Lines × carry
	// length × 8. Matching send/recv phases must agree (Validate checks).
	RecvBytes int
	SendBytes int
	// Lines is the total line count across the phase's tiles.
	Lines int
	// Tiles is the phase's tile geometry in canonical order.
	Tiles []Tile
	// Boundary is the overlap split point: the first Boundary lines of the
	// canonical order form the boundary set an overlapping executor solves
	// (and ships) first; the remaining Lines−Boundary interior lines solve
	// while the boundary carry is in flight. 0 = unsplit (always, when the
	// plan was compiled without Overlap).
	Boundary int
	// InteriorRecvTag / InteriorSendTag are the tags of the interior carry
	// messages of a split phase (Boundary > 0): the boundary carries travel
	// under RecvTag/SendTag, the interior remainder under these. Zero when
	// unsplit or when the corresponding peer does not exist.
	InteriorRecvTag int
	InteriorSendTag int
}

// Pass is one direction of one sweep dimension for one rank.
type Pass struct {
	// Dim is the sweep dimension.
	Dim int
	// Backward marks the back-substitution direction.
	Backward bool
	// CarryLen is the per-line carry length (float64s) of this direction.
	CarryLen int
	// Phases is the ordered phase schedule.
	Phases []Phase
}

// SweepPlan is the compiled schedule: per rank, per (dimension, direction),
// the full phase sequence an executor runs and a cost fold predicts over.
type SweepPlan struct {
	Kind Kind
	P    int
	Eta  []int
	// Gamma is the tile-grid shape (multipartition plans; nil otherwise).
	Gamma []int
	// Dim / Grain describe wavefront plans (Dim = −1 otherwise).
	Dim   int
	Grain int
	// Solver identity and per-direction carry lengths.
	Solver        string
	ForwardCarry  int
	BackwardCarry int
	// Halos / Batch are compile-input metadata (see Spec); they do not
	// affect the schedule or the Fingerprint.
	Halos []int
	Batch int
	// Tags is the reservation every RecvTag/SendTag falls in.
	Tags xport.TagSpace
	// Overlap records whether (and how) the plan's phases carry the
	// boundary-first split annotation. Executors switch schedules on it;
	// plans compiled with it off are byte-identical to pre-overlap compiles.
	Overlap Overlap
	// Passes is indexed [rank][dim*2 + direction] (direction 1 = backward).
	Passes [][]Pass
	// fpOnce/fp memoize Fingerprint. A plan is immutable once compiled, and
	// its consumers fingerprint repeatedly (equivalence checks, dump keys);
	// callers who hand-build and then mutate a SweepPlan must not
	// fingerprint it before the mutation.
	fpOnce sync.Once
	fp     string
}

// Pass returns rank q's schedule for a sweep along dim in the given
// direction. Pure slice indexing — safe to call from every rank's
// goroutine concurrently, allocation-free.
func (pl *SweepPlan) Pass(q, dim int, backward bool) *Pass {
	k := dim * 2
	if backward {
		k++
	}
	return &pl.Passes[q][k]
}

// sweepTag mints the tag of the carry crossing the given phase boundary:
// the (dim, direction) pair selects a 2²⁰-tag band, the boundary index the
// offset within it. Identical to the formula both runtimes historically
// used, so dist-side tag values are unchanged.
func sweepTag(ts xport.TagSpace, dim int, backward bool, phase int) int {
	pass := 0
	if backward {
		pass = 1
	}
	return ts.Tag((dim*2+pass)<<20 | phase)
}

// carryLens returns the per-direction carry lengths of a solver.
func carryLens(s sweep.Solver) (fwd, bwd int) {
	return s.ForwardCarryLen(), s.BackwardCarryLen()
}

// Compile builds the full multipartitioned sweep schedule of spec, eagerly
// over every rank × dimension × direction. The schedule is derived from
// core.Multipartitioning.SweepSchedule and the TileBounds block ranges
// exactly as the executors historically did, so a rewired executor replays
// byte-identical Compute/Send/Recv sequences. Each tile's geometry is
// computed once and shared by the passes that visit it (see Tile).
func Compile(spec Spec) (pl *SweepPlan, err error) {
	defer func() { countCompile(KindMultipartition, err) }()
	if spec.M == nil {
		return nil, fmt.Errorf("plan: Compile: Spec.M is nil")
	}
	if spec.Solver == nil {
		return nil, fmt.Errorf("plan: Compile: Spec.Solver is nil")
	}
	d := spec.M.Dims()
	if len(spec.Eta) != d {
		return nil, fmt.Errorf("plan: Compile: eta has %d extents for a %d-dimensional partitioning", len(spec.Eta), d)
	}
	gamma := spec.M.Gamma()
	for i, e := range spec.Eta {
		if e < gamma[i] {
			return nil, fmt.Errorf("plan: Compile: extent η[%d] = %d smaller than cut count γ[%d] = %d", i, e, i, gamma[i])
		}
	}
	tags := spec.Tags
	if tags.Size() == 0 {
		tags = SweepTags
	}
	fwd, bwd := carryLens(spec.Solver)
	p := spec.M.P()
	pl = &SweepPlan{
		Kind:          KindMultipartition,
		P:             p,
		Eta:           numutil.CopyInts(spec.Eta),
		Gamma:         gamma,
		Dim:           -1,
		Solver:        spec.Solver.Name(),
		ForwardCarry:  fwd,
		BackwardCarry: bwd,
		Halos:         numutil.CopyInts(spec.Halos),
		Batch:         spec.Batch,
		Tags:          tags,
		Passes:        make([][]Pass, p),
	}
	geom := newTileTable(spec.M, spec.Eta)
	for q := 0; q < p; q++ {
		pl.Passes[q] = make([]Pass, 2*d)
		for dim := 0; dim < d; dim++ {
			for _, backward := range []bool{false, true} {
				carry := fwd
				if backward {
					carry = bwd
				}
				pass := Pass{Dim: dim, Backward: backward, CarryLen: carry}
				pass.Phases = compileMultiPass(spec, geom, tags, q, dim, backward, carry)
				k := dim * 2
				if backward {
					k++
				}
				pl.Passes[q][k] = pass
			}
		}
	}
	if spec.Overlap.Enabled {
		pl.applyOverlap(spec.Overlap)
	}
	return pl, nil
}

// tileTable holds every tile's coordinate and index region, indexed by the
// tile's row-major rank in γ. A tile appears in 2d passes of its owner, and
// all of those Tiles share the one Coord and Rect built here.
type tileTable struct {
	gamma []int
	tiles []Tile
}

// newTileTable builds the table of m's tile grid over eta. The slices are
// cut from three backing arrays with their capacity clipped, so an append
// to one copies instead of spilling into its neighbor.
func newTileTable(m *core.Multipartitioning, eta []int) tileTable {
	gamma := m.Gamma()
	d := len(gamma)
	n := m.NumTiles()
	coords, los, his := make([]int, n*d), make([]int, n*d), make([]int, n*d)
	tiles := make([]Tile, n)
	for r := range tiles {
		a, b := r*d, (r+1)*d
		coord := numutil.CoordOf(r, gamma, coords[a:b:b])
		lo, hi := los[a:b:b], his[a:b:b]
		for j := range coord {
			lo[j], hi[j] = core.BlockRange(eta[j], gamma[j], coord[j])
		}
		tiles[r] = Tile{Coord: coord, Rect: grid.RectOf(lo, hi)}
	}
	return tileTable{gamma: gamma, tiles: tiles}
}

// of returns the shared geometry of the tile at coord.
func (tt tileTable) of(coord []int) Tile { return tt.tiles[numutil.RankOf(coord, tt.gamma)] }

// compileMultiPass resolves one rank's phase schedule for one (dim,
// direction) from the runtime sweep schedule and the shared tile geometry;
// only the per-sweep fields (LineOff, Lines, ChunkLen) are computed here.
func compileMultiPass(spec Spec, geom tileTable, tags xport.TagSpace, q, dim int, backward bool, carry int) []Phase {
	step := 1
	if backward {
		step = -1
	}
	sched := spec.M.SweepSchedule(q, dim, backward)
	recvFrom := -1
	if len(sched) > 1 {
		recvFrom = spec.M.NeighborProc(q, dim, -step)
	}
	// One backing array holds the pass's tiles; each phase gets a
	// capacity-clipped window of it.
	total := 0
	for _, sp := range sched {
		total += len(sp.Tiles)
	}
	tiles := make([]Tile, total)
	phases := make([]Phase, len(sched))
	for k, sp := range sched {
		nt := len(sp.Tiles)
		ph := Phase{Slab: sp.Slab, RecvFrom: -1, SendTo: sp.SendTo, Tiles: tiles[:nt:nt]}
		tiles = tiles[nt:]
		lineOff := 0
		for ti, coord := range sp.Tiles {
			t := geom.of(coord)
			lo, hi := t.Rect.Lo, t.Rect.Hi
			n := 1
			for j := range lo {
				if j != dim {
					n *= hi[j] - lo[j]
				}
			}
			t.LineOff, t.Lines, t.ChunkLen = lineOff, n, hi[dim]-lo[dim]
			ph.Tiles[ti] = t
			lineOff += n
		}
		ph.Lines = lineOff
		if k > 0 {
			ph.RecvFrom = recvFrom
			ph.RecvTag = sweepTag(tags, dim, backward, k)
			ph.RecvBytes = ph.Lines * carry * 8
		}
		if ph.SendTo >= 0 {
			ph.SendTag = sweepTag(tags, dim, backward, k+1)
			ph.SendBytes = ph.Lines * carry * 8
		}
		phases[k] = ph
	}
	return phases
}

// CompileWavefront builds the pipelined sweep schedule of a block
// unipartitioning: per direction, one phase per grain block of the lines
// crossing the rank's slab, with carries flowing to the next rank along the
// cut dimension. Unlike multipartitioned phases, a wavefront block's send
// and recv share one tag (block index); the chain pairs sender phase m with
// receiver phase m.
func CompileWavefront(spec WavefrontSpec) (pl *SweepPlan, err error) {
	defer func() { countCompile(KindWavefront, err) }()
	if spec.P < 1 {
		return nil, fmt.Errorf("plan: CompileWavefront: p = %d must be ≥ 1", spec.P)
	}
	if spec.Solver == nil {
		return nil, fmt.Errorf("plan: CompileWavefront: Spec.Solver is nil")
	}
	d := len(spec.Eta)
	if spec.Dim < 0 || spec.Dim >= d {
		return nil, fmt.Errorf("plan: CompileWavefront: dim %d out of range for rank %d", spec.Dim, d)
	}
	if spec.Eta[spec.Dim] < spec.P {
		return nil, fmt.Errorf("plan: CompileWavefront: extent η[%d] = %d smaller than p = %d", spec.Dim, spec.Eta[spec.Dim], spec.P)
	}
	if spec.Grain < 1 {
		return nil, fmt.Errorf("plan: CompileWavefront: grain %d must be ≥ 1", spec.Grain)
	}
	tags := spec.Tags
	if tags.Size() == 0 {
		tags = SweepTags
	}
	fwd, bwd := carryLens(spec.Solver)
	pl = &SweepPlan{
		Kind:          KindWavefront,
		P:             spec.P,
		Eta:           numutil.CopyInts(spec.Eta),
		Dim:           spec.Dim,
		Grain:         spec.Grain,
		Solver:        spec.Solver.Name(),
		ForwardCarry:  fwd,
		BackwardCarry: bwd,
		Batch:         spec.Batch,
		Tags:          tags,
		Passes:        make([][]Pass, spec.P),
	}
	for q := 0; q < spec.P; q++ {
		pl.Passes[q] = make([]Pass, 2*d)
		for _, backward := range []bool{false, true} {
			carry := fwd
			if backward {
				carry = bwd
			}
			pass := Pass{Dim: spec.Dim, Backward: backward, CarryLen: carry}
			pass.Phases = compileWavefrontPass(spec, tags, q, backward, carry)
			k := spec.Dim * 2
			if backward {
				k++
			}
			pl.Passes[q][k] = pass
		}
		// The other dimensions are fully local for a block partitioning:
		// their passes stay empty (Dim/Backward filled for self-description).
		for dim := 0; dim < d; dim++ {
			if dim == spec.Dim {
				continue
			}
			pl.Passes[q][dim*2] = Pass{Dim: dim, CarryLen: fwd}
			pl.Passes[q][dim*2+1] = Pass{Dim: dim, Backward: true, CarryLen: bwd}
		}
	}
	if spec.Overlap.Enabled {
		pl.applyOverlap(spec.Overlap)
	}
	return pl, nil
}

// compileWavefrontPass resolves one rank's pipeline blocks for one
// direction.
func compileWavefrontPass(spec WavefrontSpec, tags xport.TagSpace, q int, backward bool, carry int) []Phase {
	lo := make([]int, len(spec.Eta))
	hi := numutil.CopyInts(spec.Eta)
	lo[spec.Dim], hi[spec.Dim] = core.BlockRange(spec.Eta[spec.Dim], spec.P, q)
	rect := grid.RectOf(lo, hi)
	chunkLen := hi[spec.Dim] - lo[spec.Dim]
	totalLines := 1
	for j := range spec.Eta {
		if j != spec.Dim {
			totalLines *= spec.Eta[j]
		}
	}
	upstream, downstream := q-1, q+1
	if backward {
		upstream, downstream = q+1, q-1
	}
	if upstream < 0 || upstream >= spec.P {
		upstream = -1
	}
	if downstream < 0 || downstream >= spec.P {
		downstream = -1
	}
	blocks := numutil.CeilDiv(totalLines, spec.Grain)
	phases := make([]Phase, blocks)
	for m := 0; m < blocks; m++ {
		first := m * spec.Grain
		count := numutil.MinInt(spec.Grain, totalLines-first)
		ph := Phase{
			Slab:     m,
			RecvFrom: upstream,
			SendTo:   downstream,
			Lines:    count,
			Tiles:    []Tile{{Rect: rect, LineOff: first, Lines: count, ChunkLen: chunkLen}},
		}
		if upstream >= 0 {
			ph.RecvTag = sweepTag(tags, spec.Dim, backward, m)
			ph.RecvBytes = count * carry * 8
		}
		if downstream >= 0 {
			ph.SendTag = sweepTag(tags, spec.Dim, backward, m)
			ph.SendBytes = count * carry * 8
		}
		phases[m] = ph
	}
	return phases
}

// Elements returns the total number of array elements the plan computes in
// one sweep along dim, summed over all ranks — exactly η for a complete
// schedule (the cost fold's K₁ volume).
func (pl *SweepPlan) Elements(dim int) int {
	n := 0
	for q := 0; q < pl.P; q++ {
		for _, ph := range pl.Pass(q, dim, false).Phases {
			for _, t := range ph.Tiles {
				n += t.Lines * t.ChunkLen
			}
		}
	}
	return n
}

// DimSendBytes returns the total carry bytes the plan schedules for a full
// sweep along dim (both directions, all ranks) — the expected-traffic side
// of the obs audit.
func (pl *SweepPlan) DimSendBytes(dim int) int {
	n := 0
	for q := 0; q < pl.P; q++ {
		for _, backward := range []bool{false, true} {
			for _, ph := range pl.Pass(q, dim, backward).Phases {
				if ph.SendTo >= 0 {
					n += ph.SendBytes
				}
			}
		}
	}
	return n
}

// TotalSendBytes returns the carry bytes of one full round of sweeps along
// every dimension.
func (pl *SweepPlan) TotalSendBytes() int {
	n := 0
	for dim := range pl.Eta {
		n += pl.DimSendBytes(dim)
	}
	return n
}
