package dist

import (
	"fmt"
	"sync"

	"genmp/internal/core"
	"genmp/internal/grid"
	"genmp/internal/numutil"
	"genmp/internal/plan"
	"genmp/internal/redist"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// Block is a static block unipartitioning of a d-dimensional array: one
// dimension (Dim) is cut into p contiguous slabs, one per processor — the
// first of the two "standard" strategies the paper contrasts with
// multipartitioning. Sweeps along unpartitioned dimensions are fully local;
// sweeps along Dim are either pipelined wavefronts (static block) or
// transpose-based (dynamic block).
type Block struct {
	P        int
	Eta      []int
	Dim      int
	Overhead OverheadModel
	// Batch is the batch width of the batched sweep kernels: 0 picks
	// sweep.DefaultBatchLines, negative forces the scalar per-line path
	// (the bit-identical oracle, also used as the "before" ablation).
	Batch int
	// Overlap is folded into lazily compiled wavefront plans: enabled, each
	// pipeline block solves its boundary lines first and posts the carry
	// while the interior computes (DESIGN.md §14).
	Overlap plan.Overlap
	// scratchBuf holds one reusable arena per rank (indexed by rank ID, so
	// concurrently running ranks never share); presized lazily by scratch,
	// so literal-built Blocks are allocation-free in steady state too.
	scratchBuf []Scratch
	scOnce     sync.Once
	// wfPlans caches compiled wavefront schedules per (solver, grain) so
	// repeated sweeps share one plan across ranks and steps.
	wfMu    sync.Mutex
	wfPlans map[wfKey]*plan.SweepPlan
	// tpPlans caches compiled transpose redistributions per (tDim, nGrids):
	// index 0 holds the forward move (Dim-slabs → tDim-slabs), index 1 the
	// reverse. Shared across concurrently running ranks, hence the mutex.
	tpMu    sync.Mutex
	tpPlans map[tpKey][2]*redist.Plan
}

// tpKey identifies one compiled transpose pair.
type tpKey struct {
	tDim, nGrids int
}

// wfKey identifies one compiled wavefront schedule: the carry lengths come
// from the named solver, the phase structure from the grain.
type wfKey struct {
	solver  string
	grain   int
	overlap bool
}

// scratch returns rank q's arena, presizing the per-rank slice on first use
// so a Block built as a literal is served from persistent arenas too.
func (b *Block) scratch(q int) *Scratch {
	b.scOnce.Do(func() {
		if b.scratchBuf == nil {
			b.scratchBuf = make([]Scratch, b.P)
		}
	})
	return &b.scratchBuf[q]
}

// WorkspaceStats aggregates arena acquisition counters across all ranks'
// scratch; with warmed arenas the hit rate is 1. Not safe against ranks
// still running.
func (b *Block) WorkspaceStats() sweep.WorkspaceStats {
	var out sweep.WorkspaceStats
	for q := range b.scratchBuf {
		s := b.scratchBuf[q].WorkspaceStats()
		out.Gets += s.Gets
		out.Hits += s.Hits
	}
	return out
}

// wavefrontPlan returns the compiled pipeline schedule for (solver, grain),
// compiling it on first use. All ranks execute the one shared instance.
func (b *Block) wavefrontPlan(solver sweep.Solver, grainLines int) *plan.SweepPlan {
	key := wfKey{solver: solver.Name(), grain: grainLines, overlap: b.Overlap.Enabled}
	b.wfMu.Lock()
	defer b.wfMu.Unlock()
	if pl, ok := b.wfPlans[key]; ok {
		return pl
	}
	pl, err := plan.CompileWavefront(plan.WavefrontSpec{
		P: b.P, Eta: b.Eta, Dim: b.Dim, Grain: grainLines, Solver: solver, Overlap: b.Overlap,
	})
	if err != nil {
		panic("dist: " + err.Error())
	}
	if b.wfPlans == nil {
		b.wfPlans = map[wfKey]*plan.SweepPlan{}
	}
	b.wfPlans[key] = pl
	return pl
}

// NewBlock builds a block unipartitioning along the given dimension.
func NewBlock(p int, eta []int, dim int, ov OverheadModel) (*Block, error) {
	if p < 1 {
		return nil, fmt.Errorf("dist: Block: p = %d must be ≥ 1", p)
	}
	if dim < 0 || dim >= len(eta) {
		return nil, fmt.Errorf("dist: Block: dim %d out of range for rank %d", dim, len(eta))
	}
	if eta[dim] < p {
		return nil, fmt.Errorf("dist: Block: extent η[%d] = %d smaller than p = %d", dim, eta[dim], p)
	}
	return &Block{P: p, Eta: numutil.CopyInts(eta), Dim: dim, Overhead: ov, scratchBuf: make([]Scratch, p)}, nil
}

// OwnedRange returns rank q's slab [lo, hi) along the partitioned dimension.
func (b *Block) OwnedRange(q int) (lo, hi int) {
	return core.BlockRange(b.Eta[b.Dim], b.P, q)
}

// ownedRect returns rank q's region of the array.
func (b *Block) ownedRect(q int) grid.Rect {
	lo := make([]int, len(b.Eta))
	hi := numutil.CopyInts(b.Eta)
	lo[b.Dim], hi[b.Dim] = b.OwnedRange(q)
	return grid.RectOf(lo, hi)
}

// orthoLines returns the number of lines along dim crossing rank q's slab.
func (b *Block) orthoLines(q, dim int) int {
	rect := b.ownedRect(q)
	n := 1
	for j := range b.Eta {
		if j != dim {
			n *= rect.Hi[j] - rect.Lo[j]
		}
	}
	return n
}

// ComputeOnSlab models (and, when f is non-nil, performs) a local
// computation phase of flopsPerElement over every element of the calling
// rank's slab.
func (b *Block) ComputeOnSlab(r xport.Transport, flopsPerElement float64, f func(rect grid.Rect)) {
	rect := b.ownedRect(r.Rank())
	r.Compute(b.Overhead.PerTileVisit)
	if f != nil {
		f(rect)
	}
	r.ComputeFlops(flopsPerElement * float64(rect.Size()) * b.Overhead.ComputeFactor)
}

// LocalSweep performs a sweep along an unpartitioned dimension: every line
// is fully local to its owner, so there is no communication at all.
func (b *Block) LocalSweep(r xport.Transport, dim int, solver sweep.Solver, vecs []*grid.Grid) {
	if dim == b.Dim {
		panic("dist: LocalSweep along the partitioned dimension; use WavefrontSweep or TransposeSweep")
	}
	rect := b.ownedRect(r.Rank())
	lines := b.orthoLines(r.Rank(), dim)
	elements := lines * b.Eta[dim]
	r.Compute(b.Overhead.PerTileVisit)
	if vecs != nil {
		sc := b.scratch(r.Rank())
		solveLocalLines(solver, vecs, rect, dim, b.Batch, sc)
		sc.publish(r)
	}
	r.ComputeFlops(solver.FlopsPerElement() * float64(elements) * b.Overhead.ComputeFactor)
}

// solveLocalLines runs full-line solves over every line of rect along dim.
// Lines go to the batched kernels (bit-identical to the scalar path) in
// batches of `batch` lines, solved in place when a batch's lines form an
// arithmetic progression in storage and packed into arena panels
// otherwise (Scratch.inPlace); solvers without a batched form, or
// batch < 0, take the per-line scalar path.
func solveLocalLines(solver sweep.Solver, vecs []*grid.Grid, rect grid.Rect, dim, batch int, sc *Scratch) {
	n := rect.Hi[dim] - rect.Lo[dim]
	nv := solver.NumVecs()
	bs, ok := solver.(sweep.BatchSolver)
	if !ok || batch < 0 {
		chunk := sc.pan.Panels(nv, n)
		vecs[0].EachLine(rect, dim, func(l grid.Line) {
			for v, g := range vecs {
				g.Gather(l, chunk[v])
			}
			sweep.ChunkedSolveWS(solver, chunk, nil, &sc.chunk)
			for v, g := range vecs {
				g.Scatter(l, chunk[v])
			}
		})
		return
	}
	if batch == 0 {
		batch = sweep.DefaultBatchLines
	}
	// The grids share one shape, so every vec reads the same line list.
	sc.lines = vecs[0].AppendLines(rect, dim, sc.lines[:0])
	lines := sc.lines
	if cap(sc.vecLines) < len(vecs) {
		sc.vecLines = make([][]grid.Line, len(vecs))
	}
	vecLines := sc.vecLines[:len(vecs)]
	for v := range vecLines {
		vecLines[v] = lines
	}
	runBackward := solver.BackwardCarryLen() > 0
	// Both passes run on one batch, so a packed batch's move masks are the
	// union of the passes': gather what either touches, scatter what either
	// writes (skipping a scatter of unmodified values is a numeric no-op).
	fwdT, fwdW := sweep.PassMasks(solver, false)
	var bwdT, bwdW []bool
	if runBackward {
		bwdT, bwdW = sweep.PassMasks(solver, true)
	}
	for s0 := 0; s0 < len(lines); s0 += batch {
		nb := min(batch, len(lines)-s0)
		panels, pv, inPlace := sc.inPlace(vecs, vecLines, s0, nb)
		blk := lines[s0 : s0+nb]
		if !inPlace {
			pv = sweep.Packed(nb, n)
			panels = sc.pan.Panels(nv, nb*n)
			for v, g := range vecs {
				if sweep.MaskOn(fwdT, v) || (runBackward && sweep.MaskOn(bwdT, v)) {
					g.GatherLines(blk, panels[v])
				}
			}
		}
		bs.ForwardBatch(panels, pv, nil, nil)
		if runBackward {
			bs.BackwardBatch(panels, pv, nil, nil)
		}
		if inPlace {
			continue
		}
		for v, g := range vecs {
			if sweep.MaskOn(fwdW, v) || (runBackward && sweep.MaskOn(bwdW, v)) {
				g.ScatterLines(blk, panels[v])
			}
		}
	}
}

// WavefrontSweep performs a pipelined sweep along the partitioned
// dimension. The lines crossing all slabs are processed in blocks of
// grainLines; rank q handles block m only after receiving its carries from
// rank q−1, so computation proceeds as a software pipeline whose fill and
// drain cost shrinks with the grain while the per-message overhead grows —
// the Section 1 tension of static block partitionings.
func (b *Block) WavefrontSweep(r xport.Transport, solver sweep.Solver, vecs []*grid.Grid, grainLines int) {
	if grainLines < 1 {
		panic("dist: WavefrontSweep: grainLines must be ≥ 1")
	}
	pl := b.wavefrontPlan(solver, grainLines)
	q := r.Rank()
	sc := b.scratch(q)
	// A pipeline block is a window of the slab, not a tile: one loop nest
	// per slab, so no per-visit charge.
	ov := b.Overhead
	ov.PerTileVisit = 0
	for _, backward := range [2]bool{false, true} {
		if backward && !HasBackwardPass(solver) {
			break
		}
		pp := pl.Pass(q, b.Dim, backward)
		RunPass(r, PassSpec{
			Pass: pp, Solver: solver, Batch: b.Batch, Bind: sc.bindGrids(vecs, pp),
			Overhead: ov, Scratch: sc,
		})
	}
}

// TransposeSweep performs the dynamic-block strategy for the partitioned
// dimension: transpose so the sweep dimension becomes local, solve whole
// lines, transpose back. Each transpose is an all-to-all in which every
// rank exchanges its 1/p share of the others' slabs; grids share storage in
// this process, so the messages carry cost and ordering while the solve
// reads whole lines directly. transposeGrids is the number of arrays that
// must move (the solver's vec count in a real code).
func (b *Block) TransposeSweep(r xport.Transport, solver sweep.Solver, vecs []*grid.Grid) {
	q := r.Rank()
	nGrids := solver.NumVecs()

	// Pick the dimension that becomes the distributed one after the
	// transpose: the first dimension other than b.Dim.
	tDim := 0
	if b.Dim == 0 {
		tDim = 1
	}

	b.allToAll(r, tDim, nGrids, 0)

	// After the transpose rank q owns the slab [lo,hi) of tDim with the
	// sweep dimension local: solve whole lines.
	lo, hi := core.BlockRange(b.Eta[tDim], b.P, q)
	rect := grid.RectOf(make([]int, len(b.Eta)), numutil.CopyInts(b.Eta))
	rect.Lo[tDim], rect.Hi[tDim] = lo, hi
	lines := 1
	for j := range b.Eta {
		if j != b.Dim {
			lines *= rect.Hi[j] - rect.Lo[j]
		}
	}
	r.Compute(b.Overhead.PerTileVisit)
	if vecs != nil {
		sc := b.scratch(q)
		solveLocalLines(solver, vecs, rect, b.Dim, b.Batch, sc)
		sc.publish(r)
	}
	r.ComputeFlops(solver.FlopsPerElement() * float64(lines*b.Eta[b.Dim]) * b.Overhead.ComputeFactor)

	b.allToAll(r, tDim, nGrids, 1)
}

// transposePlans returns the compiled transpose redistributions for
// (tDim, nGrids) — [0] forward (Dim-slabs → tDim-slabs), [1] reverse —
// compiling them on first use. Each phase is a BLOCK→BLOCK special case of
// redist.Compile: every peer receives the intersection of q's outgoing slab
// with the peer's incoming slab — q's span along the outgoing distributed
// dimension times the peer's span along the incoming one times the full
// orthogonal extents, exactly the bytes the historical hand-built
// transposeSizes loop computed. (The even older `own/p` shortcut truncated
// whenever an extent was not divisible by p, undercounting the traffic.)
func (b *Block) transposePlans(tDim, nGrids int) [2]*redist.Plan {
	key := tpKey{tDim: tDim, nGrids: nGrids}
	b.tpMu.Lock()
	defer b.tpMu.Unlock()
	if pls, ok := b.tpPlans[key]; ok {
		return pls
	}
	home, err := redist.NewBlockLayout(b.P, b.Eta, b.Dim)
	if err == nil {
		var away *redist.BlockLayout
		if away, err = redist.NewBlockLayout(b.P, b.Eta, tDim); err == nil {
			var pls [2]*redist.Plan
			if pls[0], err = redist.Compile(redist.Spec{From: home, To: away, NGrids: nGrids}); err == nil {
				if pls[1], err = redist.Compile(redist.Spec{From: away, To: home, NGrids: nGrids}); err == nil {
					if b.tpPlans == nil {
						b.tpPlans = map[tpKey][2]*redist.Plan{}
					}
					b.tpPlans[key] = pls
					return pls
				}
			}
		}
	}
	panic("dist: " + err.Error())
}

// transposeSizes returns the modeled bytes rank q ships to each peer for
// one transpose phase, read off the compiled redistribution plan.
func (b *Block) transposeSizes(q, tDim, nGrids, phase int) []int {
	return b.transposePlans(tDim, nGrids)[phase].SendSizes(q, 0, b.P)
}

// allToAll runs one transpose phase by executing its compiled plan: a
// single OpAllToAll step under the machine's default algorithm
// (Machine.Coll; auto is the direct pairwise exchange), bit-identical to
// the historical hand-rolled collective call.
func (b *Block) allToAll(r xport.Transport, tDim, nGrids, phase int) {
	if b.P == 1 {
		return
	}
	redist.Execute(r, b.transposePlans(tDim, nGrids)[phase],
		redist.ExecOpts{PerMessage: b.Overhead.PerMessage})
}
