package redist

import (
	"fmt"

	"genmp/internal/core"
	"genmp/internal/grid"
	"genmp/internal/numutil"
	"genmp/internal/plan"
	"genmp/internal/xport"
)

// Spec is the input of Compile: a full source→target redistribution.
type Spec struct {
	// From / To are the two distributions. Their Eta must agree; their
	// rank counts may differ (the plan's world is the larger one).
	From, To Layout
	// NGrids is how many same-shape arrays move together (0 picks 1).
	NGrids int
	// MaxBytes is the peak-memory accountant's per-rank staging budget:
	// the bytes a rank may hold in send and receive payloads of one round
	// combined. Oversized moves are split along their largest extent and
	// the rounds packed greedily. 0 disables chunking (one round).
	MaxBytes int
	// Tags is unused by OpAllToAll schedules (the collective brings its
	// own space) but recorded for Validate; the zero value picks
	// plan.RedistTags.
	Tags xport.TagSpace
}

// HaloSpec is the input of CompileHalo: the stencil boundary exchange of a
// multipartitioning, expressed as a partial redistribution.
type HaloSpec struct {
	// M is the multipartitioning whose tile faces move.
	M *core.Multipartitioning
	// Eta is the global array extents.
	Eta []int
	// Depth is the halo width in elements.
	Depth int
	// NGrids is how many arrays exchange together (0 picks 1).
	NGrids int
	// Tags is the tag space of the per-direction messages; the zero value
	// picks plan.RedistTags. The dist and dmem wrappers pass their legacy
	// spaces so historical tag values are preserved.
	Tags xport.TagSpace
}

// intersect returns the overlap of two rects and whether it is non-empty.
func intersect(a, b grid.Rect) (grid.Rect, bool) {
	d := len(a.Lo)
	lo := make([]int, d)
	hi := make([]int, d)
	for i := 0; i < d; i++ {
		lo[i] = numutil.MaxInt(a.Lo[i], b.Lo[i])
		hi[i] = numutil.MinInt(a.Hi[i], b.Hi[i])
		if lo[i] >= hi[i] {
			return grid.Rect{}, false
		}
	}
	return grid.RectOf(lo, hi), true
}

// Compile builds the full redistribution schedule of spec: every source
// region is intersected with every target region, the overlaps become
// Moves (self-overlaps become local copies that never touch the wire), and
// the accountant packs the wire moves into OpAllToAll rounds that respect
// MaxBytes. The result is deterministic in the spec.
func Compile(spec Spec) (pl *Plan, err error) {
	defer func() { countCompile(KindMove, err) }()
	if spec.From == nil || spec.To == nil {
		return nil, fmt.Errorf("redist: Compile: From and To layouts are required")
	}
	fromEta, toEta := spec.From.Eta(), spec.To.Eta()
	if len(fromEta) != len(toEta) {
		return nil, fmt.Errorf("redist: Compile: source rank %d does not match target rank %d", len(fromEta), len(toEta))
	}
	for i := range fromEta {
		if fromEta[i] != toEta[i] {
			return nil, fmt.Errorf("redist: Compile: extents differ at dim %d: source %d, target %d", i, fromEta[i], toEta[i])
		}
	}
	nGrids := spec.NGrids
	if nGrids == 0 {
		nGrids = 1
	}
	if nGrids < 0 {
		return nil, fmt.Errorf("redist: Compile: NGrids = %d must be ≥ 1", nGrids)
	}
	tags := spec.Tags
	if tags.Size() == 0 {
		tags = plan.RedistTags
	}
	fromP, toP := spec.From.P(), spec.To.P()
	p := numutil.MaxInt(fromP, toP)

	pl = &Plan{
		Kind: KindMove, P: p, FromP: fromP, ToP: toP,
		From: spec.From.Name(), To: spec.To.Name(),
		Eta: fromEta, NGrids: nGrids, Tags: tags, MaxBytes: spec.MaxBytes,
	}

	// Enumerate every overlap in deterministic order: source ranks
	// ascending, source regions in canonical order, target ranks ascending,
	// target regions in canonical order. This is also the payload packing
	// order on both sides.
	var wire, locals []Move
	for qs := 0; qs < fromP; qs++ {
		for _, rs := range spec.From.Regions(qs) {
			for qt := 0; qt < toP; qt++ {
				for _, rt := range spec.To.Regions(qt) {
					inter, ok := intersect(rs.Rect, rt.Rect)
					if !ok {
						continue
					}
					mv := Move{
						From: qs, To: qt, Rect: inter,
						Bytes:     inter.Size() * 8 * nGrids,
						FromCoord: rs.Coord, ToCoord: rt.Coord,
					}
					if qs == qt {
						locals = append(locals, mv)
					} else {
						wire = append(wire, mv)
					}
				}
			}
		}
	}
	if err := pl.packRounds(wire, locals, nGrids); err != nil {
		return nil, err
	}
	return pl, nil
}

// splitMove halves a move along its largest extent until every piece is at
// most limit bytes, appending the pieces in index order (deterministic).
// Returns an error when even a single element exceeds the limit.
func splitMove(m Move, limit, nGrids int, out []Move) ([]Move, error) {
	if m.Bytes <= limit {
		return append(out, m), nil
	}
	dim, ext := -1, 1
	for i := range m.Rect.Lo {
		if e := m.Rect.Hi[i] - m.Rect.Lo[i]; e > ext {
			dim, ext = i, e
		}
	}
	if dim < 0 {
		return nil, fmt.Errorf("redist: MaxBytes = %d cannot hold one %d-byte element (%d grids)", limit, m.Bytes, nGrids)
	}
	mid := m.Rect.Lo[dim] + ext/2
	lo, hi := m, m
	lo.Rect = grid.RectOf(numutil.CopyInts(m.Rect.Lo), numutil.CopyInts(m.Rect.Hi))
	hi.Rect = grid.RectOf(numutil.CopyInts(m.Rect.Lo), numutil.CopyInts(m.Rect.Hi))
	lo.Rect.Hi[dim] = mid
	hi.Rect.Lo[dim] = mid
	lo.Bytes = lo.Rect.Size() * 8 * nGrids
	hi.Bytes = hi.Rect.Size() * 8 * nGrids
	out, err := splitMove(lo, limit, nGrids, out)
	if err != nil {
		return nil, err
	}
	return splitMove(hi, limit, nGrids, out)
}

// packRounds runs the peak-memory accountant: split wire moves so each fits
// in half the budget (a move occupies both its sender's and its receiver's
// staging), then greedily pack them into rounds so no rank's combined
// send+recv staging exceeds MaxBytes. Locals are split to the budget and
// copied one at a time through a scratch buffer, so only the largest piece
// counts toward the peak. With MaxBytes = 0 everything lands in one round.
func (pl *Plan) packRounds(wire, locals []Move, nGrids int) error {
	maxLocal := 0
	if pl.MaxBytes > 0 {
		var err error
		split := make([]Move, 0, len(wire))
		for _, m := range wire {
			if split, err = splitMove(m, pl.MaxBytes/2, nGrids, split); err != nil {
				return err
			}
		}
		wire = split
		splitL := make([]Move, 0, len(locals))
		for _, m := range locals {
			if splitL, err = splitMove(m, pl.MaxBytes, nGrids, splitL); err != nil {
				return err
			}
		}
		locals = splitL
	}
	for _, m := range locals {
		maxLocal = numutil.MaxInt(maxLocal, m.Bytes)
	}

	// Greedy first-fit: walk moves in deterministic order, placing each in
	// the first round whose sender and receiver both stay within budget.
	var rounds [][]Move
	var loads [][]int // loads[r][q] = staged bytes of rank q in round r
	place := func(m Move) {
		for ri := range rounds {
			if pl.MaxBytes > 0 &&
				(loads[ri][m.From]+m.Bytes > pl.MaxBytes || loads[ri][m.To]+m.Bytes > pl.MaxBytes) {
				continue
			}
			rounds[ri] = append(rounds[ri], m)
			loads[ri][m.From] += m.Bytes
			loads[ri][m.To] += m.Bytes
			return
		}
		rounds = append(rounds, []Move{m})
		l := make([]int, pl.P)
		l[m.From] += m.Bytes
		l[m.To] += m.Bytes
		loads = append(loads, l)
	}
	for _, m := range wire {
		place(m)
	}
	if len(rounds) == 0 {
		rounds = append(rounds, nil)
		loads = append(loads, make([]int, pl.P))
	}

	peak := maxLocal
	for ri, moves := range rounds {
		st := Step{
			Op: OpAllToAll, Dim: -1, Round: ri,
			Sends:  make([][]Move, pl.P),
			Recvs:  make([][]Move, pl.P),
			Locals: make([][]Move, pl.P),
		}
		for _, m := range moves {
			st.Sends[m.From] = append(st.Sends[m.From], m)
			st.Recvs[m.To] = append(st.Recvs[m.To], m)
		}
		if ri == 0 {
			for _, m := range locals {
				st.Locals[m.From] = append(st.Locals[m.From], m)
			}
		}
		for q := 0; q < pl.P; q++ {
			peak = numutil.MaxInt(peak, loads[ri][q])
		}
		pl.Steps = append(pl.Steps, st)
	}
	pl.PeakBytes = peak
	return nil
}

// CompileHalo builds the stencil boundary exchange of a multipartitioning
// as a KindHalo plan: per dimension with more than one cut, per direction,
// one OpExchange step whose moves are the faces of every tile with an
// in-grid neighbor that way, in canonical tile order — exactly the
// schedule the dist and dmem runtimes historically hand-built, so their
// wrappers replay it bit for bit. Send moves carry the in-tile face region;
// recv moves carry the shadow region just outside the receiving tile.
func CompileHalo(spec HaloSpec) (pl *Plan, err error) {
	defer func() { countCompile(KindHalo, err) }()
	if spec.M == nil {
		return nil, fmt.Errorf("redist: CompileHalo: nil multipartitioning")
	}
	d := spec.M.Dims()
	if len(spec.Eta) != d {
		return nil, fmt.Errorf("redist: CompileHalo: array rank %d does not match partitioning rank %d", len(spec.Eta), d)
	}
	if spec.Depth < 1 {
		return nil, fmt.Errorf("redist: CompileHalo: depth = %d must be ≥ 1", spec.Depth)
	}
	nGrids := spec.NGrids
	if nGrids == 0 {
		nGrids = 1
	}
	if nGrids < 0 {
		return nil, fmt.Errorf("redist: CompileHalo: NGrids = %d must be ≥ 1", nGrids)
	}
	tags := spec.Tags
	if tags.Size() == 0 {
		tags = plan.RedistTags
	}
	p := spec.M.P()
	gamma := spec.M.Gamma()
	pl = &Plan{
		Kind: KindHalo, P: p, FromP: p, ToP: p,
		From: fmt.Sprintf("multi(%s,p=%d)", spec.M.Name(), p),
		To:   fmt.Sprintf("multi(%s,p=%d)+halo(%d)", spec.M.Name(), p, spec.Depth),
		Eta:  numutil.CopyInts(spec.Eta), NGrids: nGrids, Depth: spec.Depth, Tags: tags,
	}
	peak := 0
	lo, hi := make([]int, d), make([]int, d) // the current tile's bounds
	for dim := 0; dim < d; dim++ {
		if gamma[dim] == 1 {
			continue // no cuts: nothing to exchange along this dimension
		}
		for s, step := range []int{1, -1} {
			// Every tile with an in-grid neighbor on the step side sends a
			// face; every tile with one on the −step side receives a shadow.
			// Count both first so each move's Rect and peer coordinate (3d
			// ints) are cut from one exactly sized arena, capacity-clipped.
			nSend, nRecv := 0, 0
			for q := 0; q < p; q++ {
				for _, tile := range spec.M.TilesOf(q) {
					if n := tile[dim] + step; n >= 0 && n < gamma[dim] {
						nSend++
					}
					if n := tile[dim] - step; n >= 0 && n < gamma[dim] {
						nRecv++
					}
				}
			}
			arena := make([]int, 3*d*(nSend+nRecv))
			cut := func(src []int) []int {
				v := arena[:d:d]
				arena = arena[d:]
				copy(v, src)
				return v
			}
			sends, recvs := make([]Move, 0, nSend), make([]Move, 0, nRecv)
			st := Step{
				Op: OpExchange, Dim: dim, Dir: step,
				Sends:  make([][]Move, p),
				Recvs:  make([][]Move, p),
				Locals: make([][]Move, p),
				Exch:   make([]Exch, p),
			}
			for q := 0; q < p; q++ {
				st.Exch[q] = Exch{
					Dst: spec.M.NeighborProc(q, dim, step),
					Src: spec.M.NeighborProc(q, dim, -step),
					Tag: tags.Tag(dim*2 + s),
				}
			}
			for q := 0; q < p; q++ {
				ex := &st.Exch[q]
				s0, r0 := len(sends), len(recvs)
				// The own-tile coordinate is TilesOf's shared slice: Move
				// geometry is immutable once compiled.
				for _, tile := range spec.M.TilesOf(q) {
					spec.M.TileBoundsInto(spec.Eta, tile, lo, hi)
					// Send: the face of width Depth inside the tile on the
					// step side, when an in-grid neighbor exists that way.
					if n := tile[dim] + step; n >= 0 && n < gamma[dim] {
						flo, fhi := cut(lo), cut(hi)
						if step > 0 {
							flo[dim] = fhi[dim] - spec.Depth
						} else {
							fhi[dim] = flo[dim] + spec.Depth
						}
						nt := cut(tile)
						nt[dim] += step
						rect := grid.RectOf(flo, fhi)
						mv := Move{
							From: q, To: ex.Dst, Rect: rect,
							Bytes:     rect.Size() * 8 * nGrids,
							FromCoord: tile, ToCoord: nt,
						}
						sends = append(sends, mv)
						ex.SendBytes += mv.Bytes
					}
					// Recv: the shadow shell of width Depth just outside the
					// tile on the −step side, filled from the neighbor there.
					if n := tile[dim] - step; n >= 0 && n < gamma[dim] {
						slo, shi := cut(lo), cut(hi)
						if step > 0 {
							shi[dim] = slo[dim]
							slo[dim] -= spec.Depth
						} else {
							slo[dim] = shi[dim]
							shi[dim] += spec.Depth
						}
						nt := cut(tile)
						nt[dim] -= step
						rect := grid.RectOf(slo, shi)
						mv := Move{
							From: ex.Src, To: q, Rect: rect,
							Bytes:     rect.Size() * 8 * nGrids,
							FromCoord: nt, ToCoord: tile,
						}
						recvs = append(recvs, mv)
						ex.RecvBytes += mv.Bytes
					}
				}
				st.Sends[q] = sends[s0:len(sends):len(sends)]
				st.Recvs[q] = recvs[r0:len(recvs):len(recvs)]
				peak = numutil.MaxInt(peak, ex.SendBytes+ex.RecvBytes)
			}
			pl.Steps = append(pl.Steps, st)
		}
	}
	pl.PeakBytes = peak
	return pl, nil
}
