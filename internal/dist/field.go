package dist

import (
	"fmt"

	"genmp/internal/grid"
	"genmp/internal/numutil"
	"genmp/internal/redist"
	"genmp/internal/xport"
)

// Field is one rank's private storage for one distributed array: a padded
// local grid per owned tile. Depth is the halo width (0 for arrays that
// never feed a stencil). Every boundary value a rank reads arrives in a
// real message payload, so a run over Fields is an MPI program's execution
// model.
//
// A Field built by NewModelField holds no grids, only its tile count and
// the elements a compute phase charges. Its halo exchanges, sweeps (see
// SweepRunner) and Charge calls then run payload-free, with the clock
// charges and messages of the data run.
type Field struct {
	Env   *Env
	Rank  int
	Depth int
	// tiles[i] is the padded local grid of the i-th tile in the rank's
	// canonical (row-major) tile order; bounds[i] its global interior. Both
	// are nil in a model field.
	tiles  []*grid.Grid
	bounds []grid.Rect
	// shapes[i] is tiles[i]'s padded shape and interior[i] its interior
	// region within the padded grid — cached because the per-line hot paths
	// (coordinate conversion, sweep geometry) would otherwise re-derive
	// them per call. Callers must treat both as read-only.
	shapes   [][]int
	interior []grid.Rect
	// index maps a tile's row-major rank in the tile grid to its position
	// in tiles (or −1 when not owned by this rank).
	index map[int]int
	// nTiles is the number of owned tiles and work the elements a compute
	// phase charges flops for (see Charge).
	nTiles, work int
	// lrLo/lrHi are the scratch coordinates of localRect, reused so
	// steady-state exchanges stay allocation-light.
	lrLo, lrHi []int
}

// NewField allocates the rank's tile storage for one array.
func NewField(env *Env, rank, depth int) *Field {
	if depth < 0 {
		panic("dist: negative halo depth")
	}
	f := &Field{Env: env, Rank: rank, Depth: depth, index: map[int]int{}}
	gamma := env.M.Gamma()
	for _, tile := range env.M.TilesOf(rank) {
		lo, hi := env.M.TileBounds(env.Eta, tile)
		shape := make([]int, len(lo))
		for i := range shape {
			shape[i] = hi[i] - lo[i] + 2*depth
		}
		f.index[numutil.RankOf(tile, gamma)] = len(f.tiles)
		f.tiles = append(f.tiles, grid.New(shape...))
		f.bounds = append(f.bounds, grid.RectOf(lo, hi))
		f.shapes = append(f.shapes, shape)
		ilo := make([]int, len(lo))
		ihi := make([]int, len(lo))
		for k := range ilo {
			ilo[k] = depth
			ihi[k] = depth + hi[k] - lo[k]
		}
		f.interior = append(f.interior, grid.RectOf(ilo, ihi))
		f.work += grid.RectOf(lo, hi).Size()
	}
	f.nTiles = len(f.tiles)
	return f
}

// NewModelField builds the rank's field for a model-only run: no grids.
// Its compute phases charge dHPF's partial replication (DESIGN.md §15):
// besides the owned elements, the shell of depth
// Overhead.ReplicationDepth around each tile, clipped to the domain, that
// the generated code recomputes instead of exchanging.
func NewModelField(env *Env, rank, depth int) *Field {
	if depth < 0 {
		panic("dist: negative halo depth")
	}
	f := &Field{Env: env, Rank: rank, Depth: depth}
	lo, hi := env.boundsScratch()
	r := env.Overhead.ReplicationDepth
	for _, tile := range env.M.TilesOf(rank) {
		env.M.TileBoundsInto(env.Eta, tile, lo, hi)
		f.nTiles++
		f.work += grid.RectOf(lo, hi).Size()
		if r > 0 {
			f.work += shellElements(lo, hi, env.Eta, r)
		}
	}
	return f
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

// hasData reports whether the field holds grids (false for a model field).
func (f *Field) hasData() bool { return f.tiles != nil }

// NumTiles returns the number of locally stored tiles (0 for a model
// field).
func (f *Field) NumTiles() int { return len(f.tiles) }

// TileGrid returns the padded local grid of local tile i.
func (f *Field) TileGrid(i int) *grid.Grid { return f.tiles[i] }

// GlobalBounds returns the global interior region of local tile i.
func (f *Field) GlobalBounds(i int) grid.Rect { return f.bounds[i] }

// InteriorRect returns the interior region of local tile i within its
// padded grid (a cached Rect — treat as read-only).
func (f *Field) InteriorRect(i int) grid.Rect {
	return f.interior[i]
}

// LocalTileOf returns the local index of the tile with the given
// coordinates, or −1 when this rank does not own it.
func (f *Field) LocalTileOf(tile []int) int {
	i, ok := f.index[numutil.RankOf(tile, f.Env.M.Gamma())]
	if !ok {
		return -1
	}
	return i
}

// Charge prices one local compute phase of flopsPerElement over the
// field's tiles as Table 1 does: PerTileVisit per owned tile, then the
// flops of the owned elements (plus, in a model field, the replicated
// shell) scaled by ComputeFactor.
func (f *Field) Charge(t xport.Transport, flopsPerElement float64) {
	ov := f.Env.Overhead
	for i := 0; i < f.nTiles; i++ {
		t.Compute(ov.PerTileVisit)
	}
	t.ComputeFlops(flopsPerElement * float64(f.work) * ov.ComputeFactor)
}

// FillFunc initializes every interior cell from its global coordinates.
func (f *Field) FillFunc(fn func(global []int) float64) {
	for i, g := range f.tiles {
		b := f.bounds[i]
		d := len(b.Lo)
		global := make([]int, d)
		interior := f.InteriorRect(i)
		data := g.Data()
		g.EachLine(interior, d-1, func(l grid.Line) {
			f.LocalToGlobal(i, l.Base, global)
			off := l.Base
			for k := 0; k < l.N; k++ {
				data[off] = fn(global)
				global[d-1]++
				off += l.Stride
			}
			global[d-1] -= l.N
		})
	}
}

// Load copies g, a grid over the whole array, into every tile's interior.
// It allocates nothing.
func (f *Field) Load(g *grid.Grid) {
	for i, tg := range f.tiles {
		tg.CopyRect(f.interior[i], g, f.bounds[i])
	}
}

// Store copies every tile's interior into g, a grid over the whole array.
// It allocates nothing.
func (f *Field) Store(g *grid.Grid) {
	for i, tg := range f.tiles {
		g.CopyRect(f.bounds[i], tg, f.interior[i])
	}
}

// LocalToGlobal converts a storage offset of local tile i into global
// coordinates (writing into dst).
func (f *Field) LocalToGlobal(i, offset int, dst []int) {
	numutil.CoordOf(offset, f.shapes[i], dst)
	b := f.bounds[i]
	for k := range dst {
		dst[k] = dst[k] - f.Depth + b.Lo[k]
	}
}

// localRect converts a move's global region into local tile i's padded
// coordinates (interior starts at Depth). Scratch-backed: the returned Rect
// is valid until the next call.
func (f *Field) localRect(i int, g grid.Rect) grid.Rect {
	d := len(g.Lo)
	if cap(f.lrLo) < d {
		f.lrLo, f.lrHi = make([]int, d), make([]int, d)
	}
	lo, hi := f.lrLo[:d], f.lrHi[:d]
	b := f.bounds[i]
	for k := 0; k < d; k++ {
		lo[k] = g.Lo[k] - b.Lo[k] + f.Depth
		hi[k] = g.Hi[k] - b.Lo[k] + f.Depth
	}
	return grid.RectOf(lo, hi)
}

// Extract packs the move's region (an interior face of the sending tile)
// into dst — the redist.Binding hook of the private-tile storage model.
func (f *Field) Extract(m redist.Move, dst []float64) {
	i := f.LocalTileOf(m.FromCoord)
	f.tiles[i].ExtractInto(f.localRect(i, m.Rect), dst)
}

// Inject unpacks src into the move's region (a halo shell of the receiving
// tile, which the padded local grid covers).
func (f *Field) Inject(m redist.Move, src []float64) {
	i := f.LocalTileOf(m.ToCoord)
	f.tiles[i].InjectFrom(f.localRect(i, m.Rect), src)
}

// PostHaloRecvs posts the receives of the NEXT ExchangeHalosPiped call as
// nonblocking requests (halo pipelining across timesteps, DESIGN.md §14).
// Call it once the current step's field updates are in flight — typically
// right before the add phase — and hand the result to the next step's
// ExchangeHalosPiped. Returns nil when the field has no halo traffic.
func (f *Field) PostHaloRecvs(r xport.Transport) []xport.Request {
	if f.Depth == 0 || f.Env.M.P() == 1 {
		return nil
	}
	return redist.PostRecvs(r, f.Env.HaloPlan(f.Depth, 1))
}

// ExchangeHalosPiped fills the field's halo shells with the neighboring
// processors' faces: one aggregated message per direction per dimension
// (the neighbor property gives a single peer each way), executing the
// Env's cached halo schedule with the Field itself as the storage binding
// (none for a model field). pre holds the receives of an earlier
// PostHaloRecvs; nil runs the blocking exchange. The halo data and virtual
// time are identical either way. Payloads cycle through the machine's
// buffer pool, so steady-state exchanges allocate nothing.
func (f *Field) ExchangeHalosPiped(r xport.Transport, pre []xport.Request) {
	if f.Depth == 0 || f.Env.M.P() == 1 {
		return
	}
	o := redist.ExecOpts{PerMessage: f.Env.Overhead.PerMessage, Preposted: pre}
	if f.hasData() {
		o.Bind = f
	}
	redist.Execute(r, f.Env.HaloPlan(f.Depth, 1), o)
}

// GatherToRoot reconstructs the global array on rank 0 from every rank's
// interiors, over the transport's GatherTo collective (the default linear
// algorithm reproduces the historical send-to-root loop exactly; alg
// selects an alternative). All ranks must call it; non-root ranks return
// nil.
func GatherToRoot(r xport.Transport, f *Field, alg xport.Alg) *grid.Grid {
	env := f.Env
	total := 0
	for i := range f.tiles {
		total += f.interior[i].Size()
	}
	payload := make([]float64, total)
	pos := 0
	for i := range f.tiles {
		size := f.interior[i].Size()
		f.tiles[i].ExtractInto(f.interior[i], payload[pos:pos+size])
		pos += size
	}
	parts := r.GatherTo(0, 8*len(payload), payload, xport.CollOpts{Alg: alg})
	if r.Rank() != 0 {
		return nil
	}
	out := grid.New(env.Eta...)
	for q := 0; q < env.M.P(); q++ {
		pos := 0
		for _, tile := range env.M.TilesOf(q) {
			lo, hi := env.M.TileBounds(env.Eta, tile)
			rect := grid.RectOf(lo, hi)
			size := rect.Size()
			out.Inject(rect, parts[q][pos:pos+size])
			pos += size
		}
	}
	return out
}

// CheckHalo returns an error when a cut dimension's tiles are thinner than
// depth, so one neighbor's face could not fill a halo that deep.
func (e *Env) CheckHalo(depth int) error {
	gamma := e.M.Gamma()
	for dim := range e.Eta {
		if gamma[dim] > 1 && e.Eta[dim]/gamma[dim] < depth {
			return fmt.Errorf("dist: tiles along dim %d are thinner than the halo depth %d", dim, depth)
		}
	}
	return nil
}
