// Package dmem provides strict distributed-memory execution: every rank
// owns private copies of its tiles (padded with halo shells), all boundary
// data moves in real message payloads, and no rank ever reads another
// rank's storage. It is the fully faithful counterpart of internal/dist's
// shared-storage data mode (where messages carry carries and establish
// ordering, but stencil reads go through the common backing arrays).
//
// The cost: extra memory for per-tile copies and pack/unpack work. The
// payoff: an execution model identical to an MPI program's, validated
// elementwise against the serial references by gathering the distributed
// state back to rank 0 over messages.
package dmem

import (
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/numutil"
	"genmp/internal/redist"
	"genmp/internal/xport"
)

// Field is one rank's private storage for one distributed array: a padded
// local grid per owned tile. Depth is the halo width (0 for arrays that
// never feed a stencil).
type Field struct {
	Env   *dist.Env
	Rank  int
	Depth int
	// tiles[i] is the padded local grid of the i-th tile in the rank's
	// canonical (row-major) tile order; bounds[i] its global interior.
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
	// haloPlan is the compiled halo schedule (redist.CompileHalo), built
	// lazily on the first ExchangeHalos call. A Field belongs to one rank,
	// so no lock is needed.
	haloPlan *redist.Plan
	// lrLo/lrHi are the scratch coordinates of localRect, reused so
	// steady-state exchanges stay allocation-light.
	lrLo, lrHi []int
}

// NewField allocates the rank's tile storage for one array.
func NewField(env *dist.Env, rank, depth int) *Field {
	if depth < 0 {
		panic("dmem: negative halo depth")
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
	}
	return f
}

// NumTiles returns the number of locally stored tiles.
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

// FillFunc initializes every interior cell from its global coordinates.
func (f *Field) FillFunc(fn func(global []int) float64) {
	for i, g := range f.tiles {
		b := f.bounds[i]
		d := len(b.Lo)
		global := make([]int, d)
		interior := f.InteriorRect(i)
		data := g.Data()
		g.EachLine(interior, d-1, func(l grid.Line) {
			f.localToGlobal(i, l.Base, global)
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

// localToGlobal converts a storage offset of local tile i into global
// coordinates (writing into dst).
func (f *Field) localToGlobal(i, offset int, dst []int) {
	numutil.CoordOf(offset, f.shapes[i], dst)
	b := f.bounds[i]
	for k := range dst {
		dst[k] = dst[k] - f.Depth + b.Lo[k]
	}
}

// SumSquares returns Σv² over the rank's interiors (a reduction input).
func (f *Field) SumSquares() float64 {
	s := 0.0
	for i, g := range f.tiles {
		data := g.Data()
		d := g.Dims()
		g.EachLine(f.InteriorRect(i), d-1, func(l grid.Line) {
			off := l.Base
			for k := 0; k < l.N; k++ {
				v := data[off]
				s += v * v
				off += l.Stride
			}
		})
	}
	return s
}

// Reserved message-tag space of the strict halo exchange (see
// xport.ReserveTags). Sweep carries are tagged by the compiled schedule
// itself, from the shared plan.SweepTags reservation — both runtimes now
// draw sweep tags from the same space, which is safe because a machine
// never mixes dist and dmem sweeps.
var strictHaloTags = xport.ReserveTags("dmem/halo", 1<<25, 64)

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
// into dst — the redist.Binding hook of the strict storage model.
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

// ExchangeHalos fills the field's halo shells with real face data from the
// neighboring processors: one aggregated payload message per direction per
// dimension (the neighbor property gives a single peer each way), via the
// transport's Exchange neighbor primitive under the dmem/halo tag space. The
// schedule is compiled once per field by redist.CompileHalo and executed
// with the Field itself as the storage binding — the historical hand-built
// pack/exchange/unpack loop, replayed bit for bit as a special case of the
// generalized redistribution engine. Payloads cycle through the machine's
// buffer pool, so steady-state exchanges allocate nothing.
func (f *Field) ExchangeHalos(r xport.Transport) {
	if f.Depth == 0 || f.Env.M.P() == 1 {
		return
	}
	f.ensureHaloPlan()
	redist.Execute(r, f.haloPlan, redist.ExecOpts{
		PerMessage: f.Env.Overhead.PerMessage, Bind: f,
	})
}

// ensureHaloPlan lazily compiles the field's halo redistribution schedule.
func (f *Field) ensureHaloPlan() {
	if f.haloPlan != nil {
		return
	}
	pl, err := redist.CompileHalo(redist.HaloSpec{
		M: f.Env.M, Eta: f.Env.Eta, Depth: f.Depth, Tags: strictHaloTags,
	})
	if err != nil {
		panic("dmem: " + err.Error())
	}
	f.haloPlan = pl
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
	f.ensureHaloPlan()
	return redist.PostRecvs(r, f.haloPlan)
}

// ExchangeHalosPiped is ExchangeHalos consuming receive requests preposted
// by an earlier PostHaloRecvs; pre == nil falls back to the blocking
// exchange. The halo data and virtual time are identical either way — the
// preposting is the wire discipline that lets a real MPI runtime overlap
// the previous step's tail with the next step's halo traffic.
func (f *Field) ExchangeHalosPiped(r xport.Transport, pre []xport.Request) {
	if f.Depth == 0 || f.Env.M.P() == 1 {
		return
	}
	f.ensureHaloPlan()
	redist.Execute(r, f.haloPlan, redist.ExecOpts{
		PerMessage: f.Env.Overhead.PerMessage, Bind: f, Preposted: pre,
	})
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
