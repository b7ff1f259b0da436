// Package core ties the partitioning search (internal/partition) and the
// modular-mapping construction (internal/modmap) into the paper's primary
// artifact: a Multipartitioning — a cut of a d-dimensional array into a
// γ₁×…×γ_d grid of tiles together with a tile-to-processor assignment that
// has the balance property (every slab holds the same number of tiles of
// every processor) and the neighbor property (all +dim neighbors of one
// processor's tiles belong to a single processor).
//
// The package also implements the prior-art multipartitionings the paper
// generalizes (Section 2): Johnsson et al.'s 2-D latin-square mapping,
// Naik et al.'s diagonal multipartitioning for p^(1/(d−1)) integral, and
// Bruno and Cappello's Gray-code mapping of 3-D tiles onto a hypercube.
package core

import (
	"fmt"
	"io"
	"strings"

	"genmp/internal/modmap"
	"genmp/internal/numutil"
	"genmp/internal/partition"
)

// TileMap assigns tiles of a finite grid to processors. Implementations must
// have the balance and neighbor properties for the Multipartitioning wrapper
// to deliver balanced sweeps (Verify checks both exhaustively).
type TileMap interface {
	// P returns the number of processors.
	P() int
	// Shape returns the tile-grid extents (γ).
	Shape() []int
	// Proc returns the processor owning the tile at the given coordinates.
	Proc(tile []int) int
	// NeighborProc returns the processor owning the in-grid neighbors of
	// proc's tiles, step tiles away along dim.
	NeighborProc(proc, dim, step int) int
}

// Multipartitioning is a tile grid plus a TileMap, with precomputed per-
// processor tile lists and per-slab ownership used by sweep executors.
type Multipartitioning struct {
	tm    TileMap
	gamma []int
	p     int
	// owner[r] is tm.Proc of the tile of row-major rank r in γ.
	owner   []int
	tilesOf [][][]int // [proc] -> tiles (coords), row-major tile order
	// slabOf[dim][slab][proc] -> tiles of proc in that slab, row-major order
	slabOf [][][][][]int
	name   string
}

// FromTileMap wraps an arbitrary TileMap. It evaluates tm.Proc once per
// tile into an owner table and materializes the per-processor and per-slab
// tile lists eagerly (O(∏γ·d) time and space).
func FromTileMap(tm TileMap, name string) *Multipartitioning {
	gamma := numutil.CopyInts(tm.Shape())
	p := tm.P()
	d := len(gamma)
	n := numutil.Prod(gamma...)
	m := &Multipartitioning{tm: tm, gamma: gamma, p: p, name: name, owner: make([]int, n)}
	// First pass: every tile's coordinate, cut from one backing array with
	// its capacity clipped, and its owner. perProc[q] counts q's tiles, and
	// row first[dim]+s of perSlab counts each processor's tiles in slab s
	// along dim.
	coords := make([]int, n*d)
	first := make([]int, d+1)
	for dim, g := range gamma {
		first[dim+1] = first[dim] + g
	}
	perProc := make([]int, p)
	perSlab := make([]int, first[d]*p)
	for r := 0; r < n; r++ {
		c := numutil.CoordOf(r, gamma, coords[r*d:(r+1)*d:(r+1)*d])
		q := tm.Proc(c)
		m.owner[r] = q
		perProc[q]++
		for dim := 0; dim < d; dim++ {
			perSlab[(first[dim]+c[dim])*p+q]++
		}
	}
	// Second pass: cut every list as an empty window of exact capacity
	// from one arena, then append the tiles in row-major order.
	m.tilesOf = make([][][]int, p)
	arena := make([][]int, n*(d+1))
	for q, k := range perProc {
		m.tilesOf[q], arena = arena[:0:k], arena[k:]
	}
	lists := make([][][]int, first[d]*p)
	for i, k := range perSlab {
		lists[i], arena = arena[:0:k], arena[k:]
	}
	m.slabOf = make([][][][][]int, d)
	for dim, g := range gamma {
		m.slabOf[dim] = make([][][][]int, g)
		for s := range m.slabOf[dim] {
			row := (first[dim] + s) * p
			m.slabOf[dim][s] = lists[row : row+p : row+p]
		}
	}
	for r, q := range m.owner {
		c := coords[r*d : (r+1)*d : (r+1)*d]
		m.tilesOf[q] = append(m.tilesOf[q], c)
		for dim := 0; dim < d; dim++ {
			m.slabOf[dim][c[dim]][q] = append(m.slabOf[dim][c[dim]][q], c)
		}
	}
	return m
}

// NewGeneralized builds the paper's generalized multipartitioning: the
// Figure 3 modular mapping over the tile grid gamma on p processors.
// gamma must be a valid partitioning of p.
func NewGeneralized(p int, gamma []int) (*Multipartitioning, error) {
	mm, err := modmap.New(p, gamma)
	if err != nil {
		return nil, err
	}
	return FromTileMap(modularTileMap{mm}, fmt.Sprintf("generalized %s on %d", partition.Describe(gamma), p)), nil
}

// NewOptimal searches for the optimal partitioning of p processors over a
// d-dimensional array under obj (Section 3) and builds the generalized
// multipartitioning for it (Section 4).
func NewOptimal(p, d int, obj partition.Objective) (*Multipartitioning, error) {
	res, err := partition.Optimal(p, d, obj)
	if err != nil {
		return nil, err
	}
	return NewGeneralized(p, res.Gamma)
}

type modularTileMap struct{ m *modmap.Mapping }

func (t modularTileMap) P() int                            { return t.m.P }
func (t modularTileMap) Shape() []int                      { return t.m.B }
func (t modularTileMap) Proc(tile []int) int               { return t.m.Proc(tile) }
func (t modularTileMap) NeighborProc(q, dim, step int) int { return t.m.NeighborProc(q, dim, step) }

// Mapping returns the underlying modular mapping when the multipartitioning
// was built by NewGeneralized/NewOptimal, or nil otherwise.
func (m *Multipartitioning) Mapping() *modmap.Mapping {
	if t, ok := m.tm.(modularTileMap); ok {
		return t.m
	}
	return nil
}

// NewDiagonal builds Naik et al.'s diagonal multipartitioning of a
// d-dimensional array on p processors. It requires c = p^(1/(d−1)) to be
// integral; the grid is c×…×c with θ(v)[t] = (v_t − v_{d−1}) mod c for
// t < d−1, one tile per processor per slab. For d = 2 this is Johnsson's
// latin square (any p).
func NewDiagonal(p, d int) (*Multipartitioning, error) {
	if d < 2 {
		return nil, fmt.Errorf("core: diagonal multipartitioning needs d ≥ 2")
	}
	c := numutil.IntRoot(p, d-1)
	if numutil.Pow(c, d-1) != p {
		return nil, fmt.Errorf("core: diagonal multipartitioning of a %d-D array needs p^(1/%d) integral; p = %d is not a perfect %s",
			d, d-1, p, ordinalPower(d-1))
	}
	return FromTileMap(diagonalTileMap{p: p, d: d, c: c}, fmt.Sprintf("diagonal %d^%d on %d", c, d, p)), nil
}

func ordinalPower(k int) string {
	switch k {
	case 1:
		return "1st power" // unreachable in practice (d ≥ 2 means k ≥ 1; k = 1 always integral)
	case 2:
		return "square"
	case 3:
		return "cube"
	default:
		return fmt.Sprintf("%dth power", k)
	}
}

// diagonalTileMap: tiles c×…×c (d dims), procs as a (d−1)-dim grid of side
// c; component t of the processor vector is (v_t − v_{d−1}) mod c.
type diagonalTileMap struct{ p, d, c int }

func (t diagonalTileMap) P() int { return t.p }

func (t diagonalTileMap) Shape() []int {
	s := make([]int, t.d)
	for i := range s {
		s[i] = t.c
	}
	return s
}

func (t diagonalTileMap) Proc(tile []int) int {
	id := 0
	last := tile[t.d-1]
	for i := 0; i < t.d-1; i++ {
		id = id*t.c + numutil.EMod(tile[i]-last, t.c)
	}
	return id
}

func (t diagonalTileMap) NeighborProc(q, dim, step int) int {
	// Shift q's (d−1) diagonal components digit by digit, least significant
	// (component d−2) first: a step along the last dimension moves every
	// component by −step, any other step moves only component dim.
	id, mul := 0, 1
	for i := t.d - 2; i >= 0; i-- {
		cv := q % t.c
		q /= t.c
		if dim == t.d-1 {
			cv = numutil.EMod(cv-step, t.c)
		} else if i == dim {
			cv = numutil.EMod(cv+step, t.c)
		}
		id += cv * mul
		mul *= t.c
	}
	return id
}

// NewJohnsson2D builds Johnsson, Saad and Schultz's 2-D multipartitioning
// for any p: a p×p tile grid with θ(i,j) = (i−j) mod p — a latin square in
// which each processor's tiles lie on a wrapped diagonal.
func NewJohnsson2D(p int) (*Multipartitioning, error) {
	if p < 1 {
		return nil, fmt.Errorf("core: NewJohnsson2D: p = %d must be ≥ 1", p)
	}
	return FromTileMap(johnssonTileMap{p}, fmt.Sprintf("johnsson %d×%d on %d", p, p, p)), nil
}

type johnssonTileMap struct{ p int }

func (t johnssonTileMap) P() int       { return t.p }
func (t johnssonTileMap) Shape() []int { return []int{t.p, t.p} }
func (t johnssonTileMap) Proc(tile []int) int {
	return numutil.EMod(tile[0]-tile[1], t.p)
}
func (t johnssonTileMap) NeighborProc(q, dim, step int) int {
	if dim == 0 {
		return numutil.EMod(q+step, t.p)
	}
	return numutil.EMod(q-step, t.p)
}

// NewGrayCode3D builds Bruno and Cappello's 3-D multipartitioning for a
// hypercube: a 2^k × 2^k × 2^k tile grid on 2^(2k) processors, where the
// processor id is the hypercube node address formed by concatenating the
// Gray codes of the two diagonal components. Tiles adjacent along i or j map
// to hypercube-adjacent processors (Hamming distance 1); tiles adjacent
// along k map to processors exactly two hops apart.
func NewGrayCode3D(k int) (*Multipartitioning, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: NewGrayCode3D: k = %d must be ≥ 1", k)
	}
	side := 1 << k
	return FromTileMap(grayTileMap{k: k, side: side}, fmt.Sprintf("graycode %d^3 on %d", side, side*side)), nil
}

type grayTileMap struct{ k, side int }

func (t grayTileMap) P() int       { return t.side * t.side }
func (t grayTileMap) Shape() []int { return []int{t.side, t.side, t.side} }

func (t grayTileMap) Proc(tile []int) int {
	a := numutil.GrayCode(numutil.EMod(tile[0]-tile[2], t.side))
	b := numutil.GrayCode(numutil.EMod(tile[1]-tile[2], t.side))
	return a<<t.k | b
}

func (t grayTileMap) NeighborProc(q, dim, step int) int {
	a := numutil.GrayRank(q >> t.k)
	b := numutil.GrayRank(q & (t.side - 1))
	switch dim {
	case 0:
		a = numutil.EMod(a+step, t.side)
	case 1:
		b = numutil.EMod(b+step, t.side)
	default:
		a = numutil.EMod(a-step, t.side)
		b = numutil.EMod(b-step, t.side)
	}
	return numutil.GrayCode(a)<<t.k | numutil.GrayCode(b)
}

// HammingDistance returns the hypercube hop count between two processor
// addresses.
func HammingDistance(a, b int) int { return numutil.PopCount(a ^ b) }

// --- accessors ---------------------------------------------------------

// P returns the number of processors.
func (m *Multipartitioning) P() int { return m.p }

// Dims returns the number of array dimensions d.
func (m *Multipartitioning) Dims() int { return len(m.gamma) }

// Gamma returns the tile-grid extents (a copy).
func (m *Multipartitioning) Gamma() []int { return numutil.CopyInts(m.gamma) }

// Name returns a short human-readable description of the mapping.
func (m *Multipartitioning) Name() string { return m.name }

// NumTiles returns ∏γᵢ.
func (m *Multipartitioning) NumTiles() int { return numutil.Prod(m.gamma...) }

// TilesPerProc returns ∏γᵢ/p.
func (m *Multipartitioning) TilesPerProc() int { return m.NumTiles() / m.p }

// Proc returns the processor owning a tile.
func (m *Multipartitioning) Proc(tile []int) int { return m.tm.Proc(tile) }

// NeighborProc returns the processor owning proc's step-neighbors along dim.
func (m *Multipartitioning) NeighborProc(proc, dim, step int) int {
	return m.tm.NeighborProc(proc, dim, step)
}

// TilesOf returns the tiles of processor q in row-major tile order. The
// returned slices are shared; callers must not modify them.
func (m *Multipartitioning) TilesOf(q int) [][]int { return m.tilesOf[q] }

// SlabTiles returns the tiles of processor q in slab s along dim (the tiles
// whose coordinate along dim is s), in row-major tile order. The returned
// slices are shared; callers must not modify them.
func (m *Multipartitioning) SlabTiles(q, dim, s int) [][]int { return m.slabOf[dim][s][q] }

// TilesPerSlab returns the number of tiles each processor owns in every slab
// along dim (the balance property makes it uniform): ∏_{j≠dim}γⱼ / p.
func (m *Multipartitioning) TilesPerSlab(dim int) int {
	return numutil.ProdExcept(m.gamma, dim) / m.p
}

// SweepPhase describes one computation phase of a line sweep for one
// processor: the tiles it computes and the processor to exchange carries
// with afterwards (-1 when the sweep ends at this slab or the slab count is
// 1). For a forward sweep phases run slab 0..γ−1 and SendTo is the +1
// neighbor; for a backward sweep slabs run γ−1..0 and SendTo is the −1
// neighbor.
type SweepPhase struct {
	Slab   int
	Tiles  [][]int
	SendTo int
}

// SweepSchedule returns the ordered phases of a line sweep along dim for
// processor q. Every processor computes the same number of tiles in every
// phase (balance), and sends at most one aggregated message per phase
// (neighbor property).
func (m *Multipartitioning) SweepSchedule(q, dim int, backward bool) []SweepPhase {
	g := m.gamma[dim]
	step := 1
	if backward {
		step = -1
	}
	next := -1
	if g > 1 {
		next = m.tm.NeighborProc(q, dim, step)
	}
	phases := make([]SweepPhase, g)
	for k := range phases {
		s := k
		if backward {
			s = g - 1 - k
		}
		phases[k] = SweepPhase{Slab: s, Tiles: m.SlabTiles(q, dim, s), SendTo: next}
	}
	phases[g-1].SendTo = -1
	return phases
}

// Verify exhaustively checks the balance and neighbor properties of the
// wrapped TileMap, whatever its construction. The neighbor check reads
// tm.Proc of every tile from the owner table FromTileMap filled.
func (m *Multipartitioning) Verify() error {
	d := len(m.gamma)
	// Balance: every processor owns TilesPerSlab(dim) tiles in every slab.
	for dim := 0; dim < d; dim++ {
		slabTiles := numutil.ProdExcept(m.gamma, dim)
		if slabTiles%m.p != 0 {
			return fmt.Errorf("core: slab along dim %d has %d tiles, not a multiple of p = %d", dim, slabTiles, m.p)
		}
		want := slabTiles / m.p
		for s := 0; s < m.gamma[dim]; s++ {
			for q := 0; q < m.p; q++ {
				if got := len(m.slabOf[dim][s][q]); got != want {
					return fmt.Errorf("core: balance violated: proc %d owns %d tiles in slab %d along dim %d (want %d)",
						q, got, s, dim, want)
				}
			}
		}
	}
	// Neighbor: all in-grid +1/−1 neighbors of q's tiles on one processor,
	// matching NeighborProc. A step along dim moves a tile's row-major rank
	// by stride.
	for dim := 0; dim < d; dim++ {
		stride := numutil.Prod(m.gamma[dim+1:]...)
		for _, step := range []int{1, -1} {
			for q := 0; q < m.p; q++ {
				want := m.tm.NeighborProc(q, dim, step)
				for _, tile := range m.tilesOf[q] {
					n := tile[dim] + step
					if n < 0 || n >= m.gamma[dim] {
						continue
					}
					if got := m.owner[numutil.RankOf(tile, m.gamma)+step*stride]; got != want {
						nt := numutil.CopyInts(tile)
						nt[dim] = n
						return fmt.Errorf("core: neighbor violated: tile %v of proc %d has %+d-neighbor %v on proc %d, NeighborProc says %d",
							tile, q, step, nt, got, want)
					}
				}
			}
		}
	}
	return nil
}

// RenderSlices writes a Figure-1-style rendering: for each slab along the
// last dimension, a 2-D table of the owning processor of every tile. Only
// meaningful for d = 2 or 3.
func (m *Multipartitioning) RenderSlices(w io.Writer) error {
	d := len(m.gamma)
	switch d {
	case 2:
		return m.renderPlane(w, -1)
	case 3:
		for k := 0; k < m.gamma[2]; k++ {
			if _, err := fmt.Fprintf(w, "slice k=%d (of dimension 3):\n", k); err != nil {
				return err
			}
			if err := m.renderPlane(w, k); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: RenderSlices supports d = 2 or 3, got d = %d", d)
	}
}

func (m *Multipartitioning) renderPlane(w io.Writer, k int) error {
	width := len(fmt.Sprintf("%d", m.p-1))
	tile := make([]int, len(m.gamma))
	var sb strings.Builder
	for i := 0; i < m.gamma[0]; i++ {
		sb.Reset()
		for j := 0; j < m.gamma[1]; j++ {
			tile[0], tile[1] = i, j
			if k >= 0 {
				tile[2] = k
			}
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%*d", width, m.tm.Proc(tile))
		}
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// BlockRange returns the half-open index interval [lo, hi) of block idx when
// n elements are cut into parts blocks: the first n mod parts blocks get
// ⌈n/parts⌉ elements, the rest ⌊n/parts⌋. The paper assumes γᵢ | ηᵢ; this is
// the standard remainder-spreading used "when applying our mappings in
// practice if this assumption is not valid".
func BlockRange(n, parts, idx int) (lo, hi int) {
	if parts < 1 || idx < 0 || idx >= parts {
		panic(fmt.Sprintf("core: BlockRange(%d, %d, %d) out of range", n, parts, idx))
	}
	q, r := n/parts, n%parts
	lo = idx*q + numutil.MinInt(idx, r)
	hi = lo + q
	if idx < r {
		hi++
	}
	return lo, hi
}

// TileBounds returns, for an array of extents eta, the per-dimension index
// intervals [lo, hi) of the given tile.
func (m *Multipartitioning) TileBounds(eta, tile []int) (lo, hi []int) {
	d := len(m.gamma)
	lo = make([]int, d)
	hi = make([]int, d)
	m.TileBoundsInto(eta, tile, lo, hi)
	return lo, hi
}

// TileBoundsInto is TileBounds writing into caller-owned lo and hi of
// length d, so a loop over many tiles can reuse one scratch pair.
func (m *Multipartitioning) TileBoundsInto(eta, tile, lo, hi []int) {
	d := len(m.gamma)
	if len(eta) != d || len(tile) != d || len(lo) != d || len(hi) != d {
		panic("core: TileBounds rank mismatch")
	}
	for i := 0; i < d; i++ {
		lo[i], hi[i] = BlockRange(eta[i], m.gamma[i], tile[i])
	}
}
