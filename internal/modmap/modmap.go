// Package modmap implements Section 4 of the paper: multi-dimensional
// modular mappings and the constructive proof that every valid partitioning
// (γᵢ) admits a tile-to-processor assignment with both the balance and the
// neighbor properties of a multipartitioning.
//
// A modular mapping M_m⃗ maps a tile coordinate vector i⃗ ∈ ℤᵈ to the
// processor-grid vector (M·i⃗) mod m⃗, where M is an integral d×d matrix and
// m⃗ a positive integral modulo vector whose component product equals the
// number of processors p. The paper's construction (its Figure 3) chooses m⃗
// by a gcd telescoping formula and builds M row by row so that the mapping
// is equally-many-to-one on every slab of the tile grid — the balance
// property. The neighbor property comes for free from linearity: the tiles
// adjacent (with wraparound) to processor q's tiles along coordinate
// direction i all belong to the single processor whose grid vector is q's
// shifted by column i of M.
package modmap

import (
	"fmt"

	"genmp/internal/numutil"
)

// Mapping is a modular tile-to-processor mapping for a tile grid of shape B
// on P processors, with the balance and neighbor properties.
type Mapping struct {
	P   int     // number of processors, ∏ Mod[i]
	B   []int   // tile-grid shape (the partitioning γ)
	Mod []int   // moduli m⃗; Mod[0] == 1 and ∏ Mod == P
	M   [][]int // d×d mapping matrix, reduced: 0 ≤ M[i][k] < Mod[i]

	raw [][]int // the matrix as built by the Figure 3 kernel, before reduction
}

// New builds the paper's modular mapping for p processors over a tile grid
// of shape b. It fails unless (b) is a valid partitioning of p, i.e. p
// divides the tile count of every slab (∏_{j≠i} b_j for every i) — the
// condition Section 4 proves both necessary and sufficient.
func New(p int, b []int) (*Mapping, error) {
	d := len(b)
	if p < 1 {
		return nil, fmt.Errorf("modmap: p = %d must be ≥ 1", p)
	}
	if d == 0 {
		return nil, fmt.Errorf("modmap: empty tile-grid shape")
	}
	for i, bi := range b {
		if bi < 1 {
			return nil, fmt.Errorf("modmap: tile-grid extent b[%d] = %d must be ≥ 1", i, bi)
		}
	}
	for i := range b {
		if numutil.ProdExcept(b, i)%p != 0 {
			return nil, fmt.Errorf("modmap: invalid partitioning %v for p = %d: slab along dimension %d has %d tiles, not a multiple of p",
				b, p, i, numutil.ProdExcept(b, i))
		}
	}

	mod := Moduli(p, b)
	raw := kernel(b, mod)

	// Reduce row i modulo mod[i]: component i of the mapping is only ever
	// used mod m_i, and small non-negative coefficients keep the dot
	// products far from overflow. (Reduction happens after the full kernel
	// runs — later rows are built from the unreduced earlier rows.)
	reduced := make([][]int, d)
	for i := range raw {
		reduced[i] = make([]int, d)
		for k := range raw[i] {
			reduced[i][k] = numutil.EMod(raw[i][k], mod[i])
		}
	}

	return &Mapping{P: p, B: numutil.CopyInts(b), Mod: mod, M: reduced, raw: raw}, nil
}

// Moduli returns the paper's modulo vector for p processors and tile grid b:
//
//	m_i = gcd(p, ∏_{j=i..d} b_j) / gcd(p, ∏_{j=i+1..d} b_j)
//
// It always satisfies m_1 = 1, ∏ m_i = p and m_i | b_i when (b) is a valid
// partitioning. The suffix products can exceed 64 bits, so the gcds are
// computed per prime factor of p instead of forming the products.
func Moduli(p int, b []int) []int {
	d := len(b)
	factors := numutil.Factorize(p)
	// suffixGCD[i] = gcd(p, ∏_{j=i..d-1} b_j), with suffixGCD[d] = gcd(p, 1) = 1.
	suffixGCD := make([]int, d+1)
	suffixGCD[d] = 1
	// Per prime α with multiplicity r in p: v_α(gcd(p, X)) = min(r, v_α(X)).
	suffixVal := make([]int, len(factors)) // running Σ_{j≥i} v_α(b_j), capped lazily
	for i := d - 1; i >= 0; i-- {
		g := 1
		for fi, f := range factors {
			bi := b[i]
			for bi%f.Prime == 0 {
				bi /= f.Prime
				suffixVal[fi]++
			}
			if suffixVal[fi] > f.Exp {
				suffixVal[fi] = f.Exp // cap: only min(r, Σv) matters and Σv only grows
			}
			g *= numutil.Pow(f.Prime, suffixVal[fi])
		}
		suffixGCD[i] = g
	}
	mod := make([]int, d)
	for i := 0; i < d; i++ {
		mod[i] = suffixGCD[i] / suffixGCD[i+1]
	}
	return mod
}

// kernel is the paper's Figure 3 ModularMapping procedure (0-based): it
// returns the d×d matrix with ones on the diagonal and in the first column,
// where each row i ≥ 1 is corrected by multiples of the previous rows so
// that the mapping acquires the load-balancing property (the correction
// mirrors a symbolic Hermite-form computation; see the extended paper).
func kernel(b, mod []int) [][]int {
	d := len(b)
	m := make([][]int, d)
	for i := range m {
		m[i] = make([]int, d)
		m[i][0] = 1
		m[i][i] = 1
	}
	for i := 1; i < d; i++ {
		r := mod[i]
		for j := i - 1; j >= 1; j-- {
			t := r / numutil.GCD(r, b[j])
			for k := 0; k < i; k++ {
				m[i][k] -= t * m[j][k]
			}
			r = numutil.GCD(t*mod[j], r)
		}
	}
	return m
}

// Dims returns the number of tile-grid dimensions d.
func (mp *Mapping) Dims() int { return len(mp.B) }

// NumTiles returns the total number of tiles ∏ B_i.
func (mp *Mapping) NumTiles() int { return numutil.Prod(mp.B...) }

// TilesPerProc returns ∏ B_i / p, the number of tiles owned by each
// processor (the mapping is equally-many-to-one on the whole grid).
func (mp *Mapping) TilesPerProc() int { return mp.NumTiles() / mp.P }

// ProcVec writes the processor-grid vector of the given tile into dst (which
// must have length d) and returns it. Tile coordinates outside the grid are
// reduced into it first (coordinate i modulo B[i]).
func (mp *Mapping) ProcVec(tile, dst []int) []int {
	d := len(mp.B)
	if len(tile) != d || len(dst) != d {
		panic("modmap: ProcVec rank mismatch")
	}
	for i := 0; i < d; i++ {
		s := 0
		for k := 0; k < d; k++ {
			s += mp.M[i][k] * numutil.EMod(tile[k], mp.B[k])
		}
		dst[i] = numutil.EMod(s, mp.Mod[i])
	}
	return dst
}

// maxStackDims is the largest d whose processor-grid vector Proc and
// NeighborProc keep on the stack; higher-dimensional mappings allocate it.
const maxStackDims = 8

// scratch returns a length-d vector backed by buf when it fits.
func scratch(buf *[maxStackDims]int, d int) []int {
	if d <= maxStackDims {
		return buf[:d]
	}
	return make([]int, d)
}

// Proc returns the linearized processor id of a tile: the row-major rank of
// its processor-grid vector within the virtual grid Mod. Ids run 0..P-1.
func (mp *Mapping) Proc(tile []int) int {
	var buf [maxStackDims]int
	vec := mp.ProcVec(tile, scratch(&buf, len(mp.B)))
	return numutil.RankOf(vec, mp.Mod)
}

// ProcOfID decodes a linear processor id into its grid vector.
func (mp *Mapping) ProcOfID(id int, dst []int) []int {
	return numutil.CoordOf(id, mp.Mod, dst)
}

// DirectionOffset returns the processor-grid offset vector induced by moving
// one tile in the +dim direction: column dim of M, component-wise mod Mod.
// Because the mapping is linear, θ(tile + e_dim) = θ(tile) + offset (mod m⃗)
// for every tile — this is exactly the neighbor property.
func (mp *Mapping) DirectionOffset(dim int) []int {
	d := len(mp.B)
	off := make([]int, d)
	for i := 0; i < d; i++ {
		off[i] = numutil.EMod(mp.M[i][dim], mp.Mod[i])
	}
	return off
}

// NeighborProc returns the processor that owns the tiles adjacent to
// processor proc's tiles along dimension dim, step tiles away (step may be
// negative). All of proc's tiles with an in-grid step-neighbor have that
// neighbor on this single processor — the neighbor property, which follows
// from linearity: θ(tile + step·e_dim) = θ(tile) + step·(column dim of M)
// whenever tile + step·e_dim stays inside the grid.
func (mp *Mapping) NeighborProc(proc, dim, step int) int {
	d := len(mp.B)
	var buf [maxStackDims]int
	vec := mp.ProcOfID(proc, scratch(&buf, d))
	for i := 0; i < d; i++ {
		vec[i] = numutil.EMod(vec[i]+step*mp.M[i][dim], mp.Mod[i])
	}
	return numutil.RankOf(vec, mp.Mod)
}

// Tiles returns the tile coordinates owned by each processor: Tiles()[q] is
// the list of q's tiles in row-major tile order. The layout is computed once
// per call; callers that need it repeatedly should cache it.
func (mp *Mapping) Tiles() [][][]int {
	out := make([][][]int, mp.P)
	numutil.EachCoord(mp.B, func(tile []int) {
		q := mp.Proc(tile)
		out[q] = append(out[q], numutil.CopyInts(tile))
	})
	return out
}

// SlabTiles returns, for the slab of tiles with coordinate slab along
// dimension dim, the tiles in that slab owned by each processor. Every
// processor owns the same number (the balance property).
func (mp *Mapping) SlabTiles(dim, slab int) [][][]int {
	if dim < 0 || dim >= len(mp.B) || slab < 0 || slab >= mp.B[dim] {
		panic(fmt.Sprintf("modmap: SlabTiles(%d, %d) out of range for shape %v", dim, slab, mp.B))
	}
	out := make([][][]int, mp.P)
	sub := numutil.CopyInts(mp.B)
	sub[dim] = 1
	numutil.EachCoord(sub, func(tile []int) {
		tile[dim] = slab
		q := mp.Proc(tile)
		out[q] = append(out[q], numutil.CopyInts(tile))
		tile[dim] = 0
	})
	return out
}

// VerifyBalance exhaustively checks the balance (load-balancing) property:
// in every slab along every dimension, every processor owns exactly
// (slab tile count)/p tiles. It returns nil when the property holds.
func (mp *Mapping) VerifyBalance() error {
	d := len(mp.B)
	counts := make([]int, mp.P)
	for dim := 0; dim < d; dim++ {
		slabTiles := numutil.ProdExcept(mp.B, dim)
		want := slabTiles / mp.P
		for slab := 0; slab < mp.B[dim]; slab++ {
			for i := range counts {
				counts[i] = 0
			}
			sub := numutil.CopyInts(mp.B)
			sub[dim] = 1
			bad := false
			numutil.EachCoord(sub, func(tile []int) {
				tile[dim] = slab
				counts[mp.Proc(tile)]++
				tile[dim] = 0
			})
			for _, c := range counts {
				if c != want {
					bad = true
				}
			}
			if bad {
				return fmt.Errorf("modmap: balance violated in slab %d along dimension %d of %v on p=%d: counts %v (want %d each)",
					slab, dim, mp.B, mp.P, counts, want)
			}
		}
	}
	return nil
}

// VerifyNeighbor exhaustively checks the neighbor property: for every
// processor q and every direction ±dim, the in-grid immediate neighbors of
// all of q's tiles belong to a single processor, and it matches
// NeighborProc. (Tiles on the grid boundary have no neighbor beyond it; a
// sweep communicates nothing across the domain boundary, so the property is
// about interior adjacency.)
func (mp *Mapping) VerifyNeighbor() error {
	d := len(mp.B)
	neighborOf := make([]int, mp.P)
	for dim := 0; dim < d; dim++ {
		for _, step := range []int{1, -1} {
			for q := range neighborOf {
				neighborOf[q] = -1
			}
			var err error
			numutil.EachCoord(mp.B, func(tile []int) {
				if err != nil {
					return
				}
				if n := tile[dim] + step; n < 0 || n >= mp.B[dim] {
					return // boundary tile: no neighbor in this direction
				}
				q := mp.Proc(tile)
				nt := numutil.CopyInts(tile)
				nt[dim] += step
				nq := mp.Proc(nt)
				switch {
				case neighborOf[q] == -1:
					neighborOf[q] = nq
				case neighborOf[q] != nq:
					err = fmt.Errorf("modmap: neighbor property violated for proc %d, dim %d step %+d: tiles map to both proc %d and %d",
						q, dim, step, neighborOf[q], nq)
				}
				if want := mp.NeighborProc(q, dim, step); nq != want {
					err = fmt.Errorf("modmap: NeighborProc(%d, %d, %+d) = %d but tile neighbor is on proc %d",
						q, dim, step, want, nq)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Verify runs both VerifyBalance and VerifyNeighbor.
func (mp *Mapping) Verify() error {
	if err := mp.VerifyBalance(); err != nil {
		return err
	}
	return mp.VerifyNeighbor()
}

// RawMatrix returns the matrix exactly as produced by the Figure 3 kernel,
// before the modular reduction of each row. Useful for inspecting the
// construction; the reduced matrix M defines the same mapping.
func (mp *Mapping) RawMatrix() [][]int {
	out := make([][]int, len(mp.raw))
	for i := range mp.raw {
		out[i] = numutil.CopyInts(mp.raw[i])
	}
	return out
}

// String renders the mapping compactly, e.g. "modmap(p=16, b=4×4×4, m=[1 4 4])".
func (mp *Mapping) String() string {
	return fmt.Sprintf("modmap(p=%d, b=%v, m=%v)", mp.P, mp.B, mp.Mod)
}

// IsOneToOne reports whether an arbitrary modular mapping (matrix M with
// moduli mod) is one-to-one from the hyper-rectangle of shape b onto the
// full grid of shape mod. (Definitions of Section 4; exhaustive check.)
func IsOneToOne(M [][]int, mod, b []int) bool {
	if numutil.Prod(b...) != numutil.Prod(mod...) {
		return false
	}
	return IsEquallyManyToOne(M, mod, b)
}

// IsEquallyManyToOne reports whether the modular mapping hits every point of
// the grid of shape mod the same number of times when applied to the
// hyper-rectangle of shape b. (Exhaustive check.)
func IsEquallyManyToOne(M [][]int, mod, b []int) bool {
	total := numutil.Prod(b...)
	cells := numutil.Prod(mod...)
	if total%cells != 0 {
		return false
	}
	want := total / cells
	counts := make([]int, cells)
	dOut := len(mod)
	vec := make([]int, dOut)
	numutil.EachCoord(b, func(i []int) {
		for r := 0; r < dOut; r++ {
			s := 0
			for k := range i {
				s += M[r][k] * i[k]
			}
			vec[r] = numutil.EMod(s, mod[r])
		}
		counts[numutil.RankOf(vec, mod)]++
	})
	for _, c := range counts {
		if c != want {
			return false
		}
	}
	return true
}

// HasLoadBalancingProperty reports whether the modular mapping (M, mod) has
// the Section 4 load-balancing property for the hyper-rectangle of shape b:
// its restriction to every slice b(i, k) is equally-many-to-one onto the
// grid of shape mod. (Exhaustive check; by linearity it suffices to test
// the slices through 0, i.e. the mappings M[i] of Lemma 2, but this checks
// all slices for test value.)
func HasLoadBalancingProperty(M [][]int, mod, b []int) bool {
	for dim := range b {
		for k := 0; k < b[dim]; k++ {
			if !sliceEquallyManyToOne(M, mod, b, dim, k) {
				return false
			}
		}
	}
	return true
}

func sliceEquallyManyToOne(M [][]int, mod, b []int, dim, k int) bool {
	cells := numutil.Prod(mod...)
	sliceSize := numutil.ProdExcept(b, dim)
	if sliceSize%cells != 0 {
		return false
	}
	want := sliceSize / cells
	counts := make([]int, cells)
	dOut := len(mod)
	vec := make([]int, dOut)
	sub := numutil.CopyInts(b)
	sub[dim] = 1
	ok := true
	numutil.EachCoord(sub, func(i []int) {
		i[dim] = k
		for r := 0; r < dOut; r++ {
			s := 0
			for kk := range i {
				s += M[r][kk] * i[kk]
			}
			vec[r] = numutil.EMod(s, mod[r])
		}
		counts[numutil.RankOf(vec, mod)]++
		i[dim] = 0
	})
	for _, c := range counts {
		if c != want {
			ok = false
		}
	}
	return ok
}
