package core

import (
	"strings"
	"testing"

	"genmp/internal/numutil"
	"genmp/internal/partition"
)

func TestFigure1Exact(t *testing.T) {
	// Figure 1 of the paper: the 3-D diagonal multipartitioning for 16
	// processors on a 4×4×4 tile grid is specified by
	// θ(i,j,k) = ((i−k) mod √p)·√p + ((j−k) mod √p) with √p = 4.
	m, err := NewDiagonal(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !numutil.EqualInts(m.Gamma(), []int{4, 4, 4}) {
		t.Fatalf("gamma = %v, want [4 4 4]", m.Gamma())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				want := numutil.EMod(i-k, 4)*4 + numutil.EMod(j-k, 4)
				if got := m.Proc([]int{i, j, k}); got != want {
					t.Fatalf("θ(%d,%d,%d) = %d, want %d", i, j, k, got, want)
				}
			}
		}
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
	if m.TilesPerProc() != 4 {
		t.Errorf("tiles per proc = %d, want 4", m.TilesPerProc())
	}
	// One tile per processor per slab (diagonal multipartitionings are
	// "compact").
	for dim := 0; dim < 3; dim++ {
		if m.TilesPerSlab(dim) != 1 {
			t.Errorf("tiles per slab along dim %d = %d, want 1", dim, m.TilesPerSlab(dim))
		}
	}
}

func TestDiagonalRequiresIntegralRoot(t *testing.T) {
	if _, err := NewDiagonal(8, 3); err == nil {
		t.Error("NewDiagonal(8, 3) should fail: 8 is not a perfect square")
	}
	if _, err := NewDiagonal(50, 3); err == nil {
		t.Error("NewDiagonal(50, 3) should fail")
	}
	for _, p := range []int{1, 4, 9, 16, 25, 36, 49, 64, 81} {
		m, err := NewDiagonal(p, 3)
		if err != nil {
			t.Fatalf("NewDiagonal(%d, 3): %v", p, err)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
	// 4-D diagonal needs a perfect cube.
	if _, err := NewDiagonal(16, 4); err == nil {
		t.Error("NewDiagonal(16, 4) should fail: 16 is not a perfect cube")
	}
	m, err := NewDiagonal(27, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
}

func TestJohnsson2D(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 7, 8, 12} {
		m, err := NewJohnsson2D(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
		// Each processor's tiles lie on a wrapped diagonal: exactly one per
		// row and one per column — a latin square.
		for q := 0; q < p; q++ {
			rows := make([]int, p)
			cols := make([]int, p)
			for _, tile := range m.TilesOf(q) {
				rows[tile[0]]++
				cols[tile[1]]++
			}
			for i := 0; i < p; i++ {
				if rows[i] != 1 || cols[i] != 1 {
					t.Fatalf("p=%d proc %d: not a latin square (row %d: %d, col %d: %d)",
						p, q, i, rows[i], i, cols[i])
				}
			}
		}
		// In an ADI-style sweep each processor exchanges with only its two
		// neighbors in a ring: the ±1 neighbor procs are q±1 mod p.
		for q := 0; q < p; q++ {
			if m.NeighborProc(q, 0, 1) != numutil.EMod(q+1, p) {
				t.Errorf("p=%d: NeighborProc(%d, 0, +1) = %d", p, q, m.NeighborProc(q, 0, 1))
			}
		}
	}
}

func TestGrayCode3D(t *testing.T) {
	for k := 1; k <= 3; k++ {
		m, err := NewGrayCode3D(k)
		if err != nil {
			t.Fatal(err)
		}
		side := 1 << k
		if m.P() != side*side {
			t.Fatalf("k=%d: P = %d, want %d", k, m.P(), side*side)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		// Bruno–Cappello property: tiles adjacent along i or j map to
		// hypercube-adjacent processors; tiles adjacent along k map to
		// processors exactly two hops apart.
		numutil.EachCoord(m.Gamma(), func(tile []int) {
			q := m.Proc(tile)
			for dim := 0; dim < 3; dim++ {
				if tile[dim]+1 >= side {
					continue
				}
				nt := numutil.CopyInts(tile)
				nt[dim]++
				nq := m.Proc(nt)
				wantHops := 1
				if dim == 2 {
					wantHops = 2
				}
				if got := HammingDistance(q, nq); got != wantHops {
					t.Fatalf("k=%d tile %v dim %d: neighbor procs %d,%d are %d hops apart, want %d",
						k, tile, dim, q, nq, got, wantHops)
				}
			}
		})
	}
}

func TestGeneralizedAcrossPartitionings(t *testing.T) {
	cases := []struct {
		p     int
		gamma []int
	}{
		{8, []int{4, 4, 2}},
		{8, []int{8, 8, 1}},
		{30, []int{10, 15, 6}},
		{30, []int{5, 30, 6}},
		{12, []int{6, 6, 2}},
	}
	for _, c := range cases {
		m, err := NewGeneralized(c.p, c.gamma)
		if err != nil {
			t.Fatalf("p=%d γ=%v: %v", c.p, c.gamma, err)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("p=%d γ=%v: %v", c.p, c.gamma, err)
		}
		if m.Mapping() == nil {
			t.Errorf("p=%d γ=%v: Mapping() should be non-nil for generalized", c.p, c.gamma)
		}
	}
}

func TestNewOptimal(t *testing.T) {
	m, err := NewOptimal(8, 3, partition.UniformObjective(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := numutil.SortedCopy(m.Gamma()); !numutil.EqualInts(got, []int{2, 4, 4}) {
		t.Errorf("optimal γ for p=8 = %v, want a permutation of [2 4 4]", m.Gamma())
	}
	if err := m.Verify(); err != nil {
		t.Error(err)
	}
	if _, err := NewOptimal(5, 1, partition.UniformObjective(1)); err == nil {
		t.Error("NewOptimal(5, 1) should fail")
	}
}

func TestSweepSchedule(t *testing.T) {
	m, err := NewGeneralized(8, []int{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 8; q++ {
		for dim := 0; dim < 3; dim++ {
			fwd := m.SweepSchedule(q, dim, false)
			if len(fwd) != m.Gamma()[dim] {
				t.Fatalf("forward sweep along dim %d has %d phases, want %d", dim, len(fwd), m.Gamma()[dim])
			}
			for k, ph := range fwd {
				if ph.Slab != k {
					t.Fatalf("forward phase %d has slab %d", k, ph.Slab)
				}
				if len(ph.Tiles) != m.TilesPerSlab(dim) {
					t.Fatalf("phase %d: %d tiles, want %d", k, len(ph.Tiles), m.TilesPerSlab(dim))
				}
				if k < len(fwd)-1 {
					if ph.SendTo != m.NeighborProc(q, dim, 1) {
						t.Fatalf("phase %d: SendTo = %d, want %d", k, ph.SendTo, m.NeighborProc(q, dim, 1))
					}
				} else if ph.SendTo != -1 {
					t.Fatalf("last phase should not send (got %d)", ph.SendTo)
				}
			}
			bwd := m.SweepSchedule(q, dim, true)
			for k, ph := range bwd {
				if want := m.Gamma()[dim] - 1 - k; ph.Slab != want {
					t.Fatalf("backward phase %d has slab %d, want %d", k, ph.Slab, want)
				}
			}
			if last := bwd[len(bwd)-1]; last.SendTo != -1 {
				t.Fatalf("backward last phase should not send")
			}
		}
	}
}

// TestSlabTilesShared: SlabTiles lists q's tiles of slab s along dim, all
// with coordinate s there, in row-major order, and hands out the slice
// SweepSchedule's phase of that slab holds, not a copy.
func TestSlabTilesShared(t *testing.T) {
	m, err := NewGeneralized(8, []int{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 8; q++ {
		for dim := 0; dim < 3; dim++ {
			for _, ph := range m.SweepSchedule(q, dim, true) {
				st := m.SlabTiles(q, dim, ph.Slab)
				if len(st) != m.TilesPerSlab(dim) || &st[0] != &ph.Tiles[0] {
					t.Fatalf("q %d dim %d slab %d: SlabTiles gives %v, not the schedule's shared %v", q, dim, ph.Slab, st, ph.Tiles)
				}
				for i, c := range st {
					if c[dim] != ph.Slab || m.Proc(c) != q {
						t.Fatalf("q %d dim %d slab %d: tile %v is not q's tile of the slab", q, dim, ph.Slab, c)
					}
					if i > 0 && numutil.RankOf(st[i-1], m.Gamma()) >= numutil.RankOf(c, m.Gamma()) {
						t.Fatalf("q %d dim %d slab %d: tiles %v out of row-major order", q, dim, ph.Slab, st)
					}
				}
			}
		}
	}
}

func TestSweepScheduleCoversAllTiles(t *testing.T) {
	m, err := NewGeneralized(30, []int{10, 15, 6})
	if err != nil {
		t.Fatal(err)
	}
	for dim := 0; dim < 3; dim++ {
		seen := map[string]bool{}
		total := 0
		for q := 0; q < 30; q++ {
			for _, ph := range m.SweepSchedule(q, dim, false) {
				for _, tile := range ph.Tiles {
					key := partition.Describe(tile)
					if seen[key] {
						t.Fatalf("dim %d: tile %v scheduled twice", dim, tile)
					}
					seen[key] = true
					total++
				}
			}
		}
		if total != m.NumTiles() {
			t.Fatalf("dim %d: schedule covers %d tiles, want %d", dim, total, m.NumTiles())
		}
	}
}

func TestBlockRange(t *testing.T) {
	// 10 elements in 3 parts: 4, 3, 3.
	wants := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for i, w := range wants {
		lo, hi := BlockRange(10, 3, i)
		if lo != w[0] || hi != w[1] {
			t.Errorf("BlockRange(10,3,%d) = [%d,%d), want [%d,%d)", i, lo, hi, w[0], w[1])
		}
	}
	// Exact division.
	lo, hi := BlockRange(12, 4, 2)
	if lo != 6 || hi != 9 {
		t.Errorf("BlockRange(12,4,2) = [%d,%d)", lo, hi)
	}
	// Coverage and monotonicity for many shapes.
	for n := 1; n <= 40; n++ {
		for parts := 1; parts <= n; parts++ {
			prev := 0
			for idx := 0; idx < parts; idx++ {
				lo, hi := BlockRange(n, parts, idx)
				if lo != prev {
					t.Fatalf("BlockRange(%d,%d,%d): lo = %d, want %d", n, parts, idx, lo, prev)
				}
				if hi-lo != n/parts && hi-lo != n/parts+1 {
					t.Fatalf("BlockRange(%d,%d,%d): size %d", n, parts, idx, hi-lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("BlockRange(%d,%d,·) covers %d", n, parts, prev)
			}
		}
	}
}

func TestTileBounds(t *testing.T) {
	m, err := NewGeneralized(4, []int{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.TileBounds([]int{102, 102, 102}, []int{1, 2, 0})
	// 102 into 4 parts: 26, 26, 25, 25 → part 1 = [26,52), part 2 = [52,77).
	if lo[0] != 26 || hi[0] != 52 || lo[1] != 52 || hi[1] != 77 || lo[2] != 0 || hi[2] != 102 {
		t.Errorf("TileBounds = [%v, %v)", lo, hi)
	}
}

func TestRenderSlices(t *testing.T) {
	m, err := NewJohnsson2D(3)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.RenderSlices(&sb); err != nil {
		t.Fatal(err)
	}
	want := "0 2 1\n1 0 2\n2 1 0\n"
	if sb.String() != want {
		t.Errorf("render:\n%q\nwant:\n%q", sb.String(), want)
	}
	m3, err := NewDiagonal(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := m3.RenderSlices(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "slice k=0") || !strings.Contains(sb.String(), "slice k=1") {
		t.Errorf("3-D render missing slice headers:\n%s", sb.String())
	}
	m4, err := NewGeneralized(4, []int{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m4.RenderSlices(&sb); err == nil {
		t.Error("RenderSlices with d=4 should fail")
	}
}

func TestGeneralizedDegeneratesToOneTilePerSlabOnSquares(t *testing.T) {
	// "When the number of processors is a perfect square, the generalized
	// multipartitionings … are exactly diagonal multipartitionings": the
	// compactness (one tile per proc per slab) must match.
	for _, p := range []int{4, 9, 16, 25} {
		c := numutil.ISqrt(p)
		m, err := NewGeneralized(p, []int{c, c, c})
		if err != nil {
			t.Fatal(err)
		}
		for dim := 0; dim < 3; dim++ {
			if m.TilesPerSlab(dim) != 1 {
				t.Errorf("p=%d: generalized on %d×%d×%d has %d tiles/slab along %d, want 1",
					p, c, c, c, m.TilesPerSlab(dim), dim)
			}
		}
	}
}

func TestVerifyCatchesBrokenMap(t *testing.T) {
	m := FromTileMap(brokenMap{}, "broken")
	want := "core: balance violated: proc 0 owns 2 tiles in slab 0 along dim 0 (want 1)"
	if err := m.Verify(); err == nil || err.Error() != want {
		t.Errorf("Verify = %v, want %s", err, want)
	}
}

// TestVerifyCatchesBrokenNeighbors hands Verify a balanced map that breaks
// only the neighbor property: the 4×4 latin square r XOR c on p = 4. Every
// row and column holds each processor once, but proc 0's +1 neighbors along
// dim 0 land on procs 1 and 3.
func TestVerifyCatchesBrokenNeighbors(t *testing.T) {
	m := FromTileMap(xorSquare{}, "xor")
	want := "core: neighbor violated: tile [1 1] of proc 0 has +1-neighbor [2 1] on proc 3, NeighborProc says 1"
	if err := m.Verify(); err == nil || err.Error() != want {
		t.Errorf("Verify = %v, want %s", err, want)
	}
}

// brokenMap sends every tile to processor 0 — balanced nowhere (p = 2).
type brokenMap struct{}

func (brokenMap) P() int                            { return 2 }
func (brokenMap) Shape() []int                      { return []int{2, 2} }
func (brokenMap) Proc(tile []int) int               { return 0 }
func (brokenMap) NeighborProc(q, dim, step int) int { return 0 }

// xorSquare is the 4×4 latin square r XOR c on p = 4, claiming q XOR 1 as
// every neighbor.
type xorSquare struct{}

func (xorSquare) P() int                            { return 4 }
func (xorSquare) Shape() []int                      { return []int{4, 4} }
func (xorSquare) Proc(tile []int) int               { return tile[0] ^ tile[1] }
func (xorSquare) NeighborProc(q, dim, step int) int { return q ^ 1 }
