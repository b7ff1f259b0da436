package modmap

import (
	"testing"

	"genmp/internal/numutil"
	"genmp/internal/partition"
)

func TestModuliProperties(t *testing.T) {
	cases := []struct {
		p int
		b []int
	}{
		{16, []int{4, 4, 4}},
		{8, []int{4, 4, 2}},
		{8, []int{8, 8, 1}},
		{30, []int{10, 15, 6}},
		{30, []int{30, 30, 1}},
		{50, []int{5, 10, 10}},
		{49, []int{7, 7, 7}},
		{12, []int{6, 6, 2, 1}},
		{1, []int{1, 1}},
		{6, []int{6, 6}},
	}
	for _, c := range cases {
		mod := Moduli(c.p, c.b)
		if mod[0] != 1 {
			t.Errorf("p=%d b=%v: m₁ = %d, want 1", c.p, c.b, mod[0])
		}
		if got := numutil.Prod(mod...); got != c.p {
			t.Errorf("p=%d b=%v: ∏m = %d, want %d (m=%v)", c.p, c.b, got, c.p, mod)
		}
		for i, m := range mod {
			if c.b[i]%m != 0 {
				t.Errorf("p=%d b=%v: m[%d] = %d does not divide b[%d] = %d", c.p, c.b, i, m, i, c.b[i])
			}
		}
	}
}

func TestModuliMatchesDirectFormulaSmall(t *testing.T) {
	// For small inputs the suffix products fit in int64; compare against the
	// literal formula.
	cases := []struct {
		p int
		b []int
	}{
		{16, []int{4, 4, 4}}, {8, []int{4, 4, 2}}, {30, []int{10, 15, 6}},
		{12, []int{6, 6, 2}}, {36, []int{6, 6, 6}}, {50, []int{5, 10, 10}},
	}
	for _, c := range cases {
		d := len(c.b)
		want := make([]int, d)
		for i := 0; i < d; i++ {
			num := 1
			for j := i; j < d; j++ {
				num *= c.b[j]
			}
			den := 1
			for j := i + 1; j < d; j++ {
				den *= c.b[j]
			}
			want[i] = numutil.GCD(c.p, num) / numutil.GCD(c.p, den)
		}
		got := Moduli(c.p, c.b)
		if !numutil.EqualInts(got, want) {
			t.Errorf("Moduli(%d, %v) = %v, want %v", c.p, c.b, got, want)
		}
	}
}

func TestNewRejectsInvalidPartitioning(t *testing.T) {
	if _, err := New(8, []int{4, 2, 2}); err == nil {
		t.Error("New(8, 4×2×2) should fail: slab along dim 0 has 4 tiles")
	}
	if _, err := New(4, []int{2, 2}); err == nil {
		t.Error("New(4, 2×2) should fail: slabs have 2 tiles")
	}
	if _, err := New(0, []int{1}); err == nil {
		t.Error("New(0, …) should fail")
	}
	if _, err := New(2, []int{2, 0}); err == nil {
		t.Error("non-positive extent should fail")
	}
	if _, err := New(2, nil); err == nil {
		t.Error("empty shape should fail")
	}
	// 2⁶⁴ slab tiles along dim 2 wrap to 0 in an int, and 2⁶⁴·2 tiles
	// overflow it even where p divides every slab.
	if _, err := New(3, []int{1 << 32, 1 << 32, 3}); err == nil {
		t.Error("New(3, 2³²×2³²×3) should fail: p does not divide the slabs along dim 2")
	}
	if _, err := New(2, []int{1 << 32, 1 << 32, 2}); err == nil {
		t.Error("New(2, 2³²×2³²×2) should fail: the tile count overflows int")
	}
}

func TestFigure1ShapeMapping(t *testing.T) {
	// The paper's Figure 1 case: p = 16, 4×4×4 tiles. The generalized
	// construction must be a perfect multipartitioning: 4 tiles per
	// processor, one per slab in every dimension.
	mp, err := New(16, []int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Verify(); err != nil {
		t.Fatal(err)
	}
	if mp.TilesPerProc() != 4 {
		t.Errorf("tiles per proc = %d, want 4", mp.TilesPerProc())
	}
	for dim := 0; dim < 3; dim++ {
		for slab := 0; slab < 4; slab++ {
			per := mp.SlabTiles(dim, slab)
			for q, tiles := range per {
				if len(tiles) != 1 {
					t.Fatalf("dim %d slab %d proc %d owns %d tiles, want 1", dim, slab, q, len(tiles))
				}
			}
		}
	}
}

func TestConstructionAcrossAllElementaryPartitionings(t *testing.T) {
	// The heart of Section 4: for EVERY valid partitioning the construction
	// yields a mapping with balance + neighbor. Sweep every elementary
	// partitioning for a range of processor counts and dimensions.
	for p := 1; p <= 36; p++ {
		for d := 2; d <= 4; d++ {
			for _, gamma := range partition.Elementary(p, d) {
				if numutil.Prod(gamma...) > 100000 {
					continue // keep exhaustive verification affordable
				}
				mp, err := New(p, gamma)
				if err != nil {
					t.Fatalf("p=%d γ=%v: construction failed: %v", p, gamma, err)
				}
				if err := mp.Verify(); err != nil {
					t.Fatalf("p=%d γ=%v: %v\nraw M = %v, mod = %v", p, gamma, err, mp.RawMatrix(), mp.Mod)
				}
			}
		}
	}
}

func TestConstructionOnSelectedLargerCases(t *testing.T) {
	cases := []struct {
		p int
		b []int
	}{
		{49, []int{7, 7, 7}},
		{50, []int{5, 10, 10}},
		{50, []int{10, 10, 5}},
		{64, []int{8, 8, 8}},
		{64, []int{16, 16, 4}},
		{72, []int{12, 12, 6}},
		{81, []int{9, 9, 9}},
		{45, []int{15, 15, 3}},
		{100, []int{10, 10, 10}},
		{36, []int{6, 6, 6, 1}},
		{24, []int{12, 4, 2, 3}},
		{16, []int{4, 4, 2, 2, 1}},
	}
	for _, c := range cases {
		mp, err := New(c.p, c.b)
		if err != nil {
			t.Fatalf("p=%d b=%v: %v", c.p, c.b, err)
		}
		if err := mp.Verify(); err != nil {
			t.Errorf("p=%d b=%v: %v", c.p, c.b, err)
		}
	}
}

func TestConstructionLargeP(t *testing.T) {
	// Construction and exhaustive verification stay cheap even at the
	// paper's "p up to 1000" scale.
	cases := []struct {
		p int
		b []int
	}{
		{720, []int{12, 60, 60}},
		{1000, []int{10, 100, 100}},
		{997, []int{1, 997, 997}}, // large prime: γ = (1, p, p)
	}
	for _, c := range cases {
		mp, err := New(c.p, c.b)
		if err != nil {
			t.Fatalf("p=%d: %v", c.p, err)
		}
		if err := mp.VerifyBalance(); err != nil {
			t.Errorf("p=%d: %v", c.p, err)
		}
		if err := mp.VerifyNeighbor(); err != nil {
			t.Errorf("p=%d: %v", c.p, err)
		}
	}
}

func TestConstructionOnNonElementaryValidPartitionings(t *testing.T) {
	// Section 4 requires only validity, not elementarity — e.g. "multiples"
	// of smaller multipartitionings must work too.
	cases := []struct {
		p int
		b []int
	}{
		{4, []int{4, 4, 4}},  // paving of 2×2×2? no — 4×4×4 is a multiple of 2×2×2 and of 4×4×1
		{4, []int{8, 8, 2}},  // multiple of 4×4×1 and 2×2×2 mixes
		{8, []int{8, 8, 2}},  // multiple of 4×4×2? (8·2=16 ✓, 8·2=16 ✓, 8·8=64 ✓)
		{6, []int{12, 6, 2}}, // slabs: 12, 24, 72 — all multiples of 6
		{9, []int{9, 9, 9}},  // multiple of 3×3×... wait 9×9 = 81 ✓
		{16, []int{8, 8, 4}}, // slabs 32, 32, 64 — all multiples of 16
	}
	for _, c := range cases {
		if partition.IsElementary(c.p, c.b) {
			t.Errorf("test premise broken: %v is elementary for p=%d", c.b, c.p)
		}
		mp, err := New(c.p, c.b)
		if err != nil {
			t.Fatalf("p=%d b=%v: %v", c.p, c.b, err)
		}
		if err := mp.Verify(); err != nil {
			t.Errorf("p=%d b=%v: %v", c.p, c.b, err)
		}
	}
}

func TestTilesPartitionTheGrid(t *testing.T) {
	mp, err := New(8, []int{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	tiles := mp.Tiles()
	if len(tiles) != 8 {
		t.Fatalf("Tiles() has %d processors, want 8", len(tiles))
	}
	seen := map[string]bool{}
	count := 0
	for q, ts := range tiles {
		if len(ts) != mp.TilesPerProc() {
			t.Errorf("proc %d owns %d tiles, want %d", q, len(ts), mp.TilesPerProc())
		}
		for _, tile := range ts {
			key := partition.Describe(tile)
			if seen[key] {
				t.Errorf("tile %v assigned twice", tile)
			}
			seen[key] = true
			count++
			if got := mp.Proc(tile); got != q {
				t.Errorf("Proc(%v) = %d, but tile listed under %d", tile, got, q)
			}
		}
	}
	if count != 32 {
		t.Errorf("total tiles = %d, want 32", count)
	}
}

func TestNeighborProcConsistency(t *testing.T) {
	mp, err := New(30, []int{10, 15, 6})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < mp.P; q++ {
		for dim := 0; dim < 3; dim++ {
			// Walking +1 then -1 must return to q.
			fwd := mp.NeighborProc(q, dim, 1)
			if back := mp.NeighborProc(fwd, dim, -1); back != q {
				t.Errorf("proc %d dim %d: +1 then -1 gives %d", q, dim, back)
			}
			// Composing k single steps equals one k-step jump (linearity).
			cur := q
			for s := 0; s < 3; s++ {
				cur = mp.NeighborProc(cur, dim, 1)
			}
			if jump := mp.NeighborProc(q, dim, 3); jump != cur {
				t.Errorf("proc %d dim %d: 3 single steps give %d, one 3-step jump gives %d", q, dim, cur, jump)
			}
		}
	}
}

func TestProcVecWraparound(t *testing.T) {
	mp, err := New(16, []int{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int, 3)
	b := make([]int, 3)
	mp.ProcVec([]int{1, 2, 3}, a)
	mp.ProcVec([]int{5, -2, 7}, b) // ≡ (1, 2, 3) mod 4
	if !numutil.EqualInts(a, b) {
		t.Errorf("wraparound coordinates map differently: %v vs %v", a, b)
	}
}

func TestDiagonalSpecialCase(t *testing.T) {
	// When p = c^(d-1) and b = (c,…,c), every slab holds exactly p tiles, so
	// the balance property forces one tile per processor per slab — the
	// generalized mapping degenerates to a diagonal-style multipartitioning.
	cases := []struct{ c, d int }{{4, 3}, {3, 3}, {5, 3}, {2, 4}, {3, 4}, {2, 5}, {7, 2}}
	for _, cs := range cases {
		p := numutil.Pow(cs.c, cs.d-1)
		b := make([]int, cs.d)
		for i := range b {
			b[i] = cs.c
		}
		mp, err := New(p, b)
		if err != nil {
			t.Fatalf("c=%d d=%d: %v", cs.c, cs.d, err)
		}
		if err := mp.Verify(); err != nil {
			t.Fatalf("c=%d d=%d: %v", cs.c, cs.d, err)
		}
		for dim := 0; dim < cs.d; dim++ {
			for slab := 0; slab < cs.c; slab++ {
				for q, tiles := range mp.SlabTiles(dim, slab) {
					if len(tiles) != 1 {
						t.Fatalf("c=%d d=%d dim=%d slab=%d proc=%d: %d tiles per slab, want 1",
							cs.c, cs.d, dim, slab, q, len(tiles))
					}
				}
			}
		}
	}
}

func TestJohnsson2DAsModularMapping(t *testing.T) {
	// Johnsson et al.'s 2-D mapping θ(i,j) = (i−j) mod p is the modular
	// mapping with M = [[0,0],[1,−1]], m = (1, p). It must pass the same
	// predicates as our construction.
	for _, p := range []int{2, 3, 4, 5, 8} {
		M := [][]int{{0, 0}, {1, -1}}
		mod := []int{1, p}
		b := []int{p, p}
		if !IsEquallyManyToOne(M, mod, b) {
			t.Errorf("p=%d: Johnsson mapping is not equally-many-to-one on the full grid", p)
		}
		if !HasLoadBalancingProperty(M, mod, b) {
			t.Errorf("p=%d: Johnsson mapping lacks the load-balancing property", p)
		}
	}
}

func TestIsOneToOneAndEquallyManyToOne(t *testing.T) {
	// Identity mapping with m = b is one-to-one.
	M := [][]int{{1, 0}, {0, 1}}
	if !IsOneToOne(M, []int{3, 4}, []int{3, 4}) {
		t.Error("identity should be one-to-one from 3×4 onto 3×4")
	}
	// Lemma 3: a one-to-one mapping on b′ is equally-many-to-one on any
	// multiple of b′.
	if !IsEquallyManyToOne(M, []int{3, 4}, []int{6, 8}) {
		t.Error("identity should be equally-many-to-one from 6×8 onto 3×4")
	}
	if IsEquallyManyToOne(M, []int{3, 4}, []int{4, 4}) {
		t.Error("4×4 onto 3×4 cannot be equally-many-to-one (counts don't divide)")
	}
	// A degenerate mapping (all zeros) is not equally-many-to-one unless the
	// grid has one cell.
	Z := [][]int{{0, 0}, {0, 0}}
	if IsEquallyManyToOne(Z, []int{3, 4}, []int{3, 4}) {
		t.Error("zero mapping should fail equally-many-to-one")
	}
	if !IsEquallyManyToOne(Z, []int{1, 1}, []int{3, 4}) {
		t.Error("zero mapping onto a single cell is trivially equally-many-to-one")
	}
}

func TestHasLoadBalancingMatchesMappingVerify(t *testing.T) {
	// The standalone predicate and the Mapping method must agree on the
	// constructed mappings.
	cases := []struct {
		p int
		b []int
	}{
		{8, []int{4, 4, 2}}, {30, []int{10, 15, 6}}, {12, []int{6, 6, 2}},
	}
	for _, c := range cases {
		mp, err := New(c.p, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if !HasLoadBalancingProperty(mp.M, mp.Mod, mp.B) {
			t.Errorf("p=%d b=%v: constructed mapping fails HasLoadBalancingProperty", c.p, c.b)
		}
	}
}

func TestReducedAndRawMatrixAgree(t *testing.T) {
	mp, err := New(30, []int{10, 15, 6})
	if err != nil {
		t.Fatal(err)
	}
	raw := mp.RawMatrix()
	vecR := make([]int, 3)
	numutil.EachCoord(mp.B, func(tile []int) {
		mp.ProcVec(tile, vecR)
		for i := 0; i < 3; i++ {
			s := 0
			for k := 0; k < 3; k++ {
				s += raw[i][k] * tile[k]
			}
			if numutil.EMod(s, mp.Mod[i]) != vecR[i] {
				t.Fatalf("tile %v: raw and reduced matrices disagree in component %d", tile, i)
			}
		}
	})
}

func TestTrivialCases(t *testing.T) {
	// p = 1: everything on processor 0.
	mp, err := New(1, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	numutil.EachCoord(mp.B, func(tile []int) {
		if mp.Proc(tile) != 0 {
			t.Fatalf("p=1: tile %v on proc %d", tile, mp.Proc(tile))
		}
	})
	// Dimensions with a single tile (γᵢ = 1), e.g. 8×8×1 on p = 8.
	mp2, err := New(8, []int{8, 8, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mp2.Verify(); err != nil {
		t.Error(err)
	}
}

func TestSlabTilesArgumentChecks(t *testing.T) {
	mp, err := New(4, []int{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SlabTiles out of range should panic")
		}
	}()
	mp.SlabTiles(0, 5)
}
