package dist

import (
	"math/rand"
	"testing"

	"genmp/internal/grid"
	"genmp/internal/numutil"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

func TestFieldLayout(t *testing.T) {
	env := mustTestEnv(t, 4, []int{4, 4, 1}, []int{16, 16, 4})
	f := NewField(env, 0, 2)
	if f.NumTiles() != 4 {
		t.Fatalf("rank 0 owns %d tiles, want 4", f.NumTiles())
	}
	for i := 0; i < f.NumTiles(); i++ {
		b := f.GlobalBounds(i)
		shape := f.TileGrid(i).Shape()
		for k := range shape {
			if shape[k] != b.Hi[k]-b.Lo[k]+4 {
				t.Fatalf("tile %d shape %v vs bounds %v (depth 2)", i, shape, b)
			}
		}
		interior := f.InteriorRect(i)
		if interior.Size() != b.Size() {
			t.Fatalf("tile %d interior %d cells vs bounds %d", i, interior.Size(), b.Size())
		}
	}
	// Every owned tile resolvable; foreign tiles not.
	owned := 0
	for _, tile := range env.M.TilesOf(0) {
		if f.LocalTileOf(tile) < 0 {
			t.Fatalf("owned tile %v not resolvable", tile)
		}
		owned++
	}
	if owned != 4 {
		t.Fatalf("owned = %d", owned)
	}
	for _, tile := range env.M.TilesOf(1) {
		if f.LocalTileOf(tile) >= 0 {
			t.Fatalf("foreign tile %v resolvable on rank 0", tile)
		}
	}
}

// Load and Store copy each tile's interior straight between the global
// grid and the padded tile, so a round trip over every rank reproduces the
// grid bit for bit and neither call allocates.
func TestFieldLoadStoreRoundTripAllocFree(t *testing.T) {
	p, eta := 8, []int{32, 32, 32}
	env := mustTestEnv(t, p, []int{4, 4, 2}, eta)
	rng := rand.New(rand.NewSource(3))
	g, h := grid.New(eta...), grid.New(eta...)
	g.FillFunc(func([]int) float64 { return rng.Float64() })
	fields := make([]*Field, p)
	for q := range fields {
		fields[q] = NewField(env, q, 2)
		fields[q].Load(g)
		fields[q].Store(h)
	}
	for i, v := range h.Data() {
		if v != g.Data()[i] {
			t.Fatalf("element %d: %g after the round trip, want %g", i, v, g.Data()[i])
		}
	}
	if f := fields[0]; f.NumTiles() != 4 {
		t.Fatalf("rank 0 owns %d tiles, want 4", f.NumTiles())
	}
	if n := testing.AllocsPerRun(10, func() { fields[0].Load(g) }); n != 0 {
		t.Errorf("Load made %g allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { fields[0].Store(h) }); n != 0 {
		t.Errorf("Store made %g allocations per call, want 0", n)
	}
}

func TestFillFuncUsesGlobalCoordinates(t *testing.T) {
	env := mustTestEnv(t, 4, []int{4, 4, 1}, []int{8, 8, 4})
	fields := make([]*Field, 4)
	// Gather all ranks' fields filled with a coordinate hash; rebuild and
	// compare against a directly built global grid.
	var rebuilt *grid.Grid
	_, err := testMachine(4).Run(func(r *sim.Rank) {
		f := NewField(env, r.ID, 1)
		f.FillFunc(func(g []int) float64 { return float64(100*g[0] + 10*g[1] + g[2]) })
		fields[r.ID] = f
		if g := GatherToRoot(r, f, xport.AlgAuto); g != nil {
			rebuilt = g
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := grid.New(8, 8, 4)
	want.FillFunc(func(g []int) float64 { return float64(100*g[0] + 10*g[1] + g[2]) })
	if d := grid.MaxAbsDiff(want, rebuilt); d != 0 {
		t.Fatalf("gathered grid differs by %g", d)
	}
}

// haloShellRect returns tile i's halo shell of width w beyond the given
// side of dim, in padded local coordinates — the geometry the hand-built
// halo planner used before redist.CompileHalo took over, kept here as the
// independent oracle the exchange is checked against.
func haloShellRect(f *Field, i, dim, side, w int) grid.Rect {
	interior := f.InteriorRect(i)
	lo := numutil.CopyInts(interior.Lo)
	hi := numutil.CopyInts(interior.Hi)
	if side > 0 {
		lo[dim] = hi[dim]
		hi[dim] = lo[dim] + w
	} else {
		hi[dim] = lo[dim]
		lo[dim] = hi[dim] - w
	}
	return grid.RectOf(lo, hi)
}

func TestHaloExchangeDeliversNeighborFaces(t *testing.T) {
	env := mustTestEnv(t, 4, []int{4, 4, 1}, []int{8, 8, 4})
	_, err := testMachine(4).Run(func(r *sim.Rank) {
		f := NewField(env, r.ID, 2)
		f.FillFunc(func(g []int) float64 { return float64(100*g[0] + 10*g[1] + g[2]) })
		f.ExchangeHalosPiped(r, nil)
		// After the exchange, every halo cell adjacent to an in-grid
		// neighbor must hold the neighbor's value = the same global
		// formula.
		for i := 0; i < f.NumTiles(); i++ {
			g := f.TileGrid(i)
			b := f.GlobalBounds(i)
			d := g.Dims()
			global := make([]int, d)
			for dim := 0; dim < 2; dim++ { // dims 0,1 are cut; dim 2 is not
				for _, side := range []int{-1, 1} {
					// Skip domain-boundary sides.
					if side < 0 && b.Lo[dim] == 0 {
						continue
					}
					if side > 0 && b.Hi[dim] == env.Eta[dim] {
						continue
					}
					rect := haloShellRect(f, i, dim, side, 2)
					g.EachLine(rect, d-1, func(l grid.Line) {
						f.LocalToGlobal(i, l.Base, global)
						off := l.Base
						for k := 0; k < l.N; k++ {
							want := float64(100*global[0] + 10*global[1] + global[2])
							if got := g.Data()[off]; got != want {
								panic("halo value mismatch")
							}
							global[d-1]++
							off += l.Stride
						}
						global[d-1] -= l.N
					})
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStrictSweepMatchesSerial(t *testing.T) {
	// A tridiagonal sweep with strictly private storage must reproduce the
	// serial whole-line solve elementwise.
	p := 4
	gamma := []int{4, 4, 1}
	eta := []int{12, 12, 6}
	env := mustTestEnv(t, p, gamma, eta)
	rng := rand.New(rand.NewSource(7))

	// Global reference system.
	gs := make([]*grid.Grid, 4)
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	gs[0].FillFunc(func(idx []int) float64 {
		if idx[0] == 0 {
			return 0
		}
		return rng.Float64()*2 - 1
	})
	gs[1].FillFunc(func([]int) float64 { return 4 + rng.Float64() })
	gs[2].FillFunc(func(idx []int) float64 {
		if idx[0] == eta[0]-1 {
			return 0
		}
		return rng.Float64()*2 - 1
	})
	gs[3].FillFunc(func([]int) float64 { return rng.Float64()*10 - 5 })

	want := make([]*grid.Grid, 4)
	for i, g := range gs {
		want[i] = g.Clone()
	}
	n := eta[0]
	chunk := make([][]float64, 4)
	for v := range chunk {
		chunk[v] = make([]float64, n)
	}
	want[0].EachLine(want[0].Bounds(), 0, func(l grid.Line) {
		for v, g := range want {
			g.Gather(l, chunk[v])
		}
		sweep.ChunkedSolve(sweep.Tridiag{}, chunk, nil)
		for v, g := range want {
			g.Scatter(l, chunk[v])
		}
	})

	var rebuilt *grid.Grid
	_, err := testMachine(p).Run(func(r *sim.Rank) {
		fields := make([]*Field, 4)
		for v := range fields {
			fields[v] = NewField(env, r.ID, 0)
			v := v
			fields[v].FillFunc(func(g []int) float64 { return gs[v].At(g...) })
		}
		NewSweepRunner(sweep.Tridiag{}, fields).Run(r, 0)
		if g := GatherToRoot(r, fields[3], xport.AlgAuto); g != nil {
			rebuilt = g
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want[3], rebuilt); d > 1e-10 {
		t.Fatalf("strict sweep differs from serial by %g", d)
	}
}
