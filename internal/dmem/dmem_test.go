package dmem

import (
	"math"
	"math/rand"
	"testing"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/numutil"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

func testMachine(p int) *sim.Machine {
	return sim.NewMachine(p,
		sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6},
		sim.CPU{FlopsPerSec: 250e6})
}

func mustEnv(t *testing.T, p int, gamma, eta []int) *dist.Env {
	t.Helper()
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestFieldLayout(t *testing.T) {
	env := mustEnv(t, 4, []int{4, 4, 1}, []int{16, 16, 4})
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

func TestFillFuncUsesGlobalCoordinates(t *testing.T) {
	env := mustEnv(t, 4, []int{4, 4, 1}, []int{8, 8, 4})
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
	env := mustEnv(t, 4, []int{4, 4, 1}, []int{8, 8, 4})
	_, err := testMachine(4).Run(func(r *sim.Rank) {
		f := NewField(env, r.ID, 2)
		f.FillFunc(func(g []int) float64 { return float64(100*g[0] + 10*g[1] + g[2]) })
		f.ExchangeHalos(r)
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
						f.localToGlobal(i, l.Base, global)
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
	env := mustEnv(t, p, gamma, eta)
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

// TestStrictSPMatchesSerial requires the strict SP field to be
// Float64bits-identical to nas.SerialSolve, which runs the scalar
// Banded.Forward/Backward and the serial BuildLHS. The last case's tiles
// are 32 cells wide on the last axis, so full 32-line panels along dims 0
// and 1 are single runs of adjacent lines.
func TestStrictSPMatchesSerial(t *testing.T) {
	cases := []struct {
		p     int
		gamma []int
		eta   []int
	}{
		{4, []int{2, 2, 2}, []int{12, 12, 12}},
		{8, []int{4, 4, 2}, []int{12, 12, 12}},
		{6, []int{6, 6, 1}, []int{12, 13, 7}},
		{2, []int{1, 2, 2}, []int{16, 32, 64}},
	}
	for _, c := range cases {
		steps := 3
		want := nas.InitialState(c.eta)
		nas.SerialSolve(want, steps)

		env := mustEnv(t, c.p, c.gamma, c.eta)
		got, res, err := RunSP(env, testMachine(c.p), steps)
		if err != nil {
			t.Fatalf("p=%d: %v", c.p, err)
		}
		if got == nil {
			t.Fatal("no gathered grid")
		}
		wd, gd := want.Data(), got.Data()
		for i := range wd {
			if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
				t.Fatalf("p=%d γ=%v: element %d: strict SP %v (%#x) != serial %v (%#x)",
					c.p, c.gamma, i, gd[i], math.Float64bits(gd[i]), wd[i], math.Float64bits(wd[i]))
			}
		}
		if res.TotalBytes() == 0 {
			t.Error("strict SP moved no bytes")
		}
	}
}

func TestStrictADIMatchesSerial(t *testing.T) {
	cases := []struct {
		p     int
		gamma []int
		eta   []int
	}{
		{4, []int{2, 2, 2}, []int{10, 9, 8}},
		{8, []int{4, 4, 2}, []int{12, 12, 8}},
		{5, []int{5, 5}, []int{15, 11}},
	}
	for _, c := range cases {
		pb := adi.Problem{Eta: c.eta, Alpha: 0.3, Steps: 3}
		want := pb.InitialCondition()
		pb.SerialSolve(want)

		env := mustEnv(t, c.p, c.gamma, c.eta)
		got, res, err := RunADI(pb, env, testMachine(c.p))
		if err != nil {
			t.Fatalf("p=%d: %v", c.p, err)
		}
		if d := grid.MaxAbsDiff(want, got); d > 1e-9 {
			t.Errorf("p=%d γ=%v: strict ADI differs from serial by %g", c.p, c.gamma, d)
		}
		if res.Makespan <= 0 {
			t.Error("zero makespan")
		}
	}
}

func TestStrictBTMatchesSerial(t *testing.T) {
	p := 4
	gamma := []int{2, 2, 2}
	eta := []int{10, 10, 10}
	steps := 2
	want := nas.InitialState(eta)
	nas.BTSerialSolve(want, steps)

	env := mustEnv(t, p, gamma, eta)
	got, res, err := RunBT(env, testMachine(p), steps)
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want, got); d > 1e-8 {
		t.Errorf("strict BT differs from serial by %g", d)
	}
	if res.TotalBytes() == 0 {
		t.Error("strict BT moved no bytes")
	}
}

func TestStrictSPRejectsThinTiles(t *testing.T) {
	env := mustEnv(t, 8, []int{8, 8, 1}, []int{8, 8, 4}) // tiles 1 cell thick
	if _, _, err := RunSP(env, testMachine(8), 1); err == nil {
		t.Error("tiles thinner than the halo depth should be rejected")
	}
}

func TestStrictVersusSharedTrafficParity(t *testing.T) {
	// Strict mode moves real halo payloads; the shared-mode run models the
	// same byte counts. Carry bytes must agree exactly; total strict bytes
	// are at least the modeled ones (gather-to-root adds more).
	p := 4
	gamma := []int{2, 2, 2}
	eta := []int{12, 12, 12}
	env := mustEnv(t, p, gamma, eta)
	steps := 2

	u := nas.InitialState(eta)
	resShared, err := nas.Run(env, testMachine(p), steps, u)
	if err != nil {
		t.Fatal(err)
	}
	_, resStrict, err := RunSP(env, testMachine(p), steps)
	if err != nil {
		t.Fatal(err)
	}
	if resStrict.TotalBytes() < resShared.TotalBytes() {
		t.Errorf("strict bytes (%d) below shared-mode modeled bytes (%d)",
			resStrict.TotalBytes(), resShared.TotalBytes())
	}
	if math.Abs(resStrict.Makespan-resShared.Makespan) > 0.5*resShared.Makespan {
		t.Errorf("strict makespan %g wildly differs from shared %g", resStrict.Makespan, resShared.Makespan)
	}
}
