package nas

import (
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// StencilReach is the reach of the RHS stencil: a data run exchanges halos
// this deep, so every cut dimension's tiles must be at least this thick
// (see dist.Env.CheckHalo).
const StencilReach = 2

// haloDepth is the halo width a run of u exchanges: the stencil's full
// reach with data. A model-only run prices dHPF's partial replication
// (DESIGN.md §15): it recomputes ReplicationDepth shells locally, charged
// by its model fields, and exchanges only max(1, reach − R).
func haloDepth(env *dist.Env, data bool) int {
	if data {
		return StencilReach
	}
	return max(1, StencilReach-env.Overhead.ReplicationDepth)
}

// rankState is one rank's storage for an SP or BT run: u with its halo
// shell, the solver's vectors, the runner that sweeps them over the
// compiled plan and, with data, the step loops' scratch. Model-only, the
// fields hold no grids and sc is nil.
type rankState struct {
	u      *dist.Field
	vecs   []*dist.Field
	runner *dist.SweepRunner
	sc     *stepScratch
	// solve[dim] is the phase label of the sweep along dim.
	solve []string
}

// newRankState builds the calling rank's storage and, when init is
// non-nil, fills u with it.
func newRankState(t xport.Transport, env *dist.Env, pl *plan.SweepPlan, solver sweep.Solver, init func(*dist.Field)) *rankState {
	newField := dist.NewModelField
	if init != nil {
		newField = dist.NewField
	}
	s := &rankState{
		u:     newField(env, t.Rank(), haloDepth(env, init != nil)),
		vecs:  make([]*dist.Field, solver.NumVecs()),
		solve: make([]string, len(env.Eta)),
	}
	for v := range s.vecs {
		// A model field holds no storage, so one serves every vector.
		if v > 0 && init == nil {
			s.vecs[v] = s.vecs[0]
			continue
		}
		s.vecs[v] = newField(env, t.Rank(), 0)
	}
	for dim := range s.solve {
		s.solve[dim] = PhaseSolve(dim)
	}
	s.runner = dist.NewSweepRunner(solver, s.vecs)
	s.runner.Plan = pl
	if init != nil {
		init(s.u)
		s.sc = newStepScratch(s.u, s.vecs[0])
	}
	return s
}

// stepScratch is one rank's reusable state for the SP and BT step loops,
// built once per run so the loops enumerate no lines and allocate nothing
// per step.
type stepScratch struct {
	// uRows[i] and fRows[i] are local tile i's last-axis rows of the
	// padded u and of the unpadded fields (rhs and the solve vectors share
	// one geometry).
	uRows, fRows [][]grid.Line
	// uStrides[i] are the strides of tile i's padded u grid.
	uStrides [][]int
	// global is computeRHS's coordinate scratch.
	global []int
	// band is buildLHS's table: per band, BandRow's value at each position
	// along the solve dimension; grown on first use.
	band []float64
}

// newStepScratch builds the scratch of the rank owning u and f, where f is
// any of the rank's unpadded fields.
func newStepScratch(u, f *dist.Field) *stepScratch {
	d := len(u.Env.Eta)
	sc := &stepScratch{
		uRows: make([][]grid.Line, u.NumTiles()), fRows: make([][]grid.Line, f.NumTiles()),
		uStrides: make([][]int, u.NumTiles()), global: make([]int, d),
	}
	for i := range sc.uRows {
		ug := u.TileGrid(i)
		sc.uRows[i] = ug.AppendLines(u.InteriorRect(i), d-1, nil)
		sc.fRows[i] = f.TileGrid(i).AppendLines(f.InteriorRect(i), d-1, nil)
		shape := ug.Shape()
		stride := make([]int, d)
		s := 1
		for k := d - 1; k >= 0; k-- {
			stride[k] = s
			s *= shape[k]
		}
		sc.uStrides[i] = stride
	}
	return sc
}

// computeRHS evaluates the SP stencil over every owned tile reading only
// the rank's private padded storage. A point at least StencilReach from
// every domain face reads its neighbors at fixed offsets o ± s and o ± 2s
// for each of the tile's strides s (halo cells included), with no clamp;
// the points of a last-axis row next to a face take clampedPoint, whose
// reads clamp exactly as the serial ComputeRHS does. Both sum the
// dimensions' StencilTerms in dimension order from 0, so they agree bit
// for bit wherever the clamp is the identity.
func computeRHS(u, rhs *dist.Field, sc *stepScratch) {
	env := u.Env
	d := len(env.Eta)
	last := d - 1
	global := sc.global
	for i := 0; i < u.NumTiles(); i++ {
		ud := u.TileGrid(i).Data()
		rd := rhs.TileGrid(i).Data()
		uStride := sc.uStrides[i]
		// Walk u's interior and rhs's interior in lockstep (same shape,
		// different padding).
		rhsLines := sc.fRows[i]
		for li, l := range sc.uRows[i] {
			rl := rhsLines[li]
			u.LocalToGlobal(i, l.Base, global)
			// Points [lo, hi) of the row lie at least StencilReach from
			// every face: along the row's own axis by position, along the
			// others only if the whole row does.
			g0 := global[last]
			lo := max(StencilReach-g0, 0)
			hi := min(env.Eta[last]-StencilReach-g0, l.N)
			for dim := 0; dim < last; dim++ {
				if g := global[dim]; g < StencilReach || g >= env.Eta[dim]-StencilReach {
					hi = lo
				}
			}
			hi = max(hi, lo)
			for k := 0; k < lo; k++ {
				global[last] = g0 + k
				rd[rl.Base+k*rl.Stride] = clampedPoint(ud, l.Base+k*l.Stride, global, env.Eta, uStride)
			}
			for k := lo; k < hi; k++ {
				o := l.Base + k*l.Stride
				acc := 0.0
				for _, s := range uStride {
					acc += StencilTerm(ud[o-2*s], ud[o-s], ud[o], ud[o+s], ud[o+2*s])
				}
				rd[rl.Base+k*rl.Stride] = acc
			}
			for k := hi; k < l.N; k++ {
				global[last] = g0 + k
				rd[rl.Base+k*rl.Stride] = clampedPoint(ud, l.Base+k*l.Stride, global, env.Eta, uStride)
			}
		}
	}
}

// clampedPoint evaluates the stencil at the point of padded storage offset
// o and global coordinates g, clamping each read into the domain.
func clampedPoint(ud []float64, o int, g, eta, uStride []int) float64 {
	acc := 0.0
	for dim, c := range g {
		n := eta[dim]
		at := func(delta int) float64 {
			cc := c + delta
			if cc < 0 {
				cc = 0
			}
			if cc >= n {
				cc = n - 1
			}
			return ud[o+(cc-c)*uStride[dim]]
		}
		acc += StencilTerm(at(-2), at(-1), at(0), at(1), at(2))
	}
	return acc
}

// buildLHS assembles the pentadiagonal bands along dim over every owned
// tile from the global row formula (identical to BuildLHS). The
// coefficients depend only on the position along dim, so each tile
// evaluates BandRow once per position into the rank's band table, then
// writes the five band fields in storage order, one last-axis row at a
// time: a copy of the table when dim is the last axis, a constant fill
// otherwise.
func buildLHS(dim, n int, vecs []*dist.Field, sc *stepScratch) {
	last := len(vecs[0].Env.Eta) - 1
	for i := 0; i < vecs[0].NumTiles(); i++ {
		b := vecs[0].GlobalBounds(i)
		ext := b.Hi[dim] - b.Lo[dim]
		if len(sc.band) < 5*ext {
			sc.band = make([]float64, 5*ext)
		}
		band := sc.band[:5*ext]
		for k := 0; k < ext; k++ {
			band[k], band[ext+k], band[2*ext+k], band[3*ext+k], band[4*ext+k] = BandRow(b.Lo[dim]+k, dim, n)
		}
		// The rows run over the other dimensions in row-major order, so
		// the position along dim < last advances every inner rows.
		inner := 1
		for j := dim + 1; j < last; j++ {
			inner *= b.Hi[j] - b.Lo[j]
		}
		for v := 0; v < 5; v++ {
			tab := band[v*ext : (v+1)*ext]
			data := vecs[v].TileGrid(i).Data()
			for r, l := range sc.fRows[i] {
				row := data[l.Base : l.Base+l.N]
				if dim == last {
					copy(row, tab)
					continue
				}
				c := tab[r/inner%ext]
				for x := range row {
					row[x] = c
				}
			}
		}
	}
}

// addTiles folds rhs into u over every owned tile (different paddings).
func addTiles(u, rhs *dist.Field, sc *stepScratch) {
	for i := 0; i < u.NumTiles(); i++ {
		ud := u.TileGrid(i).Data()
		rd := rhs.TileGrid(i).Data()
		rhsLines := sc.fRows[i]
		for li, l := range sc.uRows[i] {
			rl := rhsLines[li]
			uOff, rOff := l.Base, rl.Base
			for k := 0; k < l.N; k++ {
				ud[uOff] += rd[rOff]
				uOff += l.Stride
				rOff += rl.Stride
			}
		}
	}
}

// sumSquares returns Σ v² over f's owned tiles (0 for a model field).
func sumSquares(f *dist.Field, sc *stepScratch) float64 {
	s := 0.0
	for i := 0; i < f.NumTiles(); i++ {
		data := f.TileGrid(i).Data()
		for _, l := range sc.fRows[i] {
			for _, v := range data[l.Base : l.Base+l.N] {
				s += v * v
			}
		}
	}
	return s
}

// scatterBTRHS copies the scalar stencil output into the B solution
// components with the same scaling as btScatterRHS.
func scatterBTRHS(rhs *dist.Field, fvecs []*dist.Field) {
	for i := 0; i < rhs.NumTiles(); i++ {
		src := rhs.TileGrid(i).Data()
		for c, f := range fvecs {
			dst := f.TileGrid(i).Data()
			scale := 1 + 0.1*float64(c)
			for k, v := range src {
				dst[k] = v * scale
			}
		}
	}
}

// buildBlockLHSTiles assembles the block coefficients along dim over every
// owned tile with BuildBlockLHS's arithmetic.
func buildBlockLHSTiles(dim, n int, vecs []*dist.Field) {
	data := make([][]float64, len(vecs))
	f := vecs[0]
	for i := 0; i < f.NumTiles(); i++ {
		for v := range data {
			data[v] = vecs[v].TileGrid(i).Data()
		}
		buildBlockLHS(dim, n, f.GlobalBounds(i).Lo[dim], f.TileGrid(i), f.InteriorRect(i), data)
	}
}
