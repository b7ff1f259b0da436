// Package adi implements Alternating Direction Implicit (ADI) integration —
// the motivating application for multipartitioning (Johnsson et al.; Naik
// et al.; van der Wijngaart). Each timestep of the heat equation
// u_t = ∇²u is split into d one-dimensional implicit half-steps; the
// half-step along dimension i solves, for every grid line in that
// direction, the tridiagonal system
//
//	(1 + 2α)·u*[k] − α·u*[k−1] − α·u*[k+1] = u[k]
//
// with homogeneous Dirichlet boundaries. Those per-line solves are exactly
// the line sweeps whose parallelization the paper studies.
//
// The package provides a serial reference solver and a distributed runner
// over any of the three strategies of internal/dist: multipartitioning,
// static block with wavefront pipelining, and dynamic block with
// transposes. The multipartitioned strategy runs one per-rank body,
// Problem.RunRank, over the rank's private tiles (dist.Field), with data
// or model-only; dmem's strict runs call the same body on either backend.
// The block strategies run over dist.Block's shared grids.
package adi

import (
	"fmt"
	"math"

	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// Problem defines an ADI integration: domain extents, the diffusion number
// α = κ·Δt/Δx², and the number of timesteps. With Periodic set the domain
// wraps in every dimension and each half-step solves cyclic tridiagonal
// systems (Sherman–Morrison); periodic runs are whole-line (serial
// reference) — a multipartitioned cyclic sweep would need one extra
// end-to-end exchange per line, which this reproduction leaves as the same
// future work the paper's framework would.
type Problem struct {
	Eta      []int
	Alpha    float64
	Steps    int
	Periodic bool
}

// buildFlops is the modeled per-element cost of assembling one dimension's
// coefficients and right-hand side (a handful of stores and one copy).
const buildFlops = 4

// InitialCondition returns a smooth multi-frequency bump on the domain,
// deterministic in the extents: InitialAt at every point.
func (pb Problem) InitialCondition() *grid.Grid {
	u := grid.New(pb.Eta...)
	u.FillFunc(pb.InitialAt)
	return u
}

// InitialAt evaluates the initial condition at the global point idx, so a
// distributed run can fill its own tiles without building the whole grid.
func (pb Problem) InitialAt(idx []int) float64 {
	v := 1.0
	for i, x := range idx {
		v *= math.Sin(math.Pi * float64(x+1) / float64(pb.Eta[i]+1))
	}
	w := 1.0
	for i, x := range idx {
		w *= math.Sin(2 * math.Pi * float64(x+1) / float64(pb.Eta[i]+1))
	}
	return v + 0.25*w
}

// fillCoefficients writes the tridiagonal coefficients for a half-step
// along dim into lower/diag/upper and copies u into rhs, over the region
// rect.
func (pb Problem) fillCoefficients(dim int, rect grid.Rect, u, lower, diag, upper, rhs *grid.Grid) {
	a := pb.Alpha
	n := pb.Eta[dim]
	ud := u.Data()
	ld := lower.Data()
	dd := diag.Data()
	pd := upper.Data()
	rd := rhs.Data()
	// The interior coefficients are constants and rhs is a copy of u, so the
	// region can be walked along the innermost (stride-1) dimension whatever
	// dim the half-step solves: same values, contiguous stores.
	last := u.Dims() - 1
	u.EachLine(rect, last, func(l grid.Line) {
		if l.Stride == 1 {
			end := l.Base + l.N
			for off := l.Base; off < end; off++ {
				ld[off] = -a
				pd[off] = -a
				dd[off] = 1 + 2*a
			}
			copy(rd[l.Base:end], ud[l.Base:end])
			return
		}
		off := l.Base
		for k := 0; k < l.N; k++ {
			ld[off] = -a
			pd[off] = -a
			dd[off] = 1 + 2*a
			rd[off] = ud[off]
			off += l.Stride
		}
	})
	// At the physical boundaries: zero the out-of-domain couplings
	// (Dirichlet), or keep them as the wrap couplings of a cyclic system
	// (periodic — the solver interprets lower[0] and upper[n−1] as the
	// wrap-around entries).
	if pb.Periodic {
		return
	}
	// A face of rect across dim holds the first (low face) or last (high
	// face) element of each of rect's lines along dim.
	if rect.Lo[dim] == 0 {
		u.EachLine(rect, dim, func(l grid.Line) { ld[l.Base] = 0 })
	}
	if rect.Hi[dim] == n {
		u.EachLine(rect, dim, func(l grid.Line) { pd[l.Base+(l.N-1)*l.Stride] = 0 })
	}
}

// copySolution writes the solve result (left in rhs) back into u over rect.
// The copy is elementwise, so it walks stride-1 lines regardless of the
// sweep dimension.
func copySolution(rect grid.Rect, rhs, u *grid.Grid, dim int) {
	rd := rhs.Data()
	ud := u.Data()
	u.EachLine(rect, u.Dims()-1, func(l grid.Line) {
		if l.Stride == 1 {
			copy(ud[l.Base:l.Base+l.N], rd[l.Base:l.Base+l.N])
			return
		}
		off := l.Base
		for k := 0; k < l.N; k++ {
			ud[off] = rd[off]
			off += l.Stride
		}
	})
}

// SerialSolve advances u in place by pb.Steps timesteps with whole-line
// Thomas solves — the reference the distributed runs must match.
func (pb Problem) SerialSolve(u *grid.Grid) {
	lower := grid.New(pb.Eta...)
	diag := grid.New(pb.Eta...)
	upper := grid.New(pb.Eta...)
	rhs := grid.New(pb.Eta...)
	vecs := []*grid.Grid{lower, diag, upper, rhs}
	all := u.Bounds()
	for step := 0; step < pb.Steps; step++ {
		for dim := range pb.Eta {
			pb.fillCoefficients(dim, all, u, lower, diag, upper, rhs)
			solveAllLines(vecs, all, dim, pb.Periodic)
			copySolution(all, rhs, u, dim)
		}
	}
}

func solveAllLines(vecs []*grid.Grid, rect grid.Rect, dim int, periodic bool) {
	n := vecs[0].Shape()[dim]
	chunk := make([][]float64, len(vecs))
	for v := range chunk {
		chunk[v] = make([]float64, n)
	}
	vecs[0].EachLine(rect, dim, func(l grid.Line) {
		for v, g := range vecs {
			g.Gather(l, chunk[v])
		}
		if periodic {
			x := sweep.SolvePeriodicTridiagonal(chunk[0], chunk[1], chunk[2], chunk[3])
			copy(chunk[3], x)
		} else {
			sweep.ChunkedSolve(sweep.Tridiag{}, chunk, nil)
		}
		for v, g := range vecs {
			g.Scatter(l, chunk[v])
		}
	})
}

// Strategy selects the parallelization of the distributed run.
type Strategy int

const (
	// Multipartition uses the paper's multipartitioned sweeps.
	Multipartition Strategy = iota
	// BlockWavefront uses a static block unipartitioning with pipelined
	// wavefront sweeps along the partitioned dimension.
	BlockWavefront
	// BlockTranspose uses a dynamic block partitioning with transposes.
	BlockTranspose
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Multipartition:
		return "multipartition"
	case BlockWavefront:
		return "block-wavefront"
	case BlockTranspose:
		return "block-transpose"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Config describes a distributed ADI run.
type Config struct {
	Machine  *sim.Machine
	Strategy Strategy
	// Env is required for Multipartition.
	Env *dist.Env
	// Block is required for the block strategies.
	Block *dist.Block
	// Grain is the wavefront message granularity in lines (BlockWavefront).
	Grain int
	// Overlap compiles the sweep schedule with the boundary-first overlap
	// annotation (plan.Overlap): split phases solve their boundary lines
	// first and post the carry while the interior computes. Applies to
	// Multipartition and BlockWavefront; the solution is bit-identical
	// either way.
	Overlap plan.Overlap
}

// Run advances u by pb.Steps distributed timesteps and returns the
// simulation result. In data mode the final u matches SerialSolve exactly
// (same arithmetic, same order within each line). A nil u runs model-only:
// no data moves, only virtual time and communication volumes are produced.
func Run(pb Problem, u *grid.Grid, cfg Config) (sim.Result, error) {
	if pb.Periodic {
		return sim.Result{}, fmt.Errorf("adi: periodic boundaries are whole-line only (use SerialSolve); a distributed cyclic sweep needs an end-to-end correction exchange this runtime does not implement")
	}
	switch cfg.Strategy {
	case Multipartition:
		if cfg.Env == nil {
			return sim.Result{}, fmt.Errorf("adi: Multipartition strategy needs Env")
		}
		return runMulti(pb, u, cfg)
	case BlockWavefront, BlockTranspose:
		if cfg.Block == nil {
			return sim.Result{}, fmt.Errorf("adi: block strategies need Block")
		}
		return runBlock(pb, u, cfg)
	}
	return sim.Result{}, fmt.Errorf("adi: unknown strategy %v", cfg.Strategy)
}

func runMulti(pb Problem, u *grid.Grid, cfg Config) (sim.Result, error) {
	pl, err := dist.CompileSweepPlanOverlap(cfg.Env, sweep.Tridiag{}, cfg.Overlap)
	if err != nil {
		return sim.Result{}, err
	}
	if u == nil {
		return cfg.Machine.Run(func(r *sim.Rank) { pb.RunRank(r, cfg.Env, pl, nil) })
	}
	return cfg.Machine.Run(func(r *sim.Rank) {
		pb.RunRank(r, cfg.Env, pl, func(f *dist.Field) { f.Load(u) }).Store(u)
	})
}

// RunRank runs one rank's share of a multipartitioned ADI run on t:
// pb.Steps timesteps of the compiled plan pl over the rank's private
// tiles, each half-step labeled sweep<dim>. init fills the rank's u field;
// nil runs model-only, with no grids. Every multipartitioned entry point
// runs this body: Run with Multipartition, and dmem's strict runs on
// either backend. It returns the rank's final u.
func (pb Problem) RunRank(t xport.Transport, env *dist.Env, pl *plan.SweepPlan, init func(*dist.Field)) *dist.Field {
	newField := dist.NewModelField
	if init != nil {
		newField = dist.NewField
	}
	u := newField(env, t.Rank(), 0)
	vecs := make([]*dist.Field, 4) // lower, diag, upper, rhs
	for v := range vecs {
		vecs[v] = newField(env, t.Rank(), 0)
	}
	runner := dist.NewSweepRunner(sweep.Tridiag{}, vecs)
	runner.Plan = pl
	if init != nil {
		init(u)
	}
	labels := make([]string, len(pb.Eta))
	for dim := range labels {
		labels[dim] = fmt.Sprintf("sweep%d", dim)
	}
	for step := 0; step < pb.Steps; step++ {
		for dim := range pb.Eta {
			t.BeginPhase(labels[dim])
			// A model field stores no tiles, so the data loops are empty in
			// a model-only run. With data, u and the vecs are unpadded, so
			// the copy back is a straight copy.
			pb.fillTiles(dim, u, vecs)
			u.Charge(t, buildFlops)
			runner.Run(t, dim)
			for i := 0; i < u.NumTiles(); i++ {
				copy(u.TileGrid(i).Data(), vecs[3].TileGrid(i).Data())
			}
			u.Charge(t, 1)
		}
	}
	return u
}

// fillTiles assembles one half-step's coefficients along dim over every
// owned tile, with fillCoefficients' values: the unpadded tiles share one
// row-major layout, so the interior is a straight fill and copy, and the
// couplings that leave the domain are zeroed on the tile's first and last
// planes along dim. It allocates nothing.
func (pb Problem) fillTiles(dim int, u *dist.Field, vecs []*dist.Field) {
	a := pb.Alpha
	for i := 0; i < u.NumTiles(); i++ {
		ld, dd, pd := vecs[0].TileGrid(i).Data(), vecs[1].TileGrid(i).Data(), vecs[2].TileGrid(i).Data()
		for k := range ld {
			ld[k], dd[k], pd[k] = -a, 1+2*a, -a
		}
		copy(vecs[3].TileGrid(i).Data(), u.TileGrid(i).Data())
		b := u.GlobalBounds(i)
		first, last := b.Lo[dim] == 0, b.Hi[dim] == pb.Eta[dim]
		if !first && !last {
			continue
		}
		// In the row-major tile the n planes along dim repeat in blocks of
		// n·plane elements: the first plane's elements open each block,
		// the last plane's close it.
		n, plane := b.Hi[dim]-b.Lo[dim], 1
		for j := dim + 1; j < len(b.Lo); j++ {
			plane *= b.Hi[j] - b.Lo[j]
		}
		for base := 0; base < len(ld); base += n * plane {
			if first {
				clear(ld[base : base+plane])
			}
			if last {
				end := base + n*plane
				clear(pd[end-plane : end])
			}
		}
	}
}

func runBlock(pb Problem, u *grid.Grid, cfg Config) (sim.Result, error) {
	b := cfg.Block
	// Every run takes its overlap from its own Config: a Block reused after
	// an overlap-on run must not keep running split.
	b.Overlap = cfg.Overlap
	var vecs []*grid.Grid
	if u != nil {
		vecs = []*grid.Grid{grid.New(pb.Eta...), grid.New(pb.Eta...), grid.New(pb.Eta...), grid.New(pb.Eta...)}
	}
	grain := cfg.Grain
	if grain < 1 {
		grain = 64
	}
	return cfg.Machine.Run(func(r *sim.Rank) {
		for step := 0; step < pb.Steps; step++ {
			for dim := range pb.Eta {
				fill := func(rect grid.Rect) {
					pb.fillCoefficients(dim, rect, u, vecs[0], vecs[1], vecs[2], vecs[3])
				}
				copyBack := func(rect grid.Rect) {
					copySolution(rect, vecs[3], u, dim)
				}
				if u == nil {
					fill, copyBack = nil, nil
				}
				b.ComputeOnSlab(r, buildFlops, fill)
				switch {
				case dim != b.Dim:
					b.LocalSweep(r, dim, sweep.Tridiag{}, vecs)
				case cfg.Strategy == BlockWavefront:
					b.WavefrontSweep(r, sweep.Tridiag{}, vecs, grain)
				default:
					b.TransposeSweep(r, sweep.Tridiag{}, vecs)
				}
				b.ComputeOnSlab(r, 1, copyBack)
			}
		}
	})
}
