// Package nas implements a structurally faithful reproduction of the NAS SP
// (Scalar Pentadiagonal) computational fluid dynamics benchmark — the
// application the paper uses to evaluate generalized multipartitioning
// (Table 1). Each timestep performs:
//
//  1. compute_rhs: an axis-aligned stencil (second difference plus
//     fourth-order dissipation, reach ±2) over the state u, producing rhs;
//  2. x_solve, y_solve, z_solve: scalar pentadiagonal line solves along
//     each dimension, in place on rhs — the line sweeps at the heart of the
//     ADI-style approximate factorization;
//  3. add: u += rhs.
//
// The physics is a synthetic diffusion-like operator with exactly the
// data-access pattern, dependence structure and communication requirements
// of the real SP (see DESIGN.md for the substitution rationale); the
// modeled flop weights per point are taken from the real benchmark's
// operation counts so computation/communication ratios are realistic.
//
// SP and its BT variant each have one per-rank body, RunSPRank and
// RunBTRank, which steps the compiled plan over the rank's private tiles
// (dist.Field) with data or model-only, priced as Table 1 prices a step.
// Every entry point runs it: Run, RunPlanned, BTRun, BTRunPlanned,
// Speedup and SerialTime here, and dmem's strict runs on either backend.
// The global-grid kernels (ComputeRHS, BuildLHS, Add, BuildBlockLHS)
// serve the serial references.
package nas

import (
	"genmp/internal/grid"
	"genmp/internal/sweep"
)

// Class is a NAS problem class.
type Class struct {
	Name  string
	Eta   []int
	Steps int // timesteps used in this reproduction's runs (scaled down)
}

// The standard SP classes (iteration counts reduced: speedup is a steady-
// state per-iteration property, and the virtual-time simulation is exact
// per iteration).
var (
	ClassS = Class{Name: "S", Eta: []int{12, 12, 12}, Steps: 4}
	ClassW = Class{Name: "W", Eta: []int{36, 36, 36}, Steps: 4}
	ClassA = Class{Name: "A", Eta: []int{64, 64, 64}, Steps: 4}
	ClassB = Class{Name: "B", Eta: []int{102, 102, 102}, Steps: 4}
)

// Modeled flop weights per grid point, patterned on the real SP operation
// mix (~880 flops per point per iteration in total).
const (
	FlopsRHS      = 334.0 // compute_rhs
	FlopsSolve    = 160.0 // each of x/y/z_solve (5 components × penta solve + lhs build)
	FlopsAdd      = 10.0  // add
	FlopsLHSBuild = 20.0  // building the pentadiagonal coefficients
)

// Stencil coefficients: 2nd-difference smoothing and 4th-order dissipation.
const (
	Nu2  = 0.05 // second-difference weight
	Eps4 = 0.01 // fourth-difference dissipation weight
)

// StencilTerm is one dimension's contribution to the RHS stencil given the
// five line values around the point.
func StencilTerm(um2, um1, u0, up1, up2 float64) float64 {
	return Nu2*(um1-2*u0+up1) - Eps4*(um2-4*um1+6*u0-4*up1+up2)
}

// Pentadiagonal solve coefficients (diagonally dominant).
const (
	pd1 = 0.05   // first off-diagonal magnitude
	pd2 = 0.0125 // second off-diagonal magnitude
)

// clampIdx clamps k into [0, n).
func clampIdx(k, n int) int {
	if k < 0 {
		return 0
	}
	if k >= n {
		return n - 1
	}
	return k
}

// ComputeRHS evaluates the stencil over region rect of u into rhs:
//
//	rhs = Σ_dims [ ν₂·δ²u − ε₄·δ⁴u ]
//
// with index clamping at the physical domain boundaries (reach ±2, so a
// distributed caller needs depth-2 halos).
func ComputeRHS(u, rhs *grid.Grid, rect grid.Rect) {
	shape := u.Shape()
	d := len(shape)
	ud := u.Data()
	rd := rhs.Data()
	idx := make([]int, d)
	// Walk the region line by line along the last dimension for locality.
	last := d - 1
	u.EachLine(rect, last, func(l grid.Line) {
		// Recover the orthogonal coordinates of this line.
		off := l.Base
		rem := off
		for i := 0; i < d; i++ {
			stride := 1
			for j := i + 1; j < d; j++ {
				stride *= shape[j]
			}
			idx[i] = rem / stride
			rem = rem % stride
		}
		for k := 0; k < l.N; k++ {
			acc := 0.0
			for dim := 0; dim < d; dim++ {
				stride := 1
				for j := dim + 1; j < d; j++ {
					stride *= shape[j]
				}
				c := idx[dim]
				n := shape[dim]
				at := func(delta int) float64 {
					cc := clampIdx(c+delta, n)
					return ud[off+(cc-c)*stride]
				}
				acc += StencilTerm(at(-2), at(-1), at(0), at(1), at(2))
			}
			rd[off] = acc
			off += l.Stride
			idx[last]++
		}
		idx[last] -= l.N
	})
}

// coeffScale is a cheap deterministic per-row variation so the
// pentadiagonal systems are not constant-coefficient (the real SP builds
// its lhs from the current state).
func coeffScale(globalIdx int) float64 {
	return 1 + float64((globalIdx*7)%13)/100
}

// BandRow returns the pentadiagonal coefficients at global row g (0-based)
// of a solve along dim over a line of length n: the two sub-diagonals
// (nearest first), the diagonal, and the two super-diagonals, with
// couplings that would reach outside the line zeroed. Exported so every
// execution mode assembles identical systems.
func BandRow(g, dim, n int) (l1, l2, d, u1, u2 float64) {
	s := coeffScale(g + dim)
	if g >= 1 {
		l1 = -pd1 * s
	}
	if g >= 2 {
		l2 = -pd2 * s
	}
	if g < n-1 {
		u1 = -pd1 * s
	}
	if g < n-2 {
		u2 = -pd2 * s
	}
	d = 1 + 2*pd1 + 2*pd2
	return
}

// BuildLHS writes the pentadiagonal coefficients for a solve along dim into
// the five band grids over region rect, zeroing couplings that would reach
// outside the domain. Band layout matches sweep.Banded{KL: 2, KU: 2}:
// vecs[0] multiplies x[k−1], vecs[1] x[k−2], vecs[2] is the diagonal,
// vecs[3] x[k+1], vecs[4] x[k+2].
func BuildLHS(dim int, rect grid.Rect, l1, l2, dg, u1, u2 *grid.Grid) {
	n := dg.Shape()[dim]
	l1d, l2d, dgd, u1d, u2d := l1.Data(), l2.Data(), dg.Data(), u1.Data(), u2.Data()
	start := rect.Lo[dim]
	dg.EachLine(rect, dim, func(l grid.Line) {
		off := l.Base
		for k := 0; k < l.N; k++ {
			l1d[off], l2d[off], dgd[off], u1d[off], u2d[off] = BandRow(start+k, dim, n)
			off += l.Stride
		}
	})
}

// Add performs u += rhs over rect.
func Add(u, rhs *grid.Grid, rect grid.Rect) {
	ud := u.Data()
	rd := rhs.Data()
	d := u.Dims()
	u.EachLine(rect, d-1, func(l grid.Line) {
		off := l.Base
		for k := 0; k < l.N; k++ {
			ud[off] += rd[off]
			off += l.Stride
		}
	})
}

// InitialState returns the deterministic initial u for the given extents.
func InitialState(eta []int) *grid.Grid {
	u := grid.New(eta...)
	u.FillFunc(InitialAt(eta))
	return u
}

// InitialAt returns InitialState's value at a global point, so a
// distributed run can fill its own tiles without building the whole grid.
func InitialAt(eta []int) func(idx []int) float64 {
	return func(idx []int) float64 {
		v := 1.0
		for i, x := range idx {
			v += float64((x+1)*(i+2)) / float64(eta[i]*(i+3))
		}
		return v
	}
}

// SerialSolve advances u in place by steps timesteps — the reference
// implementation (whole-line solves, no partitioning).
func SerialSolve(u *grid.Grid, steps int) {
	eta := u.Shape()
	rhs := grid.New(eta...)
	l1 := grid.New(eta...)
	l2 := grid.New(eta...)
	dg := grid.New(eta...)
	u1 := grid.New(eta...)
	u2 := grid.New(eta...)
	all := u.Bounds()
	solver := sweep.NewPenta()
	vecs := []*grid.Grid{l1, l2, dg, u1, u2, rhs}
	for s := 0; s < steps; s++ {
		ComputeRHS(u, rhs, all)
		for dim := range eta {
			BuildLHS(dim, all, l1, l2, dg, u1, u2)
			solveAllLines(solver, vecs, all, dim)
		}
		Add(u, rhs, all)
	}
}

func solveAllLines(solver sweep.Solver, vecs []*grid.Grid, rect grid.Rect, dim int) {
	n := vecs[0].Shape()[dim]
	chunk := make([][]float64, len(vecs))
	for v := range chunk {
		chunk[v] = make([]float64, n)
	}
	vecs[0].EachLine(rect, dim, func(l grid.Line) {
		for v, g := range vecs {
			g.Gather(l, chunk[v])
		}
		sweep.ChunkedSolve(solver, chunk, nil)
		for v, g := range vecs {
			g.Scatter(l, chunk[v])
		}
	})
}
