package main

// The SP and ADI step bodies of internal/dmem, rebuilt from its public calls
// so the traced pass can time each layer from outside the program. The
// driver loops (SP rhs, lhs and add; ADI fill and copy) are unexported in
// dmem and are ported here line for line. The benchmark fails unless the
// port's fields are Float64bits-identical to dmem.RunSPReal and
// dmem.RunADIReal. Once rt records its own spans the port can go.

import (
	"genmp/internal/adi"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/numutil"
	"genmp/internal/plan"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// spHaloDepth is the stencil reach of the SP pseudo-application.
const spHaloDepth = 2

// tracedBody is one rank's body of a traced op; rank 0 writes the gathered
// field to *out.
type tracedBody func(t *tracedTransport, out **grid.Grid)

// spBody is dmem's SP rank body with a span around every layer call.
func spBody(env *dist.Env, pl *plan.SweepPlan, steps int) tracedBody {
	return func(t *tracedTransport, out **grid.Grid) {
		solver := sweep.NewPenta()
		var u, rhs *dmem.Field
		var vecs []*dmem.Field
		var runner *dmem.SweepRunner
		t.rec.do("dmem.fields", func() {
			u = dmem.NewField(env, t.Rank(), spHaloDepth)
			u.FillFunc(spInitial(env.Eta))
			vecs = make([]*dmem.Field, solver.NumVecs())
			for v := range vecs {
				vecs[v] = dmem.NewField(env, t.Rank(), 0)
			}
			rhs = vecs[5]
			runner = dmem.NewSweepRunner(solver, vecs)
			runner.Plan = pl
		})
		for step := 0; step < steps; step++ {
			t.rec.do("redist.halo", func() { u.ExchangeHalosPiped(t, nil) })
			t.rec.do("dmem.rhs", func() { portRHS(u, rhs) })
			for dim := range env.Eta {
				t.rec.do("dmem.lhs", func() { portLHS(dim, env.Eta[dim], vecs) })
				t.rec.do("sweep.solve", func() { runner.Run(t, dim) })
			}
			t.rec.do("dmem.add", func() { portAdd(u, rhs) })
		}
		gather(t, u, out)
	}
}

// adiBody is dmem's ADI rank body with a span around every layer call.
func adiBody(pb adi.Problem, env *dist.Env, pl *plan.SweepPlan) tracedBody {
	return func(t *tracedTransport, out **grid.Grid) {
		solver := sweep.Tridiag{}
		var u *dmem.Field
		var vecs []*dmem.Field
		var runner *dmem.SweepRunner
		t.rec.do("dmem.fields", func() {
			u = dmem.NewField(env, t.Rank(), 0)
			init := pb.InitialCondition()
			u.FillFunc(func(g []int) float64 { return init.At(g...) })
			vecs = make([]*dmem.Field, solver.NumVecs())
			for v := range vecs {
				vecs[v] = dmem.NewField(env, t.Rank(), 0)
			}
			runner = dmem.NewSweepRunner(solver, vecs)
			runner.Plan = pl
		})
		for step := 0; step < pb.Steps; step++ {
			for dim := range pb.Eta {
				t.rec.do("dmem.fill", func() { portFillADI(pb, dim, u, vecs) })
				t.rec.do("sweep.solve", func() { runner.Run(t, dim) })
				t.rec.do("dmem.copy", func() { portCopy(vecs[3], u) })
			}
		}
		gather(t, u, out)
	}
}

func gather(t *tracedTransport, u *dmem.Field, out **grid.Grid) {
	t.rec.do("dmem.gather", func() {
		if g := dmem.GatherToRoot(t, u, xport.AlgAuto); g != nil {
			*out = g
		}
	})
}

// spInitial evaluates nas.InitialState's formula pointwise.
func spInitial(eta []int) func(global []int) float64 {
	return func(idx []int) float64 {
		v := 1.0
		for i, x := range idx {
			v += float64((x+1)*(i+2)) / float64(eta[i]*(i+3))
		}
		return v
	}
}

// localToGlobal converts a storage offset of f's local tile i, whose padded
// shape is shape, into global coordinates.
func localToGlobal(f *dmem.Field, i int, shape []int, offset int, dst []int) {
	numutil.CoordOf(offset, shape, dst)
	lo := f.GlobalBounds(i).Lo
	for k := range dst {
		dst[k] = dst[k] - f.Depth + lo[k]
	}
}

// portRHS evaluates the SP stencil over every owned tile from the rank's
// padded storage, clamping at the domain boundary like nas.ComputeRHS.
func portRHS(u, rhs *dmem.Field) {
	env := u.Env
	d := len(env.Eta)
	for i := 0; i < u.NumTiles(); i++ {
		ug := u.TileGrid(i)
		rg := rhs.TileGrid(i)
		ud := ug.Data()
		rd := rg.Data()
		uShape := ug.Shape()
		uStride := make([]int, d)
		s := 1
		for k := d - 1; k >= 0; k-- {
			uStride[k] = s
			s *= uShape[k]
		}
		global := make([]int, d)
		rhsLines := rg.AppendLines(rhs.InteriorRect(i), d-1, nil)
		li := 0
		ug.EachLine(u.InteriorRect(i), d-1, func(l grid.Line) {
			rl := rhsLines[li]
			li++
			localToGlobal(u, i, uShape, l.Base, global)
			uOff := l.Base
			rOff := rl.Base
			for k := 0; k < l.N; k++ {
				acc := 0.0
				for dim := 0; dim < d; dim++ {
					g := global[dim]
					n := env.Eta[dim]
					at := func(delta int) float64 {
						cc := g + delta
						if cc < 0 {
							cc = 0
						}
						if cc >= n {
							cc = n - 1
						}
						return ud[uOff+(cc-g)*uStride[dim]]
					}
					acc += nas.StencilTerm(at(-2), at(-1), at(0), at(1), at(2))
				}
				rd[rOff] = acc
				uOff += l.Stride
				rOff += rl.Stride
				global[d-1]++
			}
			global[d-1] -= l.N
		})
	}
}

// portLHS assembles the pentadiagonal bands over every owned tile from the
// global row formula (nas.BandRow).
func portLHS(dim, n int, vecs []*dmem.Field) {
	f := vecs[0]
	for i := 0; i < f.NumTiles(); i++ {
		start := f.GlobalBounds(i).Lo[dim]
		data := make([][]float64, 5)
		for v := range data {
			data[v] = vecs[v].TileGrid(i).Data()
		}
		f.TileGrid(i).EachLine(f.InteriorRect(i), dim, func(l grid.Line) {
			off := l.Base
			for k := 0; k < l.N; k++ {
				l1, l2, dg, u1, u2 := nas.BandRow(start+k, dim, n)
				data[0][off] = l1
				data[1][off] = l2
				data[2][off] = dg
				data[3][off] = u1
				data[4][off] = u2
				off += l.Stride
			}
		})
	}
}

// portAdd folds rhs into u over every owned tile (different paddings).
func portAdd(u, rhs *dmem.Field) {
	d := len(u.Env.Eta)
	for i := 0; i < u.NumTiles(); i++ {
		ud := u.TileGrid(i).Data()
		rg := rhs.TileGrid(i)
		rd := rg.Data()
		rhsLines := rg.AppendLines(rhs.InteriorRect(i), d-1, nil)
		li := 0
		u.TileGrid(i).EachLine(u.InteriorRect(i), d-1, func(l grid.Line) {
			rl := rhsLines[li]
			li++
			uOff, rOff := l.Base, rl.Base
			for k := 0; k < l.N; k++ {
				ud[uOff] += rd[rOff]
				uOff += l.Stride
				rOff += rl.Stride
			}
		})
	}
}

// portFillADI assembles one ADI half-step's coefficients over every owned
// tile: lower = upper = −α (zero at the physical boundary), diag = 1+2α,
// rhs = u.
func portFillADI(pb adi.Problem, dim int, u *dmem.Field, vecs []*dmem.Field) {
	a := pb.Alpha
	n := pb.Eta[dim]
	for i := 0; i < u.NumTiles(); i++ {
		start := u.GlobalBounds(i).Lo[dim]
		data := make([][]float64, 4)
		for v := range data {
			data[v] = vecs[v].TileGrid(i).Data()
		}
		ud := u.TileGrid(i).Data()
		vecs[0].TileGrid(i).EachLine(vecs[0].InteriorRect(i), dim, func(l grid.Line) {
			off := l.Base
			for k := 0; k < l.N; k++ {
				g := start + k
				if g == 0 {
					data[0][off] = 0
				} else {
					data[0][off] = -a
				}
				data[1][off] = 1 + 2*a
				if g == n-1 {
					data[2][off] = 0
				} else {
					data[2][off] = -a
				}
				data[3][off] = ud[off] // u has depth 0: same layout
				off += l.Stride
			}
		})
	}
}

// portCopy copies src interiors into dst interiors (same depth-0 layout).
func portCopy(src, dst *dmem.Field) {
	for i := 0; i < src.NumTiles(); i++ {
		copy(dst.TileGrid(i).Data(), src.TileGrid(i).Data())
	}
}
