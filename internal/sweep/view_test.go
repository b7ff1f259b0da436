package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// viewSolvers are the kernels the view tests run: every specialized body
// (Recurrence, Tridiag, the pentadiagonal interior loops) and one bandwidth
// that runs the generic Banded loops on every row.
func viewSolvers() []BatchSolver {
	return []BatchSolver{Recurrence{}, Tridiag{}, NewPenta(), Banded{KL: 3, KU: 2}}
}

// paddedGrid is a row-major 3-D array of interior extents ext inside a halo
// of width h on every side, one flat slice per solver vec.
type paddedGrid struct {
	ext    [3]int
	h      int
	stride [3]int
	data   [][]float64
}

// newPaddedGrid fills every cell, halo included, with values no solve
// produces, so a kernel that strays off its lines shows up.
func newPaddedGrid(nv int, ext [3]int, h int, rng *rand.Rand) *paddedGrid {
	g := &paddedGrid{ext: ext, h: h}
	size := 1
	for i := 2; i >= 0; i-- {
		g.stride[i] = size
		size *= ext[i] + 2*h
	}
	g.data = make([][]float64, nv)
	for v := range g.data {
		g.data[v] = make([]float64, size)
		for i := range g.data[v] {
			g.data[v][i] = 1000 + rng.Float64()
		}
	}
	return g
}

// offset returns the storage offset of interior point c.
func (g *paddedGrid) offset(c [3]int) int {
	off := 0
	for i, x := range c {
		off += (g.h + x) * g.stride[i]
	}
	return off
}

func (g *paddedGrid) clone() *paddedGrid {
	c := *g
	c.data = cloneVecs(g.data)
	return &c
}

// viewCase is one run of checkViews: solver s over the lines along axis of
// a padded grid, nb lines per batch stepping along lineAxis, every line cut
// into chunks at cuts.
type viewCase struct {
	s              BatchSolver
	ext            [3]int
	h              int
	axis, lineAxis int
	nb             int
	cuts           []int
}

func (c viewCase) String() string {
	return fmt.Sprintf("%s ext %v halo %d axis %d lines along %d batch %d cuts %v",
		c.s.Name(), c.ext, c.h, c.axis, c.lineAxis, c.nb, c.cuts)
}

// solveChunks runs s over the chunks of one batch, forward left to right
// and backward right to left, threading line-major carries between chunks
// as a distributed sweep does, and returns every carry it produced in
// order.
func solveChunks(s BatchSolver, chunks, nb int, chunk func(c int) ([][]float64, View)) []float64 {
	var log, in []float64
	for c := 0; c < chunks; c++ {
		out := make([]float64, nb*s.ForwardCarryLen())
		panels, pv := chunk(c)
		s.ForwardBatch(panels, pv, in, out)
		log, in = append(log, out...), out
	}
	if s.BackwardCarryLen() == 0 {
		return log
	}
	in = nil
	for c := chunks - 1; c >= 0; c-- {
		out := make([]float64, nb*s.BackwardCarryLen())
		panels, pv := chunk(c)
		s.BackwardBatch(panels, pv, in, out)
		log, in = append(log, out...), out
	}
	return log
}

// checkViews fills the lines along c.axis of a padded grid with whole-line
// systems and solves them three ways: the scalar ChunkedSolve per line, the
// batched kernels on views straight into the grid (element k of line b of
// a batch at k·stride[axis] + b·stride[lineAxis]), and the batched kernels
// on packed panels gathered from a copy. It reports the first value or
// carry whose bits differ, and any halo cell a view run changed.
func checkViews(c viewCase, rng *rand.Rand) error {
	s := c.s
	nv := s.NumVecs()
	third := 3 - c.axis - c.lineAxis
	n := c.ext[c.axis]
	bounds := append(append([]int{0}, c.cuts...), n)
	chunks := len(bounds) - 1

	g := newPaddedGrid(nv, c.ext, c.h, rng)
	rs, ls := g.stride[c.axis], g.stride[c.lineAxis]
	lineBase := func(z, y int) int {
		var pt [3]int
		pt[third], pt[c.lineAxis] = z, y
		return g.offset(pt)
	}
	// scalar[z][y] is line (z, y) solved by the scalar oracle.
	scalar := make([][][][]float64, c.ext[third])
	for z := range scalar {
		scalar[z] = make([][][]float64, c.ext[c.lineAxis])
		for y := range scalar[z] {
			vecs := randomLine(s, n, rng)
			base := lineBase(z, y)
			for v := range vecs {
				for k, x := range vecs[v] {
					g.data[v][base+k*rs] = x
				}
			}
			ChunkedSolve(s, vecs, c.cuts)
			scalar[z][y] = vecs
		}
	}
	orig := g.clone()
	packed := g.clone()

	for z := 0; z < c.ext[third]; z++ {
		for y0 := 0; y0 < c.ext[c.lineAxis]; y0 += c.nb {
			nb := min(c.nb, c.ext[c.lineAxis]-y0)
			base := lineBase(z, y0)
			heads := make([][]float64, nv)
			viewLog := solveChunks(s, chunks, nb, func(ch int) ([][]float64, View) {
				lo, hi := bounds[ch], bounds[ch+1]
				for v := range heads {
					heads[v] = g.data[v][base+lo*rs:]
				}
				return heads, View{Lines: nb, Len: hi - lo, RowStride: rs, LineStride: ls}
			})

			panels := make([][][]float64, chunks)
			for ch := range panels {
				lo, hi := bounds[ch], bounds[ch+1]
				panels[ch] = make([][]float64, nv)
				for v := range panels[ch] {
					p := make([]float64, (hi-lo)*nb)
					for k := lo; k < hi; k++ {
						for b := 0; b < nb; b++ {
							p[(k-lo)*nb+b] = packed.data[v][base+k*rs+b*ls]
						}
					}
					panels[ch][v] = p
				}
			}
			packedLog := solveChunks(s, chunks, nb, func(ch int) ([][]float64, View) {
				return panels[ch], Packed(nb, bounds[ch+1]-bounds[ch])
			})
			for ch := range panels {
				lo, hi := bounds[ch], bounds[ch+1]
				for v, p := range panels[ch] {
					for k := lo; k < hi; k++ {
						for b := 0; b < nb; b++ {
							packed.data[v][base+k*rs+b*ls] = p[(k-lo)*nb+b]
						}
					}
				}
			}
			for i := range viewLog {
				if math.Float64bits(viewLog[i]) != math.Float64bits(packedLog[i]) {
					return fmt.Errorf("%v: lines %d… of row %d: carry value %d: view %v != packed %v",
						c, y0, z, i, viewLog[i], packedLog[i])
				}
			}
		}
	}

	onLine := make([]bool, len(g.data[0]))
	for z := range scalar {
		for y, vecs := range scalar[z] {
			base := lineBase(z, y)
			for k := 0; k < n; k++ {
				onLine[base+k*rs] = true
				for v := range vecs {
					got, want := g.data[v][base+k*rs], vecs[v][k]
					if math.Float64bits(got) != math.Float64bits(want) {
						return fmt.Errorf("%v: line (%d, %d) vec %d elem %d: view %v != scalar %v", c, z, y, v, k, got, want)
					}
				}
			}
		}
	}
	for v := range g.data {
		for i, got := range g.data[v] {
			if want := packed.data[v][i]; math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("%v: vec %d cell %d: view %v != packed %v", c, v, i, got, want)
			}
			if want := orig.data[v][i]; !onLine[i] && math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("%v: vec %d cell %d off every line changed from %v to %v", c, v, i, want, got)
			}
		}
	}
	return nil
}

// TestBatchViewsBitIdentity runs every kernel family on views of the lines
// along each axis of a padded 3-D grid, stepping along each other axis, at
// batch widths 1, 7 and 32, on whole lines and chunked with carries both
// ways: each value and carry must match the scalar pass and the packed
// panel bit for bit, and no halo cell may change.
func TestBatchViewsBitIdentity(t *testing.T) {
	ext := [3]int{33, 6, 34}
	rng := rand.New(rand.NewSource(41))
	for _, s := range viewSolvers() {
		for axis := 0; axis < 3; axis++ {
			n := ext[axis]
			for lineAxis := 0; lineAxis < 3; lineAxis++ {
				if lineAxis == axis {
					continue
				}
				for _, nb := range []int{1, 7, 32} {
					for _, cuts := range [][]int{nil, {n / 2}, {1, 2, n/2 + 1, n - 1}} {
						c := viewCase{s: s, ext: ext, h: 2, axis: axis, lineAxis: lineAxis, nb: nb, cuts: cuts}
						if err := checkViews(c, rng); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// FuzzBatchViews checks views against the scalar pass and the packed panel
// (checkViews) over fuzzed solvers, extents, halo widths, axes, batch
// widths and chunk cuts.
func FuzzBatchViews(f *testing.F) {
	f.Add(uint8(2), uint8(7), uint8(5), uint8(9), uint8(2), uint8(0), false, uint8(31), []byte{3, 4}, int64(1))
	f.Add(uint8(1), uint8(1), uint8(12), uint8(3), uint8(0), uint8(1), true, uint8(6), []byte{}, int64(2))
	f.Add(uint8(0), uint8(4), uint8(4), uint8(11), uint8(1), uint8(2), false, uint8(0), []byte{0, 1, 2, 9}, int64(3))
	f.Add(uint8(3), uint8(10), uint8(2), uint8(6), uint8(2), uint8(2), true, uint8(2), []byte{1, 5}, int64(4))
	f.Add(uint8(2), uint8(3), uint8(8), uint8(1), uint8(1), uint8(1), false, uint8(40), []byte{2}, int64(5))
	f.Fuzz(func(t *testing.T, solver, e0, e1, e2, halo, axis uint8, other bool, batch uint8, cutBytes []byte, seed int64) {
		c := viewCase{
			s:    viewSolvers()[int(solver)%len(viewSolvers())],
			ext:  [3]int{1 + int(e0)%12, 1 + int(e1)%12, 1 + int(e2)%12},
			h:    int(halo) % 3,
			axis: int(axis) % 3,
			nb:   1 + int(batch)%40,
		}
		c.lineAxis = (c.axis + 1) % 3
		if other {
			c.lineAxis = (c.axis + 2) % 3
		}
		n := c.ext[c.axis]
		if n < minLineLen(c.s) {
			return // bands must fit in the line
		}
		var cut [12]bool
		for i, x := range cutBytes {
			if i == 6 || n == 1 {
				break
			}
			cut[1+int(x)%(n-1)] = true
		}
		for k := 1; k < n; k++ {
			if cut[k] {
				c.cuts = append(c.cuts, k)
			}
		}
		if err := checkViews(c, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
	})
}
