// Package grid provides dense n-dimensional float64 arrays with strided
// storage, the data substrate for the line-sweep computations: tile
// extraction and injection, face (hyperplane) extraction, line iteration
// along any axis, and transposes. Row-major layout: the last index varies
// fastest.
package grid

import (
	"fmt"
	"math"

	"genmp/internal/numutil"
)

// Grid is a dense n-dimensional array of float64.
type Grid struct {
	shape  []int
	stride []int
	data   []float64
}

// New allocates a zeroed grid of the given extents (all ≥ 1).
func New(shape ...int) *Grid {
	if len(shape) == 0 {
		panic("grid: New needs at least one dimension")
	}
	for i, s := range shape {
		if s < 1 {
			panic(fmt.Sprintf("grid: extent[%d] = %d must be ≥ 1", i, s))
		}
	}
	g := &Grid{
		shape:  numutil.CopyInts(shape),
		stride: make([]int, len(shape)),
	}
	n := 1
	for i := len(shape) - 1; i >= 0; i-- {
		g.stride[i] = n
		n *= shape[i]
	}
	g.data = make([]float64, n)
	return g
}

// FromData wraps existing row-major data (not copied). len(data) must equal
// the product of the extents.
func FromData(data []float64, shape ...int) *Grid {
	g := New(shape...)
	if len(data) != len(g.data) {
		panic(fmt.Sprintf("grid: FromData: %d values for shape %v (need %d)", len(data), shape, len(g.data)))
	}
	g.data = data
	return g
}

// Shape returns the extents (a copy).
func (g *Grid) Shape() []int { return numutil.CopyInts(g.shape) }

// Dims returns the number of dimensions.
func (g *Grid) Dims() int { return len(g.shape) }

// Size returns the total element count.
func (g *Grid) Size() int { return len(g.data) }

// Data returns the underlying row-major storage (shared, not a copy).
func (g *Grid) Data() []float64 { return g.data }

// Offset returns the storage index of the element at idx.
func (g *Grid) Offset(idx ...int) int {
	if len(idx) != len(g.shape) {
		panic(fmt.Sprintf("grid: Offset: %d indices for %d-D grid", len(idx), len(g.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= g.shape[i] {
			panic(fmt.Sprintf("grid: index[%d] = %d out of range [0,%d)", i, x, g.shape[i]))
		}
		off += x * g.stride[i]
	}
	return off
}

// At returns the element at idx.
func (g *Grid) At(idx ...int) float64 { return g.data[g.Offset(idx...)] }

// Set stores v at idx.
func (g *Grid) Set(v float64, idx ...int) { g.data[g.Offset(idx...)] = v }

// Fill sets every element to v.
func (g *Grid) Fill(v float64) {
	for i := range g.data {
		g.data[i] = v
	}
}

// FillFunc sets every element to f(coordinates). The coordinate slice is
// reused between calls.
func (g *Grid) FillFunc(f func(idx []int) float64) {
	idx := make([]int, len(g.shape))
	for off := range g.data {
		numutil.CoordOf(off, g.shape, idx)
		g.data[off] = f(idx)
	}
}

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	c := New(g.shape...)
	copy(c.data, g.data)
	return c
}

// CopyFrom copies src's contents into g; shapes must match exactly.
func (g *Grid) CopyFrom(src *Grid) {
	if !numutil.EqualInts(g.shape, src.shape) {
		panic(fmt.Sprintf("grid: CopyFrom shape mismatch: %v vs %v", g.shape, src.shape))
	}
	copy(g.data, src.data)
}

// Rect is a hyper-rectangular region: the half-open intervals [Lo[i], Hi[i]).
type Rect struct {
	Lo, Hi []int
}

// RectOf builds a Rect; the slices are used as-is.
func RectOf(lo, hi []int) Rect { return Rect{Lo: lo, Hi: hi} }

// Shape returns the extents Hi−Lo of the region.
func (r Rect) Shape() []int {
	s := make([]int, len(r.Lo))
	for i := range s {
		s[i] = r.Hi[i] - r.Lo[i]
	}
	return s
}

// Size returns the element count of the region.
func (r Rect) Size() int {
	n := 1
	for i := range r.Lo {
		n *= r.Hi[i] - r.Lo[i]
	}
	return n
}

func (g *Grid) checkRect(r Rect) {
	if len(r.Lo) != len(g.shape) || len(r.Hi) != len(g.shape) {
		panic("grid: region rank mismatch")
	}
	for i := range r.Lo {
		if r.Lo[i] < 0 || r.Hi[i] > g.shape[i] || r.Lo[i] >= r.Hi[i] {
			panic(fmt.Sprintf("grid: region [%v,%v) invalid for shape %v", r.Lo, r.Hi, g.shape))
		}
	}
}

// Extract copies the region r of g into a freshly packed buffer (row-major
// within the region).
func (g *Grid) Extract(r Rect) []float64 {
	g.checkRect(r)
	out := make([]float64, 0, r.Size())
	g.eachRowOf(r, func(off, n int) {
		out = append(out, g.data[off:off+n]...)
	})
	return out
}

// Inject copies a packed buffer (as produced by Extract on a region of the
// same shape) into the region r of g.
func (g *Grid) Inject(r Rect, buf []float64) {
	g.checkRect(r)
	if len(buf) != r.Size() {
		panic(fmt.Sprintf("grid: Inject: buffer has %d values, region %v needs %d", len(buf), r, r.Size()))
	}
	pos := 0
	g.eachRowOf(r, func(off, n int) {
		copy(g.data[off:off+n], buf[pos:pos+n])
		pos += n
	})
}

// eachRowOf visits the contiguous innermost rows of region r as
// (storage offset, length) pairs, in row-major region order.
func (g *Grid) eachRowOf(r Rect, f func(off, n int)) {
	d := len(g.shape)
	last := d - 1
	rowLen := r.Hi[last] - r.Lo[last]
	if d == 1 {
		f(r.Lo[0]*g.stride[0], rowLen)
		return
	}
	outer := make([]int, 0, d-1)
	for i := 0; i < last; i++ {
		outer = append(outer, r.Hi[i]-r.Lo[i])
	}
	idx := make([]int, d-1)
	n := numutil.Prod(outer...)
	for k := 0; k < n; k++ {
		numutil.CoordOf(k, outer, idx)
		off := r.Lo[last] * g.stride[last]
		for i := 0; i < last; i++ {
			off += (r.Lo[i] + idx[i]) * g.stride[i]
		}
		f(off, rowLen)
	}
}

// Line is one 1-D line of a grid along some axis: a base storage offset, the
// stride between consecutive elements, and the length.
type Line struct {
	Base, Stride, N int
}

// Gather copies the line's elements from the grid into dst (len ≥ N).
func (g *Grid) Gather(l Line, dst []float64) {
	off := l.Base
	for i := 0; i < l.N; i++ {
		dst[i] = g.data[off]
		off += l.Stride
	}
}

// Scatter copies src (len ≥ N) into the line's elements.
func (g *Grid) Scatter(l Line, src []float64) {
	off := l.Base
	for i := 0; i < l.N; i++ {
		g.data[off] = src[i]
		off += l.Stride
	}
}

// EachLine visits every 1-D line of region r that runs along dimension dim,
// in row-major order of the orthogonal coordinates (the last varying
// fastest). Each line spans [r.Lo[dim], r.Hi[dim]). It allocates nothing
// for grids of up to maxOdoDims dimensions.
func (g *Grid) EachLine(r Rect, dim int, f func(l Line)) {
	var odo [maxOdoDims]int
	l, idx := g.firstLine(r, dim, odo[:])
	for ok := true; ok; ok = g.nextLine(r, dim, idx, &l) {
		f(l)
	}
}

// firstLine checks r and returns its first line along dim and the odometer
// for nextLine: odo, which must be zero, when it has room for the grid's
// dimensions, else a fresh one.
func (g *Grid) firstLine(r Rect, dim int, odo []int) (Line, []int) {
	g.checkRect(r)
	l := Line{Stride: g.stride[dim], N: r.Hi[dim] - r.Lo[dim]}
	for i := range g.shape {
		l.Base += r.Lo[i] * g.stride[i]
	}
	if len(g.shape) > len(odo) {
		odo = make([]int, len(g.shape))
	}
	return l, odo
}

// nextLine advances the odometer idx over the dimensions of r other than
// dim, the last varying fastest, and moves l to the next line. It reports
// false after the last line.
func (g *Grid) nextLine(r Rect, dim int, idx []int, l *Line) bool {
	for i := len(g.shape) - 1; i >= 0; i-- {
		if i == dim {
			continue
		}
		idx[i]++
		l.Base += g.stride[i]
		if idx[i] < r.Hi[i]-r.Lo[i] {
			return true
		}
		l.Base -= idx[i] * g.stride[i]
		idx[i] = 0
	}
	return false
}

// NumLines returns the number of lines along dim in region r.
func (g *Grid) NumLines(r Rect, dim int) int {
	n := 1
	for i := range g.shape {
		if i != dim {
			n *= r.Hi[i] - r.Lo[i]
		}
	}
	return n
}

// Bounds returns the region covering the whole grid.
func (g *Grid) Bounds() Rect {
	lo := make([]int, len(g.shape))
	return Rect{Lo: lo, Hi: numutil.CopyInts(g.shape)}
}

// Transpose returns a new grid whose axes are permuted: result index
// (i_perm[0], …) equals g index (i_0, …); that is, axis k of the result is
// axis perm[k] of g.
func (g *Grid) Transpose(perm []int) *Grid {
	d := len(g.shape)
	if len(perm) != d {
		panic("grid: Transpose: permutation rank mismatch")
	}
	seen := make([]bool, d)
	shape := make([]int, d)
	for k, a := range perm {
		if a < 0 || a >= d || seen[a] {
			panic(fmt.Sprintf("grid: Transpose: invalid permutation %v", perm))
		}
		seen[a] = true
		shape[k] = g.shape[a]
	}
	out := New(shape...)
	src := make([]int, d)
	dst := make([]int, d)
	for off := range g.data {
		numutil.CoordOf(off, g.shape, src)
		for k, a := range perm {
			dst[k] = src[a]
		}
		out.data[out.Offset(dst...)] = g.data[off]
	}
	return out
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// grids of identical shape.
func MaxAbsDiff(a, b *Grid) float64 {
	if !numutil.EqualInts(a.shape, b.shape) {
		panic(fmt.Sprintf("grid: MaxAbsDiff shape mismatch: %v vs %v", a.shape, b.shape))
	}
	m := 0.0
	for i := range a.data {
		d := math.Abs(a.data[i] - b.data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of the grid's elements.
func (g *Grid) Norm2() float64 {
	s := 0.0
	for _, v := range g.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String summarizes the grid.
func (g *Grid) String() string {
	return fmt.Sprintf("grid%v", g.shape)
}
