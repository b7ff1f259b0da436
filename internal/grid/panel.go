package grid

import "fmt"

// This file is the packing side of the batched sweep path: a block of lines
// is gathered into a structure-of-arrays panel (element k of line b at
// dst[k*nb+b]) so the solver's inner loop runs stride-1 across lines, then
// scattered back. Pack/unpack is the only place that touches the grid's
// strided storage, and it is written to move whole cache lines: when the
// lines themselves are contiguous (sweep along the last axis) the copy is a
// blocked transpose; when the lines are strided, consecutive lines are
// usually adjacent in memory, so each long run of adjacent lines moves a
// panel row with one contiguous copy.

// Panel-transpose tile sizes: ptK rows × ptB lines keeps the strided side
// of the copy inside L1 while the contiguous side streams.
const (
	ptK = 64
	ptB = 16
)

// maxOdoDims is the rank handled by the allocation-free odometer loops;
// higher-rank grids take the (allocating) closure path.
const maxOdoDims = 8

// checkPanel validates a batch of lines against a panel buffer and returns
// the common line length.
func checkPanel(lines []Line, panel []float64) int {
	n := lines[0].N
	for _, l := range lines {
		if l.N != n {
			panic(fmt.Sprintf("grid: panel lines of unequal length (%d vs %d)", l.N, n))
		}
	}
	if len(panel) != n*len(lines) {
		panic(fmt.Sprintf("grid: panel buffer has %d values, %d lines × %d need %d",
			len(panel), len(lines), n, n*len(lines)))
	}
	return n
}

// GatherLines packs a block of equal-length lines into a structure-of-arrays
// panel: dst[k*len(lines)+b] = element k of lines[b]. The copy is
// cache-blocked; len(dst) must be lines[0].N * len(lines).
func (g *Grid) GatherLines(lines []Line, dst []float64) {
	nb := len(lines)
	if nb == 0 {
		return
	}
	n := checkPanel(lines, dst)
	if lines[0].Stride == 1 {
		// Contiguous lines, strided panel rows: a blocked transpose. The
		// inner copy reads one line segment sequentially and spreads it
		// over ptK panel rows that stay resident in L1.
		for k0 := 0; k0 < n; k0 += ptK {
			k1 := min(k0+ptK, n)
			for b0 := 0; b0 < nb; b0 += ptB {
				b1 := min(b0+ptB, nb)
				for b := b0; b < b1; b++ {
					src := g.data[lines[b].Base+k0 : lines[b].Base+k1]
					for i, v := range src {
						dst[(k0+i)*nb+b] = v
					}
				}
			}
		}
		return
	}
	// Strided lines: consecutive lines of a sweep block are usually
	// adjacent in memory. When they form long runs, each run moves one
	// panel row with one copy; otherwise, with lines innermost, the reads
	// walk nearly consecutive addresses and the writes are sequential.
	if longRuns(lines) {
		for b0 := 0; b0 < nb; {
			l, b1 := lines[b0], lineRunEnd(lines, b0)
			for k, off := 0, l.Base; k < n; k, off = k+1, off+l.Stride {
				copy(dst[k*nb+b0:k*nb+b1], g.data[off:off+b1-b0])
			}
			b0 = b1
		}
		return
	}
	for k := 0; k < n; k++ {
		row := dst[k*nb : (k+1)*nb]
		for b := range row {
			l := lines[b]
			row[b] = g.data[l.Base+k*l.Stride]
		}
	}
}

// minCopyRun is the mean run length from which a strided panel moves by
// run copies: a shorter run fills less than a 64-byte cache line per
// copy, and the per-copy overhead makes the element loop faster.
const minCopyRun = 8

// lineRunEnd returns the end of the maximal run of lines starting at b0
// that share a stride and have consecutive bases: lines[b0:end] occupy
// adjacent cells of every panel row.
func lineRunEnd(lines []Line, b0 int) int {
	l := lines[b0]
	end := b0 + 1
	for end < len(lines) && lines[end].Stride == l.Stride && lines[end].Base == l.Base+(end-b0) {
		end++
	}
	return end
}

// longRuns reports whether the lines' maximal runs average at least
// minCopyRun lines. It stops counting once they cannot.
func longRuns(lines []Line) bool {
	maxRuns := len(lines) / minCopyRun
	runs := 0
	for b := 0; b < len(lines); b = lineRunEnd(lines, b) {
		if runs++; runs > maxRuns {
			return false
		}
	}
	return true
}

// ScatterLines unpacks a structure-of-arrays panel (as filled by
// GatherLines) back into the lines.
func (g *Grid) ScatterLines(lines []Line, src []float64) {
	nb := len(lines)
	if nb == 0 {
		return
	}
	n := checkPanel(lines, src)
	if lines[0].Stride == 1 {
		for k0 := 0; k0 < n; k0 += ptK {
			k1 := min(k0+ptK, n)
			for b0 := 0; b0 < nb; b0 += ptB {
				b1 := min(b0+ptB, nb)
				for b := b0; b < b1; b++ {
					dst := g.data[lines[b].Base+k0 : lines[b].Base+k1]
					for i := range dst {
						dst[i] = src[(k0+i)*nb+b]
					}
				}
			}
		}
		return
	}
	if longRuns(lines) {
		for b0 := 0; b0 < nb; {
			l, b1 := lines[b0], lineRunEnd(lines, b0)
			for k, off := 0, l.Base; k < n; k, off = k+1, off+l.Stride {
				copy(g.data[off:off+b1-b0], src[k*nb+b0:k*nb+b1])
			}
			b0 = b1
		}
		return
	}
	for k := 0; k < n; k++ {
		row := src[k*nb : (k+1)*nb]
		for b, v := range row {
			l := lines[b]
			g.data[l.Base+k*l.Stride] = v
		}
	}
}

// AppendLines appends every line of region r along dim to dst and returns
// the extended slice — the same lines in the same row-major orthogonal
// order as EachLine, but without per-call closure or coordinate
// allocations, so executors can keep a reusable []Line.
func (g *Grid) AppendLines(r Rect, dim int, dst []Line) []Line {
	g.checkRect(r)
	d := len(g.shape)
	if d > maxOdoDims {
		g.EachLine(r, dim, func(l Line) { dst = append(dst, l) })
		return dst
	}
	lineN := r.Hi[dim] - r.Lo[dim]
	stride := g.stride[dim]
	base := 0
	for i := range g.shape {
		base += r.Lo[i] * g.stride[i]
	}
	var idx [maxOdoDims]int
	for {
		dst = append(dst, Line{Base: base, Stride: stride, N: lineN})
		// Odometer over the orthogonal dims, last varying fastest.
		i := d - 1
		for ; i >= 0; i-- {
			if i == dim {
				continue
			}
			idx[i]++
			base += g.stride[i]
			if idx[i] < r.Hi[i]-r.Lo[i] {
				break
			}
			base -= idx[i] * g.stride[i]
			idx[i] = 0
		}
		if i < 0 {
			return dst
		}
	}
}

// ExtractInto copies region r of g into dst (row-major within the region,
// the Extract layout) without allocating. len(dst) must be r.Size().
func (g *Grid) ExtractInto(r Rect, dst []float64) {
	g.checkRect(r)
	if len(dst) != r.Size() {
		panic(fmt.Sprintf("grid: ExtractInto: buffer has %d values, region needs %d", len(dst), r.Size()))
	}
	d := len(g.shape)
	if d > maxOdoDims {
		pos := 0
		g.eachRowOf(r, func(off, n int) {
			copy(dst[pos:pos+n], g.data[off:off+n])
			pos += n
		})
		return
	}
	last := d - 1
	rowLen := r.Hi[last] - r.Lo[last]
	off := 0
	for i := range r.Lo {
		off += r.Lo[i] * g.stride[i]
	}
	var idx [maxOdoDims]int
	pos := 0
	for {
		copy(dst[pos:pos+rowLen], g.data[off:off+rowLen])
		pos += rowLen
		i := last - 1
		for ; i >= 0; i-- {
			idx[i]++
			off += g.stride[i]
			if idx[i] < r.Hi[i]-r.Lo[i] {
				break
			}
			off -= idx[i] * g.stride[i]
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// InjectFrom copies a packed buffer (the Extract layout) into region r of g
// without allocating. len(src) must be r.Size().
func (g *Grid) InjectFrom(r Rect, src []float64) {
	g.checkRect(r)
	if len(src) != r.Size() {
		panic(fmt.Sprintf("grid: InjectFrom: buffer has %d values, region needs %d", len(src), r.Size()))
	}
	d := len(g.shape)
	if d > maxOdoDims {
		pos := 0
		g.eachRowOf(r, func(off, n int) {
			copy(g.data[off:off+n], src[pos:pos+n])
			pos += n
		})
		return
	}
	last := d - 1
	rowLen := r.Hi[last] - r.Lo[last]
	off := 0
	for i := range r.Lo {
		off += r.Lo[i] * g.stride[i]
	}
	var idx [maxOdoDims]int
	pos := 0
	for {
		copy(g.data[off:off+rowLen], src[pos:pos+rowLen])
		pos += rowLen
		i := last - 1
		for ; i >= 0; i-- {
			idx[i]++
			off += g.stride[i]
			if idx[i] < r.Hi[i]-r.Lo[i] {
				break
			}
			off -= idx[i] * g.stride[i]
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}
