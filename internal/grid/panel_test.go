package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"genmp/internal/numutil"
)

func randomGrid(rng *rand.Rand, shape ...int) *Grid {
	g := New(shape...)
	data := g.Data()
	for i := range data {
		data[i] = rng.Float64()
	}
	return g
}

// refLines lists the lines of r along dim from their coordinates: one line
// per point of r's cross-section, in row-major order.
func refLines(g *Grid, r Rect, dim int) []Line {
	cross := make([]int, len(r.Lo))
	for i := range cross {
		cross[i] = r.Hi[i] - r.Lo[i]
	}
	cross[dim] = 1
	var out []Line
	numutil.EachCoord(cross, func(c []int) {
		base := 0
		for i, x := range c {
			base += (r.Lo[i] + x) * g.stride[i]
		}
		out = append(out, Line{Base: base, Stride: g.stride[dim], N: r.Hi[dim] - r.Lo[dim]})
	})
	return out
}

// TestAppendLinesMatchesEachLine: EachLine and AppendLines yield the lines
// of the coordinate reference in its order, for sub-regions, a 1-D grid and
// a grid of more than maxOdoDims dimensions.
func TestAppendLinesMatchesEachLine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGrid(rng, 5, 7, 6)
	g1 := randomGrid(rng, 9)
	g9 := New(2, 1, 3, 1, 1, 2, 1, 2, 2)
	cases := []struct {
		g *Grid
		r Rect
	}{
		{g, g.Bounds()},
		{g, Rect{Lo: []int{1, 2, 0}, Hi: []int{4, 5, 6}}},
		{g, Rect{Lo: []int{0, 0, 3}, Hi: []int{1, 7, 4}}},
		{g1, g1.Bounds()},
		{g9, g9.Bounds()},
		{g9, Rect{Lo: []int{1, 0, 1, 0, 0, 0, 0, 1, 0}, Hi: []int{2, 1, 3, 1, 1, 2, 1, 2, 2}}},
	}
	for _, c := range cases {
		for dim := range c.r.Lo {
			want := refLines(c.g, c.r, dim)
			var each []Line
			c.g.EachLine(c.r, dim, func(l Line) { each = append(each, l) })
			for _, got := range [][]Line{each, c.g.AppendLines(c.r, dim, nil)} {
				if len(got) != len(want) {
					t.Fatalf("%v dim %d: %d lines, want %d", c.r, dim, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v dim %d line %d: %+v != %+v", c.r, dim, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEachLineZeroAllocs: walking the lines of a region allocates nothing,
// so per-slab kernels may call EachLine in their inner loops.
func TestEachLineZeroAllocs(t *testing.T) {
	g := New(8, 8, 8)
	r := Rect{Lo: []int{1, 2, 0}, Hi: []int{7, 5, 8}}
	sum := 0
	allocs := testing.AllocsPerRun(10, func() {
		for dim := 0; dim < 3; dim++ {
			g.EachLine(r, dim, func(l Line) { sum += l.Base })
		}
	})
	if allocs != 0 {
		t.Fatalf("EachLine allocates %v times per run, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("EachLine visited no line")
	}
}

// TestGatherScatterLines: the panel equals per-line Gather, and
// ScatterLines matches per-line Scatter exactly, for every axis (stride-1
// and strided line cases) and for line sets that are one run of adjacent
// lines, several runs, runs mixed with lone lines, lines no two of which
// are adjacent, and lines with consecutive bases but different strides.
// Strided sets whose runs average minCopyRun lines or more take the
// run-copy path, the others the element loop.
func TestGatherScatterLinesPanel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGrid(rng, 6, 5, 20)
	check := func(what string, lines []Line) {
		t.Helper()
		nb := len(lines)
		n := lines[0].N
		panel := make([]float64, n*nb)
		g.GatherLines(lines, panel)
		tmp := make([]float64, n)
		for b, l := range lines {
			g.Gather(l, tmp)
			for k := 0; k < n; k++ {
				if panel[k*nb+b] != tmp[k] {
					t.Fatalf("%s: line %d elem %d: %v != %v", what, b, k, panel[k*nb+b], tmp[k])
				}
			}
		}
		// Perturb the panel, scatter, and check against per-line Scatter
		// on a clone.
		for i := range panel {
			panel[i] += 1.0
		}
		g2 := g.Clone()
		g2.ScatterLines(lines, panel)
		clone := g.Clone()
		for b, l := range lines {
			for k := 0; k < n; k++ {
				tmp[k] = panel[k*nb+b]
			}
			clone.Scatter(l, tmp)
		}
		if d := MaxAbsDiff(g2, clone); d != 0 {
			t.Fatalf("%s: ScatterLines differs from per-line Scatter by %v", what, d)
		}
	}
	r := Rect{Lo: []int{1, 0, 2}, Hi: []int{6, 4, 19}}
	for dim := 0; dim < 3; dim++ {
		all := g.AppendLines(r, dim, nil)
		// Along dims 0 and 1 the rect's last-axis width makes runs of 17
		// adjacent lines; along dim 2 the lines are stride 1.
		pick := func(idx ...int) []Line {
			out := make([]Line, len(idx))
			for i, j := range idx {
				out[i] = all[j]
			}
			return out
		}
		var everyOther []Line
		for i := 0; i < len(all); i += 2 {
			everyOther = append(everyOther, all[i])
		}
		sets := []struct {
			name  string
			lines []Line
		}{
			{"one line", all[:1]},
			{"part of a run", all[:3]},
			{"one run", all[:17]},
			{"a run and its neighbour's head", all[:19]},
			{"a run and a lone line", append(all[:16:16], all[19])},
			{"every line", all},
			{"short runs and lone lines", pick(0, 1, 2, 5, 9, 10, 11, 12, 19)},
			{"reversed", pick(3, 2, 1, 0)},
			{"non-adjacent", everyOther},
		}
		for _, set := range sets {
			check(fmt.Sprintf("dim %d %s", dim, set.name), set.lines)
		}
	}
	// Consecutive bases with one line of another stride: three runs, on
	// the element path for 9 lines and the run-copy path for 24.
	for _, nb := range []int{9, 24} {
		lines := make([]Line, nb)
		for b := range lines {
			lines[b] = Line{Base: b, Stride: 40, N: 3}
		}
		lines[4].Stride = 100
		check(fmt.Sprintf("%d lines, mixed strides", nb), lines)
	}
}

// TestExtractIntoInjectFrom: exact agreement with Extract/Inject.
func TestExtractIntoInjectFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][]int{{13}, {4, 6}, {5, 4, 7}, {3, 2, 4, 5}} {
		g := randomGrid(rng, shape...)
		r := g.Bounds()
		for i := range r.Lo {
			if r.Hi[i] > 2 {
				r.Lo[i] = 1
			}
		}
		want := g.Extract(r)
		got := make([]float64, r.Size())
		g.ExtractInto(r, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %v: ExtractInto[%d] = %v, want %v", shape, i, got[i], want[i])
			}
		}
		for i := range got {
			got[i] = rng.Float64()
		}
		g2 := g.Clone()
		g.Inject(r, got)
		g2.InjectFrom(r, got)
		if d := MaxAbsDiff(g, g2); d != 0 {
			t.Fatalf("shape %v: InjectFrom differs from Inject by %v", shape, d)
		}
	}
}

// TestCopyRect: copying a region between grids of different shapes agrees
// with Extract then Inject, up to and past the odometer's rank.
func TestCopyRect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][]int{{13}, {4, 6}, {5, 4, 7}, {2, 2, 2, 2, 2, 2, 2, 2, 3}} {
		src := randomGrid(rng, shape...)
		big := make([]int, len(shape))
		sr, dr := src.Bounds(), Rect{Lo: make([]int, len(shape)), Hi: make([]int, len(shape))}
		for i, n := range shape {
			big[i] = n + 3
			if n > 2 {
				sr.Lo[i] = 1
			}
			dr.Lo[i] = 2
			dr.Hi[i] = 2 + sr.Hi[i] - sr.Lo[i]
		}
		got, want := randomGrid(rng, big...), New(big...)
		want.CopyFrom(got)
		want.Inject(dr, src.Extract(sr))
		got.CopyRect(dr, src, sr)
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("shape %v: CopyRect differs from Extract+Inject by %v", shape, d)
		}
	}
}

// TestPanelOpsZeroAllocs: the batched pack/unpack and region copies are
// inner-loop operations and must not allocate.
func TestPanelOpsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGrid(rng, 8, 8, 8)
	r := Rect{Lo: []int{1, 1, 1}, Hi: []int{7, 7, 7}}
	lines := g.AppendLines(r, 1, nil) // runs of 6: the element loop
	panel := make([]float64, lines[0].N*len(lines))
	runs := g.AppendLines(g.Bounds(), 0, nil) // one run: run copies
	runPanel := make([]float64, runs[0].N*len(runs))
	buf := make([]float64, r.Size())
	linesBuf := lines[:0]
	allocs := testing.AllocsPerRun(10, func() {
		g.GatherLines(lines, panel)
		g.ScatterLines(lines, panel)
		g.GatherLines(runs, runPanel)
		g.ScatterLines(runs, runPanel)
		g.ExtractInto(r, buf)
		g.InjectFrom(r, buf)
		g.CopyRect(r, g, r)
		linesBuf = g.AppendLines(r, 1, linesBuf[:0])
	})
	if allocs != 0 {
		t.Fatalf("panel ops allocate %v per run, want 0", allocs)
	}
}

// TestProgression: three or more lines of a padded region along an axis
// are one progression exactly when they stay inside one run of the
// storage, and Progression's step then places every element of every
// line.
func TestProgression(t *testing.T) {
	g := New(6, 7, 9)
	r := Rect{Lo: []int{1, 1, 2}, Hi: []int{5, 6, 7}} // a 4×5×5 interior with padding
	for dim := range r.Lo {
		lines := g.AppendLines(r, dim, nil)
		// The first cross-section axis other than the last steps fastest;
		// a run is the lines sharing every other coordinate.
		run := 1
		for j := len(r.Lo) - 1; j >= 0; j-- {
			if j != dim {
				run = r.Hi[j] - r.Lo[j]
				break
			}
		}
		for lo := 0; lo < len(lines); lo++ {
			for hi := lo + 1; hi <= len(lines); hi++ {
				blk := lines[lo:hi]
				step, ok := Progression(blk)
				// Two lines are always a progression; three or more only
				// within a run, since the jump between runs differs.
				want := hi-lo <= 2 || lo/run == (hi-1)/run
				if ok != want {
					t.Fatalf("dim %d lines [%d, %d): progression %v, want %v", dim, lo, hi, ok, want)
				}
				if !ok {
					continue
				}
				for b, l := range blk {
					for k := 0; k < l.N; k++ {
						if got := blk[0].Base + k*blk[0].Stride + b*step; got != l.Base+k*l.Stride {
							t.Fatalf("dim %d lines [%d, %d): element %d of line %d at %d, want %d", dim, lo, hi, k, b, got, l.Base+k*l.Stride)
						}
					}
				}
			}
		}
	}
	if _, ok := Progression(nil); ok {
		t.Error("no lines are no progression")
	}
	l := Line{Base: 3, Stride: 1, N: 4}
	for _, blk := range [][]Line{
		{l, l},                          // repeated line: step 0
		{l, {Base: 1, Stride: 1, N: 4}}, // descending bases
		{l, {Base: 8, Stride: 2, N: 4}}, // stride differs
		{l, {Base: 8, Stride: 1, N: 3}}, // length differs
		{l, {Base: 8, Stride: 1, N: 4}, {Base: 12, Stride: 1, N: 4}}, // step changes
	} {
		if _, ok := Progression(blk); ok {
			t.Errorf("%v: progression, want none", blk)
		}
	}
}
