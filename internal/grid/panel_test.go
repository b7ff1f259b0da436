package grid

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomGrid(rng *rand.Rand, shape ...int) *Grid {
	g := New(shape...)
	data := g.Data()
	for i := range data {
		data[i] = rng.Float64()
	}
	return g
}

// TestAppendLinesMatchesEachLine: identical lines in identical order.
func TestAppendLinesMatchesEachLine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGrid(rng, 5, 7, 6)
	rects := []Rect{
		g.Bounds(),
		{Lo: []int{1, 2, 0}, Hi: []int{4, 5, 6}},
		{Lo: []int{0, 0, 3}, Hi: []int{1, 7, 4}},
	}
	for _, r := range rects {
		for dim := 0; dim < 3; dim++ {
			var want []Line
			g.EachLine(r, dim, func(l Line) { want = append(want, l) })
			got := g.AppendLines(r, dim, nil)
			if len(got) != len(want) {
				t.Fatalf("dim %d: %d lines, want %d", dim, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dim %d line %d: %+v != %+v", dim, i, got[i], want[i])
				}
			}
		}
	}
	// 1-D grid edge case.
	g1 := randomGrid(rng, 9)
	got := g1.AppendLines(g1.Bounds(), 0, nil)
	if len(got) != 1 || got[0] != (Line{Base: 0, Stride: 1, N: 9}) {
		t.Fatalf("1-D AppendLines: %+v", got)
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
		linesBuf = g.AppendLines(r, 1, linesBuf[:0])
	})
	if allocs != 0 {
		t.Fatalf("panel ops allocate %v per run, want 0", allocs)
	}
}
