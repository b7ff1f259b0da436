package grid

import (
	"math"
	"math/rand"
	"testing"

	"genmp/internal/numutil"
)

func TestNewAndIndexing(t *testing.T) {
	g := New(2, 3, 4)
	if g.Size() != 24 || g.Dims() != 3 {
		t.Fatalf("size/dims wrong: %d, %d", g.Size(), g.Dims())
	}
	g.Set(7.5, 1, 2, 3)
	if g.At(1, 2, 3) != 7.5 {
		t.Errorf("At after Set = %g", g.At(1, 2, 3))
	}
	// Row-major: last index fastest.
	if g.Offset(0, 0, 1) != 1 || g.Offset(0, 1, 0) != 4 || g.Offset(1, 0, 0) != 12 {
		t.Errorf("strides wrong: %d %d %d", g.Offset(0, 0, 1), g.Offset(0, 1, 0), g.Offset(1, 0, 0))
	}
}

func TestIndexPanics(t *testing.T) {
	g := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("indexing with %v should panic", idx)
				}
			}()
			g.At(idx...)
		}()
	}
}

func TestFillAndFillFunc(t *testing.T) {
	g := New(3, 3)
	g.Fill(2)
	if g.At(1, 1) != 2 {
		t.Error("Fill failed")
	}
	g.FillFunc(func(idx []int) float64 { return float64(10*idx[0] + idx[1]) })
	if g.At(2, 1) != 21 {
		t.Errorf("FillFunc: At(2,1) = %g", g.At(2, 1))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(2, 2)
	g.Set(1, 0, 0)
	c := g.Clone()
	c.Set(9, 0, 0)
	if g.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
	g2 := New(2, 2)
	g2.CopyFrom(c)
	if g2.At(0, 0) != 9 {
		t.Error("CopyFrom failed")
	}
}

func TestExtractInjectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(4, 5, 6)
	g.FillFunc(func([]int) float64 { return rng.Float64() })
	r := RectOf([]int{1, 2, 0}, []int{3, 5, 4})
	buf := g.Extract(r)
	if len(buf) != r.Size() || r.Size() != 2*3*4 {
		t.Fatalf("extract size %d, want %d", len(buf), r.Size())
	}
	h := New(4, 5, 6)
	h.Inject(r, buf)
	// Region matches, outside stays zero.
	idx := make([]int, 3)
	for off := 0; off < g.Size(); off++ {
		numutil.CoordOf(off, g.Shape(), idx)
		inside := true
		for i := range idx {
			if idx[i] < r.Lo[i] || idx[i] >= r.Hi[i] {
				inside = false
			}
		}
		if inside && h.At(idx...) != g.At(idx...) {
			t.Fatalf("inject mismatch at %v", idx)
		}
		if !inside && h.At(idx...) != 0 {
			t.Fatalf("inject leaked outside region at %v", idx)
		}
	}
}

func TestExtractOrderIsRowMajor(t *testing.T) {
	g := New(2, 3)
	g.FillFunc(func(idx []int) float64 { return float64(3*idx[0] + idx[1]) })
	buf := g.Extract(RectOf([]int{0, 1}, []int{2, 3}))
	want := []float64{1, 2, 4, 5}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("extract order: %v, want %v", buf, want)
		}
	}
}

func TestGatherScatterLines(t *testing.T) {
	g := New(3, 4)
	g.FillFunc(func(idx []int) float64 { return float64(10*idx[0] + idx[1]) })
	var lines []Line
	g.EachLine(g.Bounds(), 0, func(l Line) { lines = append(lines, l) })
	if len(lines) != 4 || g.NumLines(g.Bounds(), 0) != 4 {
		t.Fatalf("lines along dim 0: %d", len(lines))
	}
	buf := make([]float64, 3)
	g.Gather(lines[1], buf) // column j=1: 1, 11, 21
	if buf[0] != 1 || buf[1] != 11 || buf[2] != 21 {
		t.Errorf("gather column 1 = %v", buf)
	}
	g.Scatter(lines[1], []float64{-1, -2, -3})
	if g.At(1, 1) != -2 {
		t.Errorf("scatter failed: %g", g.At(1, 1))
	}
}

func TestEachLineSubRegion(t *testing.T) {
	g := New(4, 4, 4)
	g.FillFunc(func(idx []int) float64 { return float64(idx[2]) })
	r := RectOf([]int{1, 1, 1}, []int{3, 3, 3})
	count := 0
	buf := make([]float64, 2)
	g.EachLine(r, 2, func(l Line) {
		count++
		if l.N != 2 {
			t.Fatalf("line length %d, want 2", l.N)
		}
		g.Gather(l, buf)
		if buf[0] != 1 || buf[1] != 2 {
			t.Fatalf("line contents %v", buf)
		}
	})
	if count != 4 {
		t.Fatalf("visited %d lines, want 4", count)
	}
}

func TestTranspose(t *testing.T) {
	g := New(2, 3, 4)
	rng := rand.New(rand.NewSource(5))
	g.FillFunc(func([]int) float64 { return rng.Float64() })
	tr := g.Transpose([]int{2, 0, 1})
	if !numutil.EqualInts(tr.Shape(), []int{4, 2, 3}) {
		t.Fatalf("transposed shape %v", tr.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if tr.At(k, i, j) != g.At(i, j, k) {
					t.Fatalf("transpose value mismatch at %d %d %d", i, j, k)
				}
			}
		}
	}
	// Round trip through the inverse permutation.
	back := tr.Transpose([]int{1, 2, 0})
	if MaxAbsDiff(g, back) != 0 {
		t.Error("transpose round trip differs")
	}
}

func TestTransposePanicsOnBadPerm(t *testing.T) {
	g := New(2, 2)
	for _, perm := range [][]int{{0, 0}, {0, 2}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Transpose(%v) should panic", perm)
				}
			}()
			g.Transpose(perm)
		}()
	}
}

func TestMaxAbsDiffAndNorm(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	a.Set(3, 0, 1)
	b.Set(1, 0, 1)
	if MaxAbsDiff(a, b) != 2 {
		t.Errorf("MaxAbsDiff = %g", MaxAbsDiff(a, b))
	}
	a.Fill(2)
	if math.Abs(a.Norm2()-4) > 1e-12 {
		t.Errorf("Norm2 = %g, want 4", a.Norm2())
	}
}

func TestFromData(t *testing.T) {
	g := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if g.At(1, 2) != 6 || g.At(0, 1) != 2 {
		t.Error("FromData layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromData with wrong length should panic")
		}
	}()
	FromData([]float64{1, 2}, 2, 3)
}

func TestRectShape(t *testing.T) {
	r := RectOf([]int{1, 2}, []int{4, 7})
	if !numutil.EqualInts(r.Shape(), []int{3, 5}) || r.Size() != 15 {
		t.Errorf("Rect shape/size wrong: %v %d", r.Shape(), r.Size())
	}
}

func TestExtract1D(t *testing.T) {
	g := FromData([]float64{0, 1, 2, 3, 4}, 5)
	buf := g.Extract(RectOf([]int{1}, []int{4}))
	if len(buf) != 3 || buf[0] != 1 || buf[2] != 3 {
		t.Errorf("1-D extract = %v", buf)
	}
}
