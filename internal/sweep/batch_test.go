package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// batchSolvers enumerates every BatchSolver with a deterministic system
// generator producing elimination-stable (diagonally dominant) vectors.
func batchSolvers() []BatchSolver {
	return []BatchSolver{
		Recurrence{},
		Tridiag{},
		Banded{KL: 1, KU: 1},
		NewPenta(),
		Banded{KL: 3, KU: 2},
		Banded{KL: 1, KU: 3},
	}
}

// randomLine builds one line's vecs for solver s: diagonally dominant with
// band entries that reach outside the line zeroed, the Solver contract.
func randomLine(s Solver, n int, rng *rand.Rand) [][]float64 {
	vecs := make([][]float64, s.NumVecs())
	for v := range vecs {
		vecs[v] = make([]float64, n)
		for k := range vecs[v] {
			vecs[v][k] = rng.Float64()*2 - 1
		}
	}
	switch sv := s.(type) {
	case Recurrence:
		for k := range vecs[0] {
			vecs[0][k] *= 0.5 // keep the recurrence stable
		}
	case Tridiag:
		for k := 0; k < n; k++ {
			vecs[1][k] = 4 + rng.Float64() // dominant diagonal
		}
		vecs[0][0] = 0
		vecs[2][n-1] = 0
	case Banded:
		kl, ku := sv.KL, sv.KU
		for k := 0; k < n; k++ {
			vecs[kl][k] = 2*float64(kl+ku) + 1 + rng.Float64()
			for j := 1; j <= kl; j++ {
				if k-j < 0 {
					vecs[j-1][k] = 0
				}
			}
			for t := 1; t <= ku; t++ {
				if k+t >= n {
					vecs[kl+t][k] = 0
				}
			}
		}
		zeroInsideBands(sv, vecs)
	}
	return vecs
}

// zeroInsideBands sets a deterministic scatter of off-diagonal band
// entries to +0 and −0, most of them inside the line, so the identity
// tests pin the kernels' zero-coefficient skips bit for bit (−0 == 0 takes
// the skip too). Zeroing off-diagonals keeps the system diagonally
// dominant.
func zeroInsideBands(bd Banded, vecs [][]float64) {
	negZero := math.Copysign(0, -1)
	for v := 0; v < bd.NumVecs()-1; v++ {
		if v == bd.KL {
			continue // the diagonal
		}
		for k := range vecs[v] {
			switch (k + 3*v) % 7 {
			case 2:
				vecs[v][k] = 0
			case 5:
				vecs[v][k] = negZero
			}
		}
	}
}

// packPanel lays nb lines' vecs out as SoA panels.
func packPanel(lines [][][]float64, nv, n, nb int) [][]float64 {
	panels := make([][]float64, nv)
	for v := range panels {
		panels[v] = make([]float64, n*nb)
		for b, vecs := range lines {
			for k := 0; k < n; k++ {
				panels[v][k*nb+b] = vecs[v][k]
			}
		}
	}
	return panels
}

// requireSamePanel asserts exact (bitwise) equality of the panel against
// the per-line scalar results.
func requireSamePanel(t *testing.T, panels [][]float64, lines [][][]float64, nv, n, nb int) {
	t.Helper()
	for v := 0; v < nv; v++ {
		for b := range lines {
			for k := 0; k < n; k++ {
				got, want := panels[v][k*nb+b], lines[b][v][k]
				if got != want {
					t.Fatalf("vec %d line %d elem %d: batched %v != scalar %v", v, b, k, got, want)
				}
			}
		}
	}
}

// TestBatchBitIdentityWholeLines runs full lines (nil carries both ways)
// through the scalar and batched kernels and requires exact equality.
func TestBatchBitIdentityWholeLines(t *testing.T) {
	for _, s := range batchSolvers() {
		for _, n := range []int{1, 2, 3, 5, 17, 33} {
			for _, nb := range []int{1, 7, 64} {
				rng := rand.New(rand.NewSource(int64(100*n + nb)))
				if minN := minLineLen(s); n < minN {
					continue // bands must fit in the line
				}
				scalar := make([][][]float64, nb)
				batched := make([][][]float64, nb)
				for b := 0; b < nb; b++ {
					scalar[b] = randomLine(s, n, rng)
					batched[b] = cloneVecs(scalar[b])
				}
				nv := s.NumVecs()
				panels := packPanel(batched, nv, n, nb)
				for b := 0; b < nb; b++ {
					s.Forward(scalar[b], nil, nil)
					s.Backward(scalar[b], nil, nil)
				}
				s.ForwardBatch(panels, nb, nil, nil)
				s.BackwardBatch(panels, nb, nil, nil)
				requireSamePanel(t, panels, scalar, nv, n, nb)
			}
		}
	}
}

// TestBatchBitIdentityChunked cuts lines into chunks, threads forward and
// backward carries through both paths, and requires exact equality of both
// the results and every intermediate carry.
func TestBatchBitIdentityChunked(t *testing.T) {
	for _, s := range batchSolvers() {
		n := 29 // odd, not a multiple of any batch size
		cuts := [][]int{{13}, {5, 11, 20}, {1, 2, 3, 28}}
		for ci, cut := range cuts {
			for _, nb := range []int{1, 7, 64} {
				rng := rand.New(rand.NewSource(int64(1000*ci + nb)))
				scalar := make([][][]float64, nb)
				batched := make([][][]float64, nb)
				for b := 0; b < nb; b++ {
					scalar[b] = randomLine(s, n, rng)
					batched[b] = cloneVecs(scalar[b])
				}
				nv := s.NumVecs()

				// Scalar oracle: ChunkedSolve per line.
				for b := 0; b < nb; b++ {
					ChunkedSolve(s, scalar[b], cut)
				}

				// Batched: same cuts, carries threaded between chunk panels
				// in the line-major wire layout.
				bounds := append(append([]int{0}, cut...), n)
				fLen, bLen := s.ForwardCarryLen(), s.BackwardCarryLen()
				chunkPanels := make([][][]float64, len(bounds)-1)
				chunkViews := make([][][][]float64, len(bounds)-1)
				for c := 0; c+1 < len(bounds); c++ {
					lo, hi := bounds[c], bounds[c+1]
					views := make([][][]float64, nb)
					for b := 0; b < nb; b++ {
						views[b] = make([][]float64, nv)
						for v := 0; v < nv; v++ {
							views[b][v] = batched[b][v][lo:hi]
						}
					}
					chunkViews[c] = views
					chunkPanels[c] = packPanel(views, nv, hi-lo, nb)
				}
				var cIn, cOut []float64
				if fLen > 0 {
					cIn = make([]float64, nb*fLen)
					cOut = make([]float64, nb*fLen)
				}
				for c := range chunkPanels {
					if c == 0 {
						s.ForwardBatch(chunkPanels[c], nb, nil, cOut)
					} else {
						s.ForwardBatch(chunkPanels[c], nb, cIn, cOut)
					}
					cIn, cOut = cOut, cIn
				}
				if bLen > 0 {
					bIn := make([]float64, nb*bLen)
					bOut := make([]float64, nb*bLen)
					for c := len(chunkPanels) - 1; c >= 0; c-- {
						if c == len(chunkPanels)-1 {
							s.BackwardBatch(chunkPanels[c], nb, nil, bOut)
						} else {
							s.BackwardBatch(chunkPanels[c], nb, bIn, bOut)
						}
						bIn, bOut = bOut, bIn
					}
				}

				// Unpack each chunk panel and compare against the scalar
				// lines, exactly.
				for c := range chunkPanels {
					lo, hi := bounds[c], bounds[c+1]
					cn := hi - lo
					for v := 0; v < nv; v++ {
						for b := 0; b < nb; b++ {
							for k := 0; k < cn; k++ {
								got := chunkPanels[c][v][k*nb+b]
								want := scalar[b][v][lo+k]
								if got != want {
									t.Fatalf("%s cut %v nb=%d: vec %d line %d elem %d: batched %v != scalar %v",
										s.Name(), cut, nb, v, b, lo+k, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchCarriesMatchScalar checks the emitted carries themselves (both
// directions) equal the scalar ones bit for bit, including the short-chunk
// pass-through cases (chunk shorter than the band).
func TestBatchCarriesMatchScalar(t *testing.T) {
	for _, s := range batchSolvers() {
		for _, n := range []int{1, 2, 3, 9} {
			nb := 5
			rng := rand.New(rand.NewSource(int64(n)))
			fLen, bLen := s.ForwardCarryLen(), s.BackwardCarryLen()

			// Random (stable-looking) incoming carries, as if a previous
			// chunk had produced them. For Banded forward the carry rows
			// must have usable pivots, so fill diagonally-dominant rows.
			scalar := make([][][]float64, nb)
			batched := make([][][]float64, nb)
			fIn := make([]float64, nb*fLen)
			for i := range fIn {
				fIn[i] = rng.Float64() + 1.5
			}
			for b := 0; b < nb; b++ {
				scalar[b] = randomLineInterior(s, n, rng)
				batched[b] = cloneVecs(scalar[b])
			}
			nv := s.NumVecs()
			panels := packPanel(batched, nv, n, nb)

			fOutScalar := make([]float64, nb*fLen)
			for b := 0; b < nb; b++ {
				s.Forward(scalar[b], fIn[b*fLen:(b+1)*fLen], fOutScalar[b*fLen:(b+1)*fLen])
			}
			fOutBatch := make([]float64, nb*fLen)
			s.ForwardBatch(panels, nb, fIn, fOutBatch)
			for i := range fOutScalar {
				if fOutScalar[i] != fOutBatch[i] {
					t.Fatalf("%s n=%d: forward carry[%d]: batched %v != scalar %v", s.Name(), n, i, fOutBatch[i], fOutScalar[i])
				}
			}

			if bLen > 0 {
				bIn := make([]float64, nb*bLen)
				for i := range bIn {
					bIn[i] = rng.Float64()
				}
				bOutScalar := make([]float64, nb*bLen)
				for b := 0; b < nb; b++ {
					s.Backward(scalar[b], bIn[b*bLen:(b+1)*bLen], bOutScalar[b*bLen:(b+1)*bLen])
				}
				bOutBatch := make([]float64, nb*bLen)
				s.BackwardBatch(panels, nb, bIn, bOutBatch)
				for i := range bOutScalar {
					if bOutScalar[i] != bOutBatch[i] {
						t.Fatalf("%s n=%d: backward carry[%d]: batched %v != scalar %v", s.Name(), n, i, bOutBatch[i], bOutScalar[i])
					}
				}
			}
			requireSamePanel(t, panels, scalar, nv, n, nb)
		}
	}
}

// randomLineInterior builds vecs for a chunk in the middle of a line: band
// entries may reach outside the chunk (the carries cover them).
func randomLineInterior(s Solver, n int, rng *rand.Rand) [][]float64 {
	vecs := make([][]float64, s.NumVecs())
	for v := range vecs {
		vecs[v] = make([]float64, n)
		for k := range vecs[v] {
			vecs[v][k] = rng.Float64()*2 - 1
		}
	}
	switch sv := s.(type) {
	case Recurrence:
		for k := range vecs[0] {
			vecs[0][k] *= 0.5
		}
	case Tridiag:
		for k := 0; k < n; k++ {
			vecs[1][k] = 4 + rng.Float64()
		}
	case Banded:
		kl, ku := sv.KL, sv.KU
		for k := 0; k < n; k++ {
			vecs[kl][k] = 2*float64(kl+ku) + 1 + rng.Float64()
		}
		zeroInsideBands(sv, vecs)
	}
	return vecs
}

func minLineLen(s Solver) int {
	if b, ok := s.(Banded); ok {
		if b.KL > b.KU {
			return b.KL + 1
		}
		return b.KU + 1
	}
	return 1
}

func cloneVecs(vecs [][]float64) [][]float64 {
	out := make([][]float64, len(vecs))
	for v := range vecs {
		out[v] = append([]float64(nil), vecs[v]...)
	}
	return out
}

// TestChunkedSolveWSMatchesChunkedSolve checks the workspace variant is
// exactly the allocating one, and allocation-free once warm.
func TestChunkedSolveWSMatchesChunkedSolve(t *testing.T) {
	for _, s := range batchSolvers() {
		rng := rand.New(rand.NewSource(7))
		n := 31
		a := randomLine(s, n, rng)
		b := cloneVecs(a)
		cuts := []int{4, 11, 19}
		ChunkedSolve(s, a, cuts)
		var ws Workspace
		ChunkedSolveWS(s, b, cuts, &ws)
		for v := range a {
			for k := range a[v] {
				if a[v][k] != b[v][k] {
					t.Fatalf("%s: vec %d elem %d: WS %v != plain %v", s.Name(), v, k, b[v][k], a[v][k])
				}
			}
		}
	}
}

// TestChunkedSolveWSZeroAllocs: the workspace variant must not allocate in
// steady state — it runs inside every executor's inner loop.
func TestChunkedSolveWSZeroAllocs(t *testing.T) {
	s := Tridiag{}
	rng := rand.New(rand.NewSource(3))
	vecs := randomLine(s, 64, rng)
	orig := cloneVecs(vecs)
	cuts := []int{16, 32, 48}
	var ws Workspace
	ChunkedSolveWS(s, vecs, cuts, &ws) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		for v := range vecs {
			copy(vecs[v], orig[v])
		}
		ChunkedSolveWS(s, vecs, cuts, &ws)
	})
	if allocs != 0 {
		t.Fatalf("ChunkedSolveWS allocates %v per run, want 0", allocs)
	}
}

// TestBatchKernelZeroAllocs: the batched kernels themselves must never
// allocate.
func TestBatchKernelZeroAllocs(t *testing.T) {
	for _, s := range []BatchSolver{Recurrence{}, Tridiag{}, NewPenta()} {
		rng := rand.New(rand.NewSource(11))
		nb, n := 16, 32
		lines := make([][][]float64, nb)
		for b := 0; b < nb; b++ {
			lines[b] = randomLineInterior(s, n, rng)
		}
		nv := s.NumVecs()
		panels := packPanel(lines, nv, n, nb)
		save := make([][]float64, nv)
		for v := range panels {
			save[v] = append([]float64(nil), panels[v]...)
		}
		fIn := make([]float64, nb*s.ForwardCarryLen())
		for i := range fIn {
			fIn[i] = rng.Float64() + 1.5
		}
		fOut := make([]float64, nb*s.ForwardCarryLen())
		bIn := make([]float64, nb*s.BackwardCarryLen())
		bOut := make([]float64, nb*s.BackwardCarryLen())
		allocs := testing.AllocsPerRun(10, func() {
			for v := range panels {
				copy(panels[v], save[v])
			}
			s.ForwardBatch(panels, nb, fIn, fOut)
			s.BackwardBatch(panels, nb, bIn, bOut)
		})
		if allocs != 0 {
			t.Fatalf("%s batch kernels allocate %v per run, want 0", s.Name(), allocs)
		}
	}
}

// expectPanic runs f and fails unless it panics with exactly want.
func expectPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic, want %q", what, want)
		}
		if r != want {
			t.Fatalf("%s: panic %q, want %q", what, r, want)
		}
	}()
	f()
}

// isolatedPivotLine returns a diagonally dominant whole line of n rows for
// bd whose row r has a zero pivot: its diagonal and lower couplings are
// zero, so elimination leaves the pivot at zero. Every coupling to x[r] is
// set to zero (±0): the later rows' lower bands, and the earlier rows'
// upper bands, which keeps elimination from filling the former in.
func isolatedPivotLine(bd Banded, n, r int, zero float64, rng *rand.Rand) [][]float64 {
	vecs := randomLine(bd, n, rng)
	vecs[bd.KL][r] = 0
	for j := 1; j <= bd.KL; j++ {
		vecs[j-1][r] = 0
		if r+j < n {
			vecs[j-1][r+j] = zero
		}
	}
	for j := 1; j <= bd.KU && r-j >= 0; j++ {
		vecs[bd.KL+j][r-j] = zero
	}
	return vecs
}

// withLine packs nb random lines for bd with line replacing the one in the
// middle.
func withLine(bd Banded, line [][]float64, n, nb int, rng *rand.Rand) [][]float64 {
	lines := make([][][]float64, nb)
	for b := range lines {
		lines[b] = randomLine(bd, n, rng)
	}
	lines[nb/2] = cloneVecs(line)
	return packPanel(lines, bd.NumVecs(), n, nb)
}

// TestBandedZeroPivotPanics: a zero pivot panics with the same message on
// the scalar and the batched path, whether the generic row loop or the
// pentadiagonal interior loop meets it, and through whichever lower band
// reaches it. A zero pivot that only zero couplings reference is skipped,
// not a panic, and the batched forward pass still matches the scalar one
// bit for bit.
func TestBandedZeroPivotPanics(t *testing.T) {
	const (
		fwdMsg = "sweep: Banded.Forward: zero pivot (system not elimination-stable)"
		bwdMsg = "sweep: Banded.Backward: zero pivot"
		n, nb  = 9, 4
	)
	for _, bd := range []Banded{NewPenta(), {KL: 1, KU: 1}, {KL: 3, KU: 2}} {
		// For the pentadiagonal solver, forward rows 0 and 1 are generic
		// head rows, so only the pivot of row 0 reached through the first
		// lower band is read there; backward, rows n−2 and n−1 are generic
		// tail rows. The interior loop meets every other case.
		for _, r := range []int{0, 1, 3, n - 3, n - 1} {
			rng := rand.New(rand.NewSource(int64(10*r + bd.KL)))
			for k := 1; k <= bd.KL && r+k < n; k++ {
				what := fmt.Sprintf("%s: pivot of row %d read by row %d", bd.Name(), r, r+k)
				line := isolatedPivotLine(bd, n, r, 0, rng)
				line[k-1][r+k] = 0.5
				expectPanic(t, what+", Forward", fwdMsg, func() { bd.Forward(cloneVecs(line), nil, nil) })
				panels := withLine(bd, line, n, nb, rng)
				expectPanic(t, what+", ForwardBatch", fwdMsg, func() { bd.ForwardBatch(panels, nb, nil, nil) })
			}

			what := fmt.Sprintf("%s: zero diagonal at row %d", bd.Name(), r)
			line := randomLine(bd, n, rng)
			line[bd.KL][r] = 0
			expectPanic(t, what+", Backward", bwdMsg, func() { bd.Backward(cloneVecs(line), nil, nil) })
			panels := withLine(bd, line, n, nb, rng)
			expectPanic(t, what+", BackwardBatch", bwdMsg, func() { bd.BackwardBatch(panels, nb, nil, nil) })

			scalar := make([][][]float64, nb)
			for b := range scalar {
				scalar[b] = isolatedPivotLine(bd, n, r, math.Copysign(0, float64(b%2)-0.5), rng)
			}
			panels = packPanel(scalar, bd.NumVecs(), n, nb)
			for b := range scalar {
				bd.Forward(scalar[b], nil, nil)
			}
			bd.ForwardBatch(panels, nb, nil, nil)
			requireSamePanel(t, panels, scalar, bd.NumVecs(), n, nb)
		}
	}
}
