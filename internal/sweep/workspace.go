package sweep

// WorkspaceStats counts arena traffic: Gets is the number of buffer
// acquisitions served (one per Panels/Views/CarryPair/Bounds call), Hits
// the subset satisfied entirely from existing capacity, with no heap
// allocation. In steady state every acquisition is a hit.
type WorkspaceStats struct {
	Gets int64
	Hits int64
}

// HitRate is Hits/Gets, or 0 for an unused workspace (never NaN).
func (s WorkspaceStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Workspace is a reusable per-rank (or per-goroutine) arena for the
// scratch a sweep executor needs: packed SoA panels for the batches that
// cannot be solved in place, chunk view headers, carry buffers and chunk
// bounds. Buffers grow monotonically and are reused across calls, so
// steady-state sweep iterations perform no heap allocations. A Workspace
// is NOT safe for concurrent use; executors keep one per rank.
type Workspace struct {
	panels         [][]float64
	views          [][]float64
	carryA, carryB []float64
	bounds         []int
	stats          WorkspaceStats
}

// Stats reports cumulative acquisition counts since the workspace was
// created (or since ResetStats).
func (w *Workspace) Stats() WorkspaceStats { return w.stats }

// ResetStats zeroes the acquisition counters without releasing buffers,
// so a warmed-up workspace can be measured from a steady-state baseline.
func (w *Workspace) ResetStats() { w.stats = WorkspaceStats{} }

// Panels returns nv panel slices of elems elements each, reusing prior
// capacity. Contents are unspecified; callers overwrite them (GatherLines
// fills every element).
func (w *Workspace) Panels(nv, elems int) [][]float64 {
	w.stats.Gets++
	hit := true
	if cap(w.panels) < nv {
		w.panels = append(w.panels[:cap(w.panels)], make([][]float64, nv-cap(w.panels))...)
		hit = false
	}
	w.panels = w.panels[:nv]
	for v := range w.panels {
		if cap(w.panels[v]) < elems {
			w.panels[v] = make([]float64, elems)
			hit = false
		}
		w.panels[v] = w.panels[v][:elems]
	}
	if hit {
		w.stats.Hits++
	}
	return w.panels
}

// Views returns nv slice headers for chunk views (contents overwritten by
// the caller), reusing prior capacity.
func (w *Workspace) Views(nv int) [][]float64 {
	w.stats.Gets++
	if cap(w.views) < nv {
		w.views = make([][]float64, nv)
	} else {
		w.stats.Hits++
	}
	return w.views[:nv]
}

// CarryPair returns two carry buffers of n elements each (the in/out pair
// a chunk loop swaps), reusing prior capacity.
func (w *Workspace) CarryPair(n int) (a, b []float64) {
	w.stats.Gets++
	hit := true
	if cap(w.carryA) < n {
		w.carryA = make([]float64, n)
		hit = false
	}
	if cap(w.carryB) < n {
		w.carryB = make([]float64, n)
		hit = false
	}
	if hit {
		w.stats.Hits++
	}
	return w.carryA[:n], w.carryB[:n]
}

// Bounds returns [0, cuts..., n] reusing prior capacity.
func (w *Workspace) Bounds(cuts []int, n int) []int {
	w.stats.Gets++
	need := len(cuts) + 2
	if cap(w.bounds) < need {
		w.bounds = make([]int, 0, need)
	} else {
		w.stats.Hits++
	}
	w.bounds = w.bounds[:0]
	w.bounds = append(w.bounds, 0)
	w.bounds = append(w.bounds, cuts...)
	w.bounds = append(w.bounds, n)
	return w.bounds
}

// ChunkedSolveWS is ChunkedSolve with caller-provided scratch: zero heap
// allocations once ws has warmed up. Results are identical to ChunkedSolve
// (same Forward/Backward call sequence on the same views).
func ChunkedSolveWS(s Solver, vecs [][]float64, cuts []int, ws *Workspace) {
	n := len(vecs[0])
	bounds := ws.Bounds(cuts, n)
	nv := len(vecs)
	chunk := ws.Views(nv)

	fLen := s.ForwardCarryLen()
	var cIn, cOut []float64
	if fLen > 0 {
		cIn, cOut = ws.CarryPair(fLen)
	}
	first := true
	for c := 0; c+1 < len(bounds); c++ {
		lo, hi := bounds[c], bounds[c+1]
		for v := 0; v < nv; v++ {
			chunk[v] = vecs[v][lo:hi]
		}
		if first {
			s.Forward(chunk, nil, cOut)
			first = false
		} else {
			s.Forward(chunk, cIn, cOut)
		}
		cIn, cOut = cOut, cIn
	}

	bLen := s.BackwardCarryLen()
	if bLen == 0 {
		return
	}
	bIn, bOut := ws.CarryPair(bLen)
	first = true
	for c := len(bounds) - 2; c >= 0; c-- {
		lo, hi := bounds[c], bounds[c+1]
		for v := 0; v < nv; v++ {
			chunk[v] = vecs[v][lo:hi]
		}
		if first {
			s.Backward(chunk, nil, bOut)
			first = false
		} else {
			s.Backward(chunk, bIn, bOut)
		}
		bIn, bOut = bOut, bIn
	}
}
