package cost

import "genmp/internal/plan"

// PlanSweepTime returns Tᵢ(p) folded over a compiled multipartitioned
// sweep plan — the same schedule the executors run — instead of the closed
// form over (η, γ). The fold reproduces Section 3.1 term by term:
//
//   - K₁ volume: the elements the plan computes along dim, summed over
//     ranks (exactly η for a complete schedule), divided by p.
//   - Per boundary: each forward-pass phase index at which any rank ships
//     carries is one synchronized communication step — all ranks cross the
//     same slab boundary at once — costing one K₂ start-up plus K₃(p) per
//     line of the crossing hyper-surface (the plan's per-phase line counts
//     summed over ranks, exactly η/ηᵢ per boundary).
//
// The calibrated K₂/K₃ already carry the per-pass factors
// (SweepWorkload.Passes, CarryBytesPerLine summed over passes), so only
// forward-pass boundaries are counted, mirroring the (γᵢ−1) of the closed
// form. For an evenly divided array the fold agrees with SweepTime to
// float precision; wavefront plans are outside this model (their phases
// pipeline rather than synchronize).
// An overlap-annotated plan (pl.Overlap.Enabled with split phases) is
// folded with the overlapped communication model instead: each boundary
// ships two messages (boundary carry, interior carry) paying two K₂
// start-ups, but the wire time hides behind the sender's interior compute —
// the effective wait per boundary is max(0, K₃(p)·lines − interior compute
// share), exactly the schedule the executors run (DESIGN.md §14).
func (m Model) PlanSweepTime(pl *plan.SweepPlan, dim int) float64 {
	p := pl.P
	t := m.K1 * float64(pl.Elements(dim)) / float64(p)
	for k := range pl.Pass(0, dim, false).Phases {
		lines := 0
		sends, split := false, false
		interElems := 0
		for q := 0; q < p; q++ {
			ph := &pl.Pass(q, dim, false).Phases[k]
			if ph.SendTo < 0 {
				continue
			}
			sends = true
			lines += ph.Lines
			if ph.Boundary > 0 {
				split = true
				// Elements of the phase's interior lines [Boundary, Lines):
				// the compute that runs while the boundary carry is in
				// flight. The split point clips each tile in canonical line
				// order, exactly as the executors do.
				for ti := range ph.Tiles {
					tg := &ph.Tiles[ti]
					lo := max(ph.Boundary, tg.LineOff)
					hi := tg.LineOff + tg.Lines
					if lo < hi {
						interElems += (hi - lo) * tg.ChunkLen
					}
				}
			}
		}
		if !sends {
			continue
		}
		wire := m.K3(p) * float64(lines)
		if pl.Overlap.Enabled && split {
			hide := m.K1 * float64(interElems) / float64(p)
			t += 2*m.K2 + max(0, wire-hide)
		} else {
			t += m.K2 + wire
		}
	}
	return t
}
