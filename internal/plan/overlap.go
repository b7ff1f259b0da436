// Overlap annotation: the boundary-first split that lets executors hide the
// carry wire behind interior compute (DESIGN.md §14). The split is a plan
// property, not an executor trick — Compile computes one Boundary per phase
// and mints the interior-message tags, Validate checks the split is
// conservative (boundary ∪ interior == the full line set, carry bytes
// unchanged), and both runtimes plus the cost model fold over the same
// annotated schedule.
package plan

import "fmt"

// DefaultOverlapFrac is the boundary share of each phase's lines in an
// overlap plan. It matches the causal engine's default
// `overlap:` perturbation fraction (obs/causal), so `critpath -whatif`
// predictions and the executed schedule describe the same split.
const DefaultOverlapFrac = 0.25

// interiorTagDelta offsets a phase's interior-message tag from its boundary
// tag. Base tag offsets are (dim·2+pass)<<20 | phase — far below 2²⁶ for
// any real schedule — so the shifted band cannot collide, and it stays
// inside the 2²⁸-wide SweepTags reservation.
const interiorTagDelta = 1 << 26

// Overlap configures the boundary-first split of every phase's compute.
type Overlap struct {
	// Enabled turns the split on: each phase solves DefaultOverlapFrac of
	// its lines (the boundary share) before the carry posts and the
	// remaining interior lines while the boundary carry is in flight. Off
	// (the default), plans are byte-identical to pre-overlap compiles:
	// Boundary stays 0 everywhere and the fingerprint is unchanged.
	Enabled bool
}

// BoundaryLines returns the boundary share of a phase's line count: at
// least 1 and at most lines−1, so both halves of a split are non-empty.
// Phases too small to split (lines < 2) return 0.
func BoundaryLines(lines int, frac float64) int {
	if lines < 2 {
		return 0
	}
	b := int(frac*float64(lines) + 0.5)
	if b < 1 {
		b = 1
	}
	if b > lines-1 {
		b = lines - 1
	}
	return b
}

// InteriorBoundary returns the boundary and interior line counts of a
// phase: (Boundary, Lines−Boundary) when split, (Lines, 0) otherwise — the
// unsplit phase is "all boundary" so executors can treat both cases with
// one loop.
func (ph *Phase) InteriorBoundary() (boundary, interior int) {
	if ph.Boundary <= 0 {
		return ph.Lines, 0
	}
	return ph.Boundary, ph.Lines - ph.Boundary
}

// applyOverlap annotates every phase of a compiled plan with its boundary
// split and interior-message tags. Splitting is per phase: a phase splits
// when it communicates at all (otherwise there is no wire to hide) and has
// at least two lines. Because matched send/recv phases carry equal line
// counts (validateSymmetry), computing Boundary from Lines alone keeps the
// two sides of every channel in agreement by construction.
func (pl *SweepPlan) applyOverlap() {
	pl.Overlap = Overlap{Enabled: true}
	for q := range pl.Passes {
		for k := range pl.Passes[q] {
			pass := &pl.Passes[q][k]
			for i := range pass.Phases {
				ph := &pass.Phases[i]
				if ph.RecvFrom < 0 && ph.SendTo < 0 {
					continue
				}
				ph.Boundary = BoundaryLines(ph.Lines, DefaultOverlapFrac)
				if ph.Boundary == 0 {
					continue
				}
				if ph.RecvFrom >= 0 {
					ph.InteriorRecvTag = ph.RecvTag + interiorTagDelta
				}
				if ph.SendTo >= 0 {
					ph.InteriorSendTag = ph.SendTag + interiorTagDelta
				}
			}
		}
	}
}

// validateOverlap checks the overlap annotation: with the knob off every
// phase must be unsplit; with it on, every split must be conservative —
// 0 < Boundary < Lines so boundary ∪ interior is exactly the phase's line
// set, interior tags present (inside the reservation, offset from the
// boundary tag) exactly on the communicating sides, and total carry bytes
// unchanged (SendBytes/RecvBytes still cover Lines, which validateShape
// already pinned). Cross-rank Boundary agreement is checked with the other
// symmetry properties in validateSymmetry.
func (pl *SweepPlan) validateOverlap() error {
	for q, passes := range pl.Passes {
		for k := range passes {
			pass := &passes[k]
			for i := range pass.Phases {
				ph := &pass.Phases[i]
				at := phaseAt{q, pass, i}
				if !pl.Overlap.Enabled {
					if ph.Boundary != 0 || ph.InteriorRecvTag != 0 || ph.InteriorSendTag != 0 {
						return fmt.Errorf("plan: %s: overlap annotation (boundary %d) on a plan compiled without Overlap", at, ph.Boundary)
					}
					continue
				}
				if ph.Boundary == 0 {
					if ph.InteriorRecvTag != 0 || ph.InteriorSendTag != 0 {
						return fmt.Errorf("plan: %s: interior tags on an unsplit phase", at)
					}
					continue
				}
				if ph.Boundary < 0 || ph.Boundary >= ph.Lines {
					return fmt.Errorf("plan: %s: boundary %d outside (0, %d) — boundary ∪ interior must equal the phase's lines",
						at, ph.Boundary, ph.Lines)
				}
				b, in := ph.InteriorBoundary()
				if b+in != ph.Lines {
					return fmt.Errorf("plan: %s: boundary %d + interior %d ≠ %d lines", at, b, in, ph.Lines)
				}
				if ph.RecvFrom >= 0 {
					if ph.InteriorRecvTag != ph.RecvTag+interiorTagDelta {
						return fmt.Errorf("plan: %s: interior recv tag %d, want boundary tag %d + %d",
							at, ph.InteriorRecvTag, ph.RecvTag, interiorTagDelta)
					}
					if !pl.Tags.Contains(ph.InteriorRecvTag) {
						return fmt.Errorf("plan: %s: interior recv tag %d outside reservation %q [%d,+%d)",
							at, ph.InteriorRecvTag, pl.Tags.Name(), pl.Tags.Base(), pl.Tags.Size())
					}
				} else if ph.InteriorRecvTag != 0 {
					return fmt.Errorf("plan: %s: interior recv tag on a phase with no upstream", at)
				}
				if ph.SendTo >= 0 {
					if ph.InteriorSendTag != ph.SendTag+interiorTagDelta {
						return fmt.Errorf("plan: %s: interior send tag %d, want boundary tag %d + %d",
							at, ph.InteriorSendTag, ph.SendTag, interiorTagDelta)
					}
					if !pl.Tags.Contains(ph.InteriorSendTag) {
						return fmt.Errorf("plan: %s: interior send tag %d outside reservation %q [%d,+%d)",
							at, ph.InteriorSendTag, pl.Tags.Name(), pl.Tags.Base(), pl.Tags.Size())
					}
				} else if ph.InteriorSendTag != 0 {
					return fmt.Errorf("plan: %s: interior send tag on a phase with no downstream", at)
				}
			}
		}
	}
	return nil
}
