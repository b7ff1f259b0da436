package plan_test

import (
	"slices"
	"strings"
	"testing"

	"genmp/internal/core"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sweep"
)

// compile builds a 4-rank 2×2×4 plan over a 12³ array: γ[2] = 4 gives
// multi-phase passes (several sends per pass) so every Validate check has
// something to bite on.
func compile(t *testing.T) *plan.SweepPlan {
	t.Helper()
	m, err := core.NewGeneralized(4, []int{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(plan.Spec{M: m, Eta: []int{12, 12, 12}, Solver: sweep.NewPenta()})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// compileWavefront builds a 4-rank wavefront plan over 16×8×8 whose 64
// lines per slab travel in 4 blocks of 16.
func compileWavefront(t *testing.T) *plan.SweepPlan {
	t.Helper()
	pl, err := plan.CompileWavefront(plan.WavefrontSpec{
		P: 4, Eta: []int{16, 8, 8}, Dim: 0, Grain: 16, Solver: sweep.Tridiag{}})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestCompileMultipartition(t *testing.T) {
	pl := compile(t)
	if err := pl.Validate(); err != nil {
		t.Fatalf("fresh plan invalid: %v", err)
	}
	if pl.Kind != plan.KindMultipartition || pl.P != 4 || pl.Dim != -1 {
		t.Errorf("header = kind %v p %d dim %d", pl.Kind, pl.P, pl.Dim)
	}
	s := sweep.NewPenta()
	if pl.ForwardCarry != s.ForwardCarryLen() || pl.BackwardCarry != s.BackwardCarryLen() {
		t.Errorf("carries = %d/%d, want solver's %d/%d",
			pl.ForwardCarry, pl.BackwardCarry, s.ForwardCarryLen(), s.BackwardCarryLen())
	}

	eta := 12 * 12 * 12
	for dim := 0; dim < 3; dim++ {
		// Balance: the full sweep covers the array exactly once.
		if got := pl.Elements(dim); got != eta {
			t.Errorf("Elements(%d) = %d, want %d", dim, got, eta)
		}
		// Traffic: (γ−1) slab boundaries, a full η/η_dim cross-section of
		// lines each, both directions.
		gamma := []int{2, 2, 4}[dim]
		want := (gamma - 1) * (eta / 12) * (s.ForwardCarryLen() + s.BackwardCarryLen()) * 8
		if got := pl.DimSendBytes(dim); got != want {
			t.Errorf("DimSendBytes(%d) = %d, want %d", dim, got, want)
		}
	}
	if pl.TotalSendBytes() != pl.DimSendBytes(0)+pl.DimSendBytes(1)+pl.DimSendBytes(2) {
		t.Error("TotalSendBytes is not the per-dimension sum")
	}

	// Phase counts equal the slab count; tags stay inside the reservation;
	// the chain is open at both ends.
	for q := 0; q < 4; q++ {
		for dim := 0; dim < 3; dim++ {
			for _, bwd := range []bool{false, true} {
				pp := pl.Pass(q, dim, bwd)
				if len(pp.Phases) != []int{2, 2, 4}[dim] {
					t.Fatalf("rank %d dim %d has %d phases", q, dim, len(pp.Phases))
				}
				for i := range pp.Phases {
					ph := &pp.Phases[i]
					if ph.SendTo >= 0 && !pl.Tags.Contains(ph.SendTag) {
						t.Errorf("send tag %d outside reservation", ph.SendTag)
					}
					if i == 0 && ph.RecvFrom != -1 {
						t.Errorf("rank %d dim %d phase 0 receives from %d, want -1", q, dim, ph.RecvFrom)
					}
					if i == len(pp.Phases)-1 && ph.SendTo != -1 {
						t.Errorf("rank %d dim %d last phase sends to %d, want -1", q, dim, ph.SendTo)
					}
				}
			}
		}
	}

	// Fingerprints are deterministic and ignore the Halos metadata.
	m2, _ := core.NewGeneralized(4, []int{2, 2, 4})
	pl2, err := plan.Compile(plan.Spec{M: m2, Eta: []int{12, 12, 12}, Solver: sweep.NewPenta(),
		Halos: []int{2, 2, 2, 2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Fingerprint() != pl2.Fingerprint() {
		t.Error("fingerprint depends on Halos metadata")
	}
	if !strings.Contains(pl.Summary(), "multipartition plan") {
		t.Errorf("summary = %q", pl.Summary())
	}
}

// TestBackwardPhasesShareForwardWindows pins the sharing Compile relies on
// to halve the tile records: backward phase k of a (rank, dim) runs the slab
// of forward phase γ_dim−1−k and takes that phase's Tiles window, the same
// backing records at the same length and capacity.
func TestBackwardPhasesShareForwardWindows(t *testing.T) {
	pl := compile(t)
	for q := 0; q < pl.P; q++ {
		for dim, g := range pl.Gamma {
			fw, bw := pl.Pass(q, dim, false), pl.Pass(q, dim, true)
			for k := 0; k < g; k++ {
				a, b := fw.Phases[g-1-k].Tiles, bw.Phases[k].Tiles
				if len(a) == 0 || &a[0] != &b[0] || len(a) != len(b) || cap(a) != cap(b) {
					t.Fatalf("rank %d dim %d: backward phase %d does not share forward phase %d's Tiles window", q, dim, k, g-1-k)
				}
			}
		}
	}
}

func TestCompileWavefront(t *testing.T) {
	pl, err := plan.CompileWavefront(plan.WavefrontSpec{
		P: 4, Eta: []int{16, 8, 8}, Dim: 0, Grain: 16, Solver: sweep.Tridiag{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatalf("wavefront plan invalid: %v", err)
	}
	if pl.Kind != plan.KindWavefront || pl.Dim != 0 || pl.Grain != 16 {
		t.Errorf("header = %v dim %d grain %d", pl.Kind, pl.Dim, pl.Grain)
	}
	// 8×8 = 64 lines in grains of 16 → 4 pipeline blocks per rank, chained
	// rank to rank.
	for q := 0; q < 4; q++ {
		pp := pl.Pass(q, 0, false)
		if len(pp.Phases) != 4 {
			t.Fatalf("rank %d has %d blocks, want 4", q, len(pp.Phases))
		}
		for _, ph := range pp.Phases {
			if q > 0 && ph.RecvFrom != q-1 {
				t.Errorf("rank %d receives from %d", q, ph.RecvFrom)
			}
			if q < 3 && ph.SendTo != q+1 {
				t.Errorf("rank %d sends to %d", q, ph.SendTo)
			}
		}
	}
	// The last block of an uneven split is short.
	pl2, err := plan.CompileWavefront(plan.WavefrontSpec{
		P: 2, Eta: []int{8, 5, 5}, Dim: 0, Grain: 16, Solver: sweep.Tridiag{}})
	if err != nil {
		t.Fatal(err)
	}
	pp := pl2.Pass(0, 0, false)
	if len(pp.Phases) != 2 || pp.Phases[1].Lines != 25-16 {
		t.Errorf("uneven split: %d blocks, last %d lines", len(pp.Phases), pp.Phases[len(pp.Phases)-1].Lines)
	}
	if err := pl2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompileErrors(t *testing.T) {
	m, err := core.NewGeneralized(4, []int{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		spec    plan.Spec
		wantSub string
	}{
		{"nil mapping", plan.Spec{Eta: []int{8, 8, 8}, Solver: sweep.Tridiag{}}, "M is nil"},
		{"nil solver", plan.Spec{M: m, Eta: []int{8, 8, 8}}, "Solver is nil"},
		{"rank mismatch", plan.Spec{M: m, Eta: []int{8, 8}, Solver: sweep.Tridiag{}}, "extents"},
		{"extent under gamma", plan.Spec{M: m, Eta: []int{8, 8, 3}, Solver: sweep.Tridiag{}}, "smaller than cut count"},
	}
	for _, c := range cases {
		if _, err := plan.Compile(c.spec); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantSub)
		}
	}

	wcases := []struct {
		name    string
		spec    plan.WavefrontSpec
		wantSub string
	}{
		{"bad p", plan.WavefrontSpec{P: 0, Eta: []int{8, 8}, Dim: 0, Grain: 4, Solver: sweep.Tridiag{}}, "p = 0"},
		{"bad dim", plan.WavefrontSpec{P: 2, Eta: []int{8, 8}, Dim: 2, Grain: 4, Solver: sweep.Tridiag{}}, "out of range"},
		{"bad grain", plan.WavefrontSpec{P: 2, Eta: []int{8, 8}, Dim: 0, Grain: 0, Solver: sweep.Tridiag{}}, "grain"},
		{"thin extent", plan.WavefrontSpec{P: 16, Eta: []int{8, 8}, Dim: 0, Grain: 4, Solver: sweep.Tridiag{}}, "smaller than p"},
		{"nil solver", plan.WavefrontSpec{P: 2, Eta: []int{8, 8}, Dim: 0, Grain: 4}, "Solver is nil"},
	}
	for _, c := range wcases {
		if _, err := plan.CompileWavefront(c.spec); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

// sendingPhase returns the skip-th phase of rank q's dim-2 forward pass that
// ships carries; γ[2] = 4 guarantees three of them.
func sendingPhase(t *testing.T, pl *plan.SweepPlan, q, skip int) *plan.Phase {
	t.Helper()
	pp := pl.Pass(q, 2, false)
	for i := range pp.Phases {
		if pp.Phases[i].SendTo >= 0 {
			if skip == 0 {
				return &pp.Phases[i]
			}
			skip--
		}
	}
	t.Fatal("no sending phase found")
	return nil
}

func TestValidateFailurePaths(t *testing.T) {
	// Each case corrupts a fresh plan in a way that slips past the earlier
	// checks and trips exactly the one under test. Cases named "wavefront…"
	// corrupt a wavefront plan, the rest a multipartitioned one.
	cases := []struct {
		name    string
		corrupt func(t *testing.T, pl *plan.SweepPlan)
		wantSub string
	}{
		{"lines vs tiles", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Pass(0, 0, false).Phases[0].Lines++
		}, "tiles hold"},
		{"send bytes formula", func(t *testing.T, pl *plan.SweepPlan) {
			sendingPhase(t, pl, 0, 0).SendBytes += 8
		}, "SendBytes"},
		{"self send", func(t *testing.T, pl *plan.SweepPlan) {
			sendingPhase(t, pl, 0, 0).SendTo = 0
		}, "itself"},
		{"peer out of range", func(t *testing.T, pl *plan.SweepPlan) {
			sendingPhase(t, pl, 0, 0).SendTo = pl.P
		}, "out of range"},
		{"carry length", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Pass(1, 0, true).CarryLen++
		}, "carry length"},
		{"neighbor property", func(t *testing.T, pl *plan.SweepPlan) {
			// Two sending phases of one pass naming different downstream
			// ranks: exactly what phase-aggregated messages cannot survive.
			first := sendingPhase(t, pl, 0, 0)
			second := sendingPhase(t, pl, 0, 1)
			for other := 1; other < pl.P; other++ {
				if other != first.SendTo {
					second.SendTo = other
					return
				}
			}
			t.Fatal("no alternative peer")
		}, "neighbor property"},
		{"tag outside reservation", func(t *testing.T, pl *plan.SweepPlan) {
			sendingPhase(t, pl, 0, 0).SendTag = 5
		}, "outside reservation"},
		{"tag overlap", func(t *testing.T, pl *plan.SweepPlan) {
			first := sendingPhase(t, pl, 0, 0)
			second := sendingPhase(t, pl, 0, 1)
			second.SendTag = first.SendTag
		}, "tag overlap"},
		{"recv source mismatch", func(t *testing.T, pl *plan.SweepPlan) {
			// Reroute the peer's receives to a different upstream —
			// consistently, so the neighbor check passes and only the
			// sender's symmetry check can notice.
			first := sendingPhase(t, pl, 0, 0)
			peer := pl.Pass(first.SendTo, 2, false)
			other := -1
			for cand := 1; cand < pl.P; cand++ {
				if cand != first.SendTo {
					other = cand
					break
				}
			}
			rerouted := false
			for i := range peer.Phases {
				if peer.Phases[i].RecvFrom >= 0 {
					peer.Phases[i].RecvFrom = other
					rerouted = true
				}
			}
			if !rerouted {
				t.Fatal("no receive to reroute")
			}
		}, "receives from"},
		{"byte-count symmetry", func(t *testing.T, pl *plan.SweepPlan) {
			// Drop the last tile of the receiver's final phase
			// self-consistently (lines and bytes follow) so only the
			// cross-rank byte comparison can notice. A shrunk tile rect
			// would not do: Validate checks every rect against its tile
			// coordinate.
			first := sendingPhase(t, pl, 0, 0)
			peer := pl.Pass(first.SendTo, 2, false)
			last := &peer.Phases[len(peer.Phases)-1]
			if last.SendTo >= 0 || last.RecvFrom < 0 {
				t.Fatal("expected a recv-only final phase")
			}
			n := len(last.Tiles) - 1
			last.Lines -= last.Tiles[n].Lines
			last.Tiles = last.Tiles[:n]
			last.RecvBytes = last.Lines * pl.ForwardCarry * 8
		}, "byte-count symmetry"},
		// Tile geometry: each case breaks one tile's Rect or line counts.
		// Rects are shared across a rank's passes, so the cases replace a
		// tile's Rect instead of writing through it.
		{"rect rank", func(t *testing.T, pl *plan.SweepPlan) {
			tile := &pl.Pass(0, 1, false).Phases[0].Tiles[0]
			tile.Rect = grid.RectOf(tile.Rect.Lo[:2], tile.Rect.Hi)
		}, "rect has 2 lower and 3 upper bounds for 3 dimensions"},
		{"rect outside eta", func(t *testing.T, pl *plan.SweepPlan) {
			tile := &pl.Pass(0, 2, false).Phases[0].Tiles[0]
			hi := slices.Clone(tile.Rect.Hi)
			hi[0] = pl.Eta[0] + 1
			tile.Rect = grid.RectOf(tile.Rect.Lo, hi)
		}, "breaks 0 ≤ lo < hi ≤ η"},
		{"chunk length", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Pass(1, 0, false).Phases[1].Tiles[0].ChunkLen++
		}, "chunk length"},
		{"empty tile", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Pass(2, 1, true).Phases[0].Tiles[0].Lines = 0
		}, "want at least 1"},
		{"lines vs rect", func(t *testing.T, pl *plan.SweepPlan) {
			tiles := pl.Pass(3, 2, true).Phases[0].Tiles
			tiles[len(tiles)-1].Lines++
		}, "cross-section holds"},
		{"wavefront lines past rect", func(t *testing.T, pl *plan.SweepPlan) {
			// Grow the last block's lines, consistently with its phase and
			// bytes, past the end of the slab's cross-section.
			phases := pl.Pass(0, 0, false).Phases
			ph := &phases[len(phases)-1]
			ph.Tiles[0].Lines++
			ph.Lines++
			ph.SendBytes = ph.Lines * pl.ForwardCarry * 8
		}, "run past the rect's cross-section"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := compile(t)
			if strings.HasPrefix(c.name, "wavefront") {
				pl = compileWavefront(t)
			}
			c.corrupt(t, pl)
			err := pl.Validate()
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestValidateShapeErrors(t *testing.T) {
	pl := compile(t)
	pl.Passes = pl.Passes[:2]
	if err := pl.Validate(); err == nil || !strings.Contains(err.Error(), "rank schedules") {
		t.Errorf("truncated rank table: %v", err)
	}
	pl = compile(t)
	pl.Passes[1] = pl.Passes[1][:3]
	if err := pl.Validate(); err == nil || !strings.Contains(err.Error(), "passes") {
		t.Errorf("truncated pass table: %v", err)
	}
	pl = compile(t)
	pl.Pass(0, 2, false).Phases[1].Tiles[0].LineOff++
	if err := pl.Validate(); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Errorf("broken canonical order: %v", err)
	}
}
