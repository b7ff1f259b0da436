package plan_test

import (
	"testing"

	"genmp/internal/core"
	"genmp/internal/plan"
	"genmp/internal/sweep"
)

// TestValidateDiagnostics pins the full error text of one failure per
// validator. Locations are rendered only when a check fails, so these are
// the only tests that see them; they must read "rank %d dim %d %s phase
// %d" exactly as the eagerly formatted labels did.
func TestValidateDiagnostics(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, pl *plan.SweepPlan)
		want    string
	}{
		{"shape", func(t *testing.T, pl *plan.SweepPlan) {
			sendingPhase(t, pl, 0, 0).SendBytes += 8
		}, "plan: rank 0 dim 2 forward phase 0: SendBytes = 2312, want 36 lines × 8 carries × 8"},
		{"tile geometry", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Pass(1, 0, true).Phases[1].Tiles[0].ChunkLen++
		}, "plan: rank 1 dim 0 backward phase 1 tile 0: chunk length 7, want the rect's extent 6 along dim 0"},
		{"swapped coordinates", func(t *testing.T, pl *plan.SweepPlan) {
			// Coords are shared with the rank's other passes: swap the
			// slices, not their contents.
			pass := pl.Pass(0, 0, false)
			a, b := &pass.Phases[0].Tiles[0], &pass.Phases[1].Tiles[0]
			a.Coord, b.Coord = b.Coord, a.Coord
		}, "plan: rank 0 dim 0 forward phase 0 tile 0: coordinate [1 0 1] does not name rect lo [0 0 0] hi [6 6 3] in γ = [2 2 4]"},
		{"coordinate outside γ", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Pass(0, 0, false).Phases[0].Tiles[0].Coord = []int{99, 99, 99}
		}, "plan: rank 0 dim 0 forward phase 0 tile 0: coordinate [99 99 99] does not name rect lo [0 0 0] hi [6 6 3] in γ = [2 2 4]"},
		{"empty γ", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Gamma = []int{0, 0, 0}
		}, "plan: γ[0] = 0 breaks 1 ≤ γ ≤ η = 12"},
		{"unknown kind", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Kind = "junk"
		}, "plan: unknown kind \"junk\""},
		{"tags", func(t *testing.T, pl *plan.SweepPlan) {
			sendingPhase(t, pl, 0, 1).SendTag = sendingPhase(t, pl, 0, 0).SendTag
		}, "plan: rank 0 dim 2 forward phase 1: send tag 272629761 to rank 1 already used by rank 0 dim 2 forward phase 0 — tag overlap"},
		{"overlap", func(t *testing.T, pl *plan.SweepPlan) {
			pl.Pass(1, 1, true).Phases[0].Boundary = 3
		}, "plan: rank 1 dim 1 backward phase 0: overlap annotation (boundary 3) on a plan compiled without Overlap"},
		{"symmetry", func(t *testing.T, pl *plan.SweepPlan) {
			// Reroute the receiver's upstream consistently, as in
			// TestValidateFailurePaths' "recv source mismatch".
			first := sendingPhase(t, pl, 0, 0)
			peer := pl.Pass(first.SendTo, 2, false)
			for i := range peer.Phases {
				if peer.Phases[i].RecvFrom >= 0 {
					peer.Phases[i].RecvFrom = 2
				}
			}
		}, "plan: rank 0 dim 2 forward phase 0: sends to rank 1, whose phase 1 receives from rank 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := compile(t)
			c.corrupt(t, pl)
			err := pl.Validate()
			if err == nil || err.Error() != c.want {
				t.Fatalf("err = %v\nwant %s", err, c.want)
			}
		})
	}
}

// TestValidateAllocs guards the passing path: Validate allocates a bounded
// amount per rank, not per phase, because locations are formatted only on
// failure and one channel map serves every rank.
func TestValidateAllocs(t *testing.T) {
	m, err := core.NewGeneralized(30, []int{10, 15, 6})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(plan.Spec{M: m, Eta: []int{40, 45, 36}, Solver: sweep.NewPenta()})
	if err != nil {
		t.Fatal(err)
	}
	phases := 0
	for _, passes := range pl.Passes {
		for _, pass := range passes {
			phases += len(pass.Phases)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := pl.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*pl.P + 16); allocs > limit {
		t.Errorf("Validate allocates %.0f times for %d ranks and %d phases, want ≤ %.0f", allocs, pl.P, phases, limit)
	}
}
