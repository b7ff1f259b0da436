package obs

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzPlanFromJSON feeds arbitrary bytes through the worker side of plan
// shipping: decoding a dump and reconstructing its schedule must either
// fail or yield a plan that Validates — never panic. The seeds are the
// committed class S dump and the same dump with two of rank 0's tile
// coordinates swapped, rects unchanged (Validate must reject it: the
// executor binds storage by coordinate).
func FuzzPlanFromJSON(f *testing.F) {
	data, err := os.ReadFile("../../PLAN_sp4.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	pf, err := decode[PlanFile](data, "PLAN_sp4.json", planType)
	if err != nil {
		f.Fatal(err)
	}
	phases := pf.Plan.Ranks[0].Passes[0].Phases
	a, b := &phases[0].Tiles[0], &phases[1].Tiles[0]
	a.Coord, b.Coord = b.Coord, a.Coord
	swapped, err := json.Marshal(pf)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := PlanFromJSON(pf.Plan); err == nil {
		f.Fatal("plan with swapped tile coordinates accepted")
	}
	f.Add(swapped)
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := decode[PlanFile](data, "fuzz input", planType)
		if err != nil {
			return
		}
		pl, err := PlanFromJSON(pf.Plan)
		if err != nil {
			return
		}
		if err := pl.Validate(); err != nil {
			t.Fatalf("PlanFromJSON returned a plan that fails Validate: %v", err)
		}
	})
}
