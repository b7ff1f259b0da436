package exp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// SP, BT and ADI each have one per-rank body behind every entry point, run
// with data or model-only. Without partial replication (R = 0, the
// hand-coded overhead model) the two modes price a run identically, so
// their makespans must agree to the bit — with overlap off and on.
func TestDataMatchesModelMakespan(t *testing.T) {
	eta := []int{12, 12, 12}
	const steps = 2
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: steps}
	for _, p := range []int{4, 16} {
		m, err := core.NewGeneralized(p, overlapGamma[p])
		if err != nil {
			t.Fatal(err)
		}
		env, err := dist.NewEnv(m, eta, dist.HandCoded())
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []plan.Overlap{{}, overlapOn} {
			spPlan, err := nas.CompilePlanOverlap(env, o)
			if err != nil {
				t.Fatal(err)
			}
			btPlan, err := dist.CompileSweepPlanOverlap(env, sweep.NewBlockTridiag(nas.BTBlockSize), o)
			if err != nil {
				t.Fatal(err)
			}
			apps := []struct {
				name    string
				initial func() *grid.Grid
				run     func(u *grid.Grid) (sim.Result, error)
			}{
				{"sp", func() *grid.Grid { return nas.InitialState(eta) }, func(u *grid.Grid) (sim.Result, error) {
					return nas.RunPlanned(env, nas.Origin2000Machine(p), steps, u, spPlan)
				}},
				{"bt", func() *grid.Grid { return nas.InitialState(eta) }, func(u *grid.Grid) (sim.Result, error) {
					return nas.BTRunPlanned(env, nas.Origin2000Machine(p), steps, u, btPlan)
				}},
				{"adi", pb.InitialCondition, func(u *grid.Grid) (sim.Result, error) {
					return adi.Run(pb, u, adi.Config{Machine: nas.Origin2000Machine(p), Strategy: adi.Multipartition,
						Env: env, ModelOnly: u == nil, Overlap: o})
				}},
			}
			for _, app := range apps {
				name := fmt.Sprintf("%s p=%d overlap=%v", app.name, p, o.Enabled)
				model, err := app.run(nil)
				if err != nil {
					t.Fatalf("%s model-only: %v", name, err)
				}
				data, err := app.run(app.initial())
				if err != nil {
					t.Fatalf("%s data: %v", name, err)
				}
				if math.Float64bits(data.Makespan) != math.Float64bits(model.Makespan) {
					t.Errorf("%s: data makespan %#x (%g) != model-only %#x (%g)", name,
						math.Float64bits(data.Makespan), data.Makespan, math.Float64bits(model.Makespan), model.Makespan)
				}
				if data.TotalMessages() != model.TotalMessages() || data.TotalBytes() != model.TotalBytes() {
					t.Errorf("%s: data run moved %d messages %d bytes, model-only %d and %d", name,
						data.TotalMessages(), data.TotalBytes(), model.TotalMessages(), model.TotalBytes())
				}
			}
		}
	}
}

// phaseRecorder is a rank's transport that records every phase label it
// is given.
type phaseRecorder struct {
	xport.Transport
	labels *[]string
}

func (pr phaseRecorder) BeginPhase(label string) string {
	*pr.labels = append(*pr.labels, label)
	return pr.Transport.BeginPhase(label)
}

// TestRTPhaseLabels: rt ranks carry the simulator's phase labels, because
// both backends run the one body. Each rank's label sequence on rt equals
// its sequence on the simulator: halo, rhs, solve0..2 and add per step,
// then reduce, for SP; the same steps without the reduction for BT; and
// sweep0..2 per step for ADI.
func TestRTPhaseLabels(t *testing.T) {
	const p, steps = 2, 2
	eta := []int{12, 12, 12}
	env := overlapEnv(t, p, overlapGamma[p], eta)
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: steps}
	spPlan, err := nas.CompilePlan(env)
	if err != nil {
		t.Fatal(err)
	}
	btPlan, err := dist.CompileSweepPlan(env, sweep.NewBlockTridiag(nas.BTBlockSize))
	if err != nil {
		t.Fatal(err)
	}
	adiPlan, err := dist.CompileSweepPlan(env, sweep.Tridiag{})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(f *dist.Field) { f.FillFunc(nas.InitialAt(eta)) }
	var step []string
	step = append(step, nas.PhaseHalo, nas.PhaseRHS)
	for dim := range eta {
		step = append(step, nas.PhaseSolve(dim))
	}
	step = append(step, nas.PhaseAdd)
	var btWant, adiWant []string
	for s := 0; s < steps; s++ {
		btWant = append(btWant, step...)
		adiWant = append(adiWant, "sweep0", "sweep1", "sweep2")
	}
	spWant := append(append([]string(nil), btWant...), nas.PhaseReduce)
	bodies := []struct {
		name string
		want []string
		body func(t xport.Transport)
	}{
		{"sp", spWant, func(t xport.Transport) { nas.RunSPRank(t, env, spPlan, steps, fill) }},
		{"bt", btWant, func(t xport.Transport) { nas.RunBTRank(t, env, btPlan, steps, fill) }},
		{"adi", adiWant, func(t xport.Transport) { pb.RunRank(t, env, adiPlan, func(f *dist.Field) { f.FillFunc(pb.InitialAt) }) }},
	}
	for _, b := range bodies {
		simLabels, rtLabels := make([][]string, p), make([][]string, p)
		if _, err := nas.Origin2000Machine(p).Run(func(r *sim.Rank) {
			b.body(phaseRecorder{r, &simLabels[r.ID]})
		}); err != nil {
			t.Fatalf("%s on the simulator: %v", b.name, err)
		}
		if _, err := rt.NewMachine(p).Run(func(r *rt.Rank) {
			b.body(phaseRecorder{r, &rtLabels[r.ID]})
		}); err != nil {
			t.Fatalf("%s on rt: %v", b.name, err)
		}
		for q := 0; q < p; q++ {
			if !reflect.DeepEqual(rtLabels[q], simLabels[q]) {
				t.Errorf("%s rank %d: rt labels %v, simulator %v", b.name, q, rtLabels[q], simLabels[q])
			}
			if !reflect.DeepEqual(simLabels[q], b.want) {
				t.Errorf("%s rank %d: labels %v, want %v", b.name, q, simLabels[q], b.want)
			}
		}
	}
}
