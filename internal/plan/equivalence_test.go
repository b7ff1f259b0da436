package plan_test

import (
	"testing"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/plan"
	"genmp/internal/sweep"
)

// TestCrossRuntimeEquivalence is the contract the refactor exists for: the
// private-tile SweepRunner's compile helper and runner and a direct Compile
// all produce byte-identical schedules for one configuration. Runners
// differ only in storage binding (halo padding, batch width), which the
// fingerprint deliberately excludes.
func TestCrossRuntimeEquivalence(t *testing.T) {
	m, err := core.NewGeneralized(6, []int{2, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	eta := []int{12, 12, 12}
	solver := sweep.Tridiag{}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}

	tilePlan, err := dist.CompileSweepPlan(env, solver)
	if err != nil {
		t.Fatal(err)
	}
	if err := tilePlan.Validate(); err != nil {
		t.Fatalf("private-tile plan invalid: %v", err)
	}

	// A runner built over padded per-rank fields still compiles the same
	// schedule — padding lives in its binding cache, not the plan.
	fields := make([]*dist.Field, solver.NumVecs())
	for i := range fields {
		fields[i] = dist.NewField(env, 0, 1)
	}
	runnerPlan := dist.NewSweepRunner(solver, fields).CompiledPlan()
	if err := runnerPlan.Validate(); err != nil {
		t.Fatalf("runner plan invalid: %v", err)
	}

	direct, err := plan.Compile(plan.Spec{M: m, Eta: eta, Solver: solver})
	if err != nil {
		t.Fatal(err)
	}

	want := direct.Fingerprint()
	for _, c := range []struct {
		name string
		got  string
	}{
		{"private-tile", tilePlan.Fingerprint()},
		{"runner", runnerPlan.Fingerprint()},
	} {
		if c.got != want {
			t.Errorf("%s fingerprint diverges from direct Compile:\n%s\nvs\n%s", c.name, c.got, want)
		}
	}
}
