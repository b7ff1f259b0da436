package exp

import (
	"path/filepath"
	"testing"

	"genmp/internal/adi"
	"genmp/internal/dmem"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sweep"
)

// Backend bit-identity contract (DESIGN.md §15): the real-parallel runtime
// executes the same compiled SweepPlan as the virtual-time simulator, so
// the final field data must match the simulator run to the last
// Float64bits — on every application, processor count, and overlap
// setting. The rt backend shares nothing with sim but the schedule and
// the kernels; any divergence means a backend reordered the arithmetic.

// TestRTBitIdentitySP: strict distributed-memory SP, sim vs rt backends,
// overlap off and on, at p ∈ {2, 4, 16}. At p=2 on a host with two or
// more CPUs the rt receivers spin on the shared store before they park.
func TestRTBitIdentitySP(t *testing.T) {
	eta := []int{12, 12, 12}
	for _, p := range []int{2, 4, 16} {
		for _, o := range []plan.Overlap{{}, overlapOn} {
			env := overlapEnv(t, p, overlapGamma[p], eta)
			want, _, err := dmem.RunSPOverlap(env, nas.Origin2000Machine(p), 2, o)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := dmem.RunSPReal(env, rt.NewMachine(p), 2, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "sp-rt", want, got)
		}
	}
}

// TestRTShippedPlan: the full plan-shipping path — compile on one "node",
// dump via obs.WritePlanJSON, reconstruct on a "worker" via obs.LoadPlan,
// execute the shipped schedule on the rt backend — must produce the same
// bits as the simulator compiling locally.
func TestRTShippedPlan(t *testing.T) {
	eta := []int{12, 12, 12}
	const p = 4
	env := overlapEnv(t, p, overlapGamma[p], eta)
	pl, err := dmem.CompileSweepPlanOverlap(env, sweep.NewPenta(), overlapOn)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := obs.WritePlanJSON(path, "shipped-plan test", pl); err != nil {
		t.Fatal(err)
	}
	shipped, err := obs.LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := dmem.RunSPOverlap(env, nas.Origin2000Machine(p), 2, overlapOn)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := dmem.RunSPReal(env, rt.NewMachine(p), 2, overlapOn, shipped)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "sp-shipped", want, got)
}

// TestRTBitIdentityBT: strict BT (5×5 block carries), sim vs rt, p ∈ {4, 16}.
func TestRTBitIdentityBT(t *testing.T) {
	eta := []int{12, 12, 12}
	for _, p := range []int{4, 16} {
		for _, o := range []plan.Overlap{{}, overlapOn} {
			env := overlapEnv(t, p, overlapGamma[p], eta)
			want, _, err := dmem.RunBTOverlap(env, nas.Origin2000Machine(p), 2, o)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := dmem.RunBTReal(env, rt.NewMachine(p), 2, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "bt-rt", want, got)
		}
	}
}

// TestRTBitIdentityADI: strict ADI (tridiagonal carries, no halos), sim vs
// rt, p ∈ {2, 4, 16}; p=2 spins as in TestRTBitIdentitySP.
func TestRTBitIdentityADI(t *testing.T) {
	eta := []int{16, 16, 16}
	for _, p := range []int{2, 4, 16} {
		for _, o := range []plan.Overlap{{}, overlapOn} {
			env := overlapEnv(t, p, overlapGamma[p], eta)
			pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: 2}
			want, _, err := dmem.RunADIOverlap(pb, env, nas.Origin2000Machine(p), o)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := dmem.RunADIReal(pb, env, rt.NewMachine(p), o, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "adi-rt", want, got)
		}
	}
}
