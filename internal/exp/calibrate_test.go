package exp

import (
	"math"
	"strings"
	"testing"

	"genmp/internal/nas"
)

func TestCalibrateAuditsEveryPhase(t *testing.T) {
	saved := Table1Procs
	defer func() { Table1Procs = saved }()
	// Mix of counts that divide 36³ evenly (the model should be near-exact)
	// and counts that do not (5×5×5, 8×8×8 — residual imbalance waits).
	Table1Procs = []int{1, 4, 9, 16, 25, 36, 64}

	rows, err := Calibrate(Spec{Eta: nas.ClassW.Eta, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	phases := calibrationPhases(3)
	if want := len(Table1Procs) * len(phases); len(rows) != want {
		t.Fatalf("want %d rows (%d procs × %d phases), got %d", want, len(Table1Procs), len(phases), len(rows))
	}
	i := 0
	for _, p := range Table1Procs {
		for _, ph := range phases {
			r := rows[i]
			i++
			if r.P != p || r.Phase != ph {
				t.Fatalf("row %d is (p=%d, %q), want (p=%d, %q)", i-1, r.P, r.Phase, p, ph)
			}
			if r.Measured < 0 || math.IsNaN(r.Measured) || math.IsNaN(r.Predicted) {
				t.Errorf("p=%d %s: bad times %+v", p, ph, r)
			}
			// The pure-compute phases have no waits and exactly balanced
			// totals, so the prediction must match to float precision.
			if ph == nas.PhaseRHS || ph == nas.PhaseAdd {
				if math.Abs(r.RelErr) > 1e-6 {
					t.Errorf("p=%d %s: compute phase off by %.2g%% (pred %g, meas %g)",
						p, ph, 100*r.RelErr, r.Predicted, r.Measured)
				}
			}
			// Everywhere else the model may miss imbalance waits, but an
			// error beyond 2× means the model (or the audit) is broken.
			if r.Measured > 0 && math.Abs(r.RelErr) > 1 {
				t.Errorf("p=%d %s: relative error %.2g out of range (%+v)", p, ph, r.RelErr, r)
			}
		}
	}
	// When the partitioning divides the extents evenly there are no
	// imbalance waits at all: the sweep model must be near-exact, which is
	// the strongest statement the audit can certify.
	for _, r := range rows {
		if r.P == 16 && strings.HasPrefix(r.Phase, "solve") && math.Abs(r.RelErr) > 1e-6 {
			t.Errorf("p=16 %s: evenly divided sweep off by %.2g%%", r.Phase, 100*r.RelErr)
		}
	}

	out := FormatCalibration(rows)
	for _, want := range []string{"# CPUs", "solve0", "predicted", "measured", "5×5×5"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatCalibration missing %q:\n%s", want, out)
		}
	}
}

func TestCalibrateOnTopologies(t *testing.T) {
	saved := Table1Procs
	defer func() { Table1Procs = saved }()
	Table1Procs = []int{4, 16}

	base, err := Calibrate(Spec{Eta: nas.ClassW.Eta, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The empty and the "default" topology must reproduce the pre-Fabric
	// audit bit for bit.
	for _, topo := range []string{"", "default"} {
		same, err := Calibrate(Spec{Topology: topo, Eta: nas.ClassW.Eta, Steps: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if base[i].Predicted != same[i].Predicted || base[i].Measured != same[i].Measured {
				t.Fatalf("topology %q differs at %s p=%d: pred %g vs %g, meas %g vs %g", topo,
					base[i].Phase, base[i].P, base[i].Predicted, same[i].Predicted, base[i].Measured, same[i].Measured)
			}
		}
	}
	// On a bus both sides of the audit shift together (shared-medium K₃,
	// shared-medium simulator): the audit must stay sane, not blow past 2×.
	busRows, err := Calibrate(Spec{Topology: "bus", Eta: nas.ClassW.Eta, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range busRows {
		if r.Measured > 0 && math.Abs(r.RelErr) > 1 {
			t.Errorf("bus p=%d %s: relative error %.2g out of range", r.P, r.Phase, r.RelErr)
		}
	}
	// The bus simulation is strictly slower than the crossbar on the solve
	// phases (the carries cross a shared medium).
	for i := range base {
		if strings.HasPrefix(base[i].Phase, "solve") && busRows[i].Measured <= base[i].Measured {
			t.Errorf("bus p=%d %s measured %g not above crossbar %g",
				base[i].P, base[i].Phase, busRows[i].Measured, base[i].Measured)
		}
	}
	if _, err := Calibrate(Spec{Topology: "no-such-topology", Eta: nas.ClassW.Eta, Steps: 1}); err == nil {
		t.Error("unknown topology should error")
	}
}
