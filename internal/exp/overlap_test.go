package exp

import "testing"

// TestOverlapComparison checks the acceptance contract of the overlap
// schedule on SP at p=16: the solve-phase wait bucket shrinks with overlap
// on, and the measured makespan change stays within the causal what-if
// prediction over the off trace (the replay advances carries without
// charging the second per-boundary start-up, so it bounds the realizable
// recovery from above on the contention-free crossbar).
func TestOverlapComparison(t *testing.T) {
	r, err := OverlapComparison(Spec{P: 16, Eta: []int{32, 32, 32}, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.SolveWaitOn >= r.SolveWaitOff/2 {
		t.Errorf("solve wait did not shrink: off %g, on %g", r.SolveWaitOff, r.SolveWaitOn)
	}
	if !r.WithinPredictedBound() {
		t.Errorf("measured recovery %g exceeds causal prediction %g",
			r.MeasuredRecovery(), r.PredictedRecovery())
	}
	if r.Frac != 0.25 {
		t.Errorf("default frac = %g, want plan.DefaultOverlapFrac", r.Frac)
	}
}

// TestOverlapBenchRecords pins the record shape the committed
// BENCH_overlap.json rows use.
func TestOverlapBenchRecords(t *testing.T) {
	spec := Spec{Topology: "bus", P: 4, Eta: []int{16, 16, 16}, Steps: 1}
	r, err := OverlapComparison(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs := OverlapRecords(spec, r)
	if len(recs) != 2 || recs[0].Suite != "sp-overlap@bus" ||
		recs[0].Name != "overlap-off" || recs[1].Name != "overlap-on" {
		t.Fatalf("unexpected records: %+v", recs)
	}
	for _, rec := range recs {
		if rec.Makespan <= 0 {
			t.Errorf("%s: nonpositive makespan %g", rec.Name, rec.Makespan)
		}
	}
}
