package exp

import (
	"math"
	"strings"
	"testing"

	"genmp/internal/xport"
)

func TestRedistComparisonRows(t *testing.T) {
	rows, err := RedistComparison(Spec{P: 4, Eta: []int{16, 16, 16}, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	keys := map[string]RedistRow{}
	for _, r := range rows {
		keys[r.Key] = r
		if r.Time <= 0 {
			t.Errorf("%s: non-positive makespan %g", r.Key, r.Time)
		}
	}
	bt, ok1 := keys["block-transpose"]
	rs, ok2 := keys["redist-switch"]
	mo, ok3 := keys["multi-only"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing policy rows: %v", rows)
	}
	// The switching policies move wire traffic; the stay-put floor moves
	// only halo bytes and must be the cheapest in traffic.
	if bt.Bytes <= mo.Bytes || rs.Bytes <= mo.Bytes {
		t.Errorf("switch policies should out-traffic multi-only: bt=%d rs=%d mo=%d",
			bt.Bytes, rs.Bytes, mo.Bytes)
	}
	// Both switch policies compiled plans, so a peak bound is declared.
	if bt.PeakBytes == 0 || rs.PeakBytes == 0 || mo.PeakBytes != 0 {
		t.Errorf("peak bounds: bt=%d rs=%d mo=%d", bt.PeakBytes, rs.PeakBytes, mo.PeakBytes)
	}
	table := FormatRedistComparison(rows)
	if !strings.Contains(table, "redist-switch") || !strings.Contains(table, " *") {
		t.Errorf("table missing rows or winner mark:\n%s", table)
	}
}

// TestRedistComparisonDeterministic: the scenario is a fixed virtual-time
// schedule — two runs produce bit-identical makespans (the BENCH_redist
// golden relies on this).
func TestRedistComparisonDeterministic(t *testing.T) {
	a, err := RedistComparison(Spec{Coll: xport.AlgAuto, P: 4, Eta: []int{16, 16, 16}, Steps: 2, MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RedistComparison(Spec{Coll: xport.AlgAuto, P: 4, Eta: []int{16, 16, 16}, Steps: 2, MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) || a[i].Bytes != b[i].Bytes {
			t.Fatalf("row %s not reproducible: %v vs %v", a[i].Key, a[i], b[i])
		}
	}
}

// TestRedistComparisonBudget: handing the accountant a budget lowers the
// declared per-rank peak of the switch plans without changing traffic.
func TestRedistComparisonBudget(t *testing.T) {
	loose, err := RedistComparison(Spec{Coll: xport.AlgAuto, P: 4, Eta: []int{16, 16, 16}, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RedistComparison(Spec{Coll: xport.AlgAuto, P: 4, Eta: []int{16, 16, 16}, Steps: 1, MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	row := func(rows []RedistRow, key string) RedistRow {
		for _, r := range rows {
			if r.Key == key {
				return r
			}
		}
		t.Fatalf("row %s missing", key)
		return RedistRow{}
	}
	lr, tr := row(loose, "redist-switch"), row(tight, "redist-switch")
	if tr.PeakBytes > 2048 {
		t.Errorf("budgeted peak %d exceeds 2048", tr.PeakBytes)
	}
	if tr.PeakBytes >= lr.PeakBytes {
		t.Errorf("budget did not lower peak: %d vs %d", tr.PeakBytes, lr.PeakBytes)
	}
	if tr.Bytes != lr.Bytes {
		t.Errorf("budget changed wire traffic: %d vs %d", tr.Bytes, lr.Bytes)
	}
}

func TestRedistBenchRecords(t *testing.T) {
	spec := Spec{P: 4, Eta: []int{16, 16, 16}, Steps: 2, MaxBytes: 2048}
	rows, err := RedistComparison(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs := RedistRecords(spec, rows)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for _, r := range recs {
		if r.Suite != "redist" {
			t.Errorf("suite %q, want redist", r.Suite)
		}
		if r.Makespan <= 0 || r.P != 4 {
			t.Errorf("bad record %+v", r)
		}
	}
}
