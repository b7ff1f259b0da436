package exp

import (
	"math"
	"strings"
	"testing"

	"genmp/internal/nas"
	"genmp/internal/numutil"
	"genmp/internal/xport"
)

func TestFigure1RenderingMatchesFormula(t *testing.T) {
	s, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// Slice k=0 of Figure 1: θ(i,j,0) = (i mod 4)·4 + (j mod 4) — rows
	// 0 1 2 3 / 4 5 6 7 / ….
	if !strings.Contains(s, " 0  1  2  3") {
		t.Errorf("slice 0 row 0 missing:\n%s", s)
	}
	if !strings.Contains(s, " 4  5  6  7") {
		t.Errorf("slice 0 row 1 missing:\n%s", s)
	}
	// Slice k=1: θ(i,j,1) = ((i−1) mod 4)·4 + ((j−1) mod 4) — first row is
	// 15 12 13 14.
	if !strings.Contains(s, "15 12 13 14") {
		t.Errorf("slice 1 row 0 missing:\n%s", s)
	}
	if !strings.Contains(s, "slice k=3") {
		t.Errorf("missing slice headers:\n%s", s)
	}
}

func TestTable1ShapeOnClassW(t *testing.T) {
	// Full class B is exercised by cmd/spbench and the bench suite; class W
	// keeps the unit test fast while checking every shape property the
	// paper's Table 1 exhibits.
	saved := Table1Procs
	defer func() { Table1Procs = saved }()
	Table1Procs = []int{1, 4, 9, 16, 25, 36, 49, 50}

	rows, err := Table1(nas.ClassB.Eta, 1)
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]Table1Row{}
	for _, r := range rows {
		byP[r.P] = r
	}
	// Serial code-quality gaps.
	if math.Abs(byP[1].Hand-0.95) > 0.02 || math.Abs(byP[1].DHPF-0.91) > 0.02 {
		t.Errorf("serial speedups: hand %.3f (want ≈0.95), dHPF %.3f (want ≈0.91)", byP[1].Hand, byP[1].DHPF)
	}
	// Near-linear scaling of both variants on squares.
	for _, p := range []int{4, 9, 16, 25, 36, 49} {
		r := byP[p]
		if r.Hand < 0.75*float64(p) || r.Hand > 1.3*float64(p) {
			t.Errorf("hand-coded speedup at p=%d is %g, not near-linear", p, r.Hand)
		}
		if r.DHPF < 0.6*float64(p) || r.DHPF > 1.3*float64(p) {
			t.Errorf("dHPF speedup at p=%d is %g, not near-linear", p, r.DHPF)
		}
		// Hand-coded wins on perfect squares (paper: mostly, except noise).
		if r.DiffPct < -10 {
			t.Errorf("at p=%d dHPF beats hand-coded by %g%%, beyond noise", p, -r.DiffPct)
		}
	}
	// Hand-coded runs only on perfect squares.
	if !math.IsNaN(byP[50].Hand) {
		t.Errorf("hand-coded should be absent at p=50")
	}
	// The Section 6 inversion: 50 CPUs slower than 49.
	if byP[50].DHPF >= byP[49].DHPF {
		t.Errorf("49-vs-50 inversion missing: dHPF speedup %g at 49, %g at 50", byP[49].DHPF, byP[50].DHPF)
	}
	if byP[50].GammaStr != "5×10×10" {
		t.Errorf("partitioning at 50 = %s, want 5×10×10", byP[50].GammaStr)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "# CPUs") || !strings.Contains(out, "5×10×10") {
		t.Errorf("formatted table missing pieces:\n%s", out)
	}
}

func TestElementaryInventoryMatchesPaper(t *testing.T) {
	inv8 := ElementaryInventory(8, 3)
	if len(inv8) != 2 {
		t.Fatalf("p=8: inventory %v, want 2 patterns", inv8)
	}
	if !strings.HasPrefix(inv8[0], "1×8×8") || !strings.HasPrefix(inv8[1], "2×4×4") {
		t.Errorf("p=8 inventory: %v", inv8)
	}
	inv30 := ElementaryInventory(30, 3)
	if len(inv30) != 5 {
		t.Fatalf("p=30: inventory %v, want 5 patterns", inv30)
	}
}

func TestEnumerationGrowth(t *testing.T) {
	rows := EnumerationGrowth(100, []int{3, 4})
	if len(rows) != 100 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Counts grow with d and stay positive for p ≥ 1, d ≥ 2.
	for _, r := range rows {
		if r.Counts[0] < 1 || r.Counts[1] < r.Counts[0] {
			t.Fatalf("p=%d: counts %v", r.P, r.Counts)
		}
	}
}

func TestSkewedDomainCrossover(t *testing.T) {
	rows, err := SkewedDomain(100, []float64{1, 2, 3, 5, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch {
		case r.Ratio < 4:
			if !numutil.EqualInts(r.Gamma, []int{2, 2, 2}) {
				t.Errorf("ratio %g: γ = %v, want 2×2×2 below the crossover", r.Ratio, r.Gamma)
			}
		case r.Ratio > 4:
			if !numutil.EqualInts(r.Gamma, []int{4, 4, 1}) {
				t.Errorf("ratio %g: γ = %v, want 4×4×1 above the crossover", r.Ratio, r.Gamma)
			}
		}
	}
}

func TestCompactAdvisor49vs50(t *testing.T) {
	res, err := CompactAdvisor(nas.ClassB.Eta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time50 <= res.Time49 {
		t.Errorf("5×10×10 on 50 (%g) should be slower than 7×7×7 on 49 (%g)", res.Time50, res.Time49)
	}
	if res.Advice.DiagonalProcs != 49 {
		t.Errorf("diagonal processor count = %d, want 49", res.Advice.DiagonalProcs)
	}
	if res.Advice.UseProcs < 49 || res.Advice.UseProcs > 50 {
		t.Errorf("advice p = %d outside [49, 50]", res.Advice.UseProcs)
	}
}

func TestStrictParity(t *testing.T) {
	res, err := RunStrictParity(8, []int{4, 4, 2}, []int{12, 12, 12}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDiff > 1e-9 {
		t.Errorf("strict vs shared state differs by %g", res.MaxDiff)
	}
	if res.StrictBytes < res.SharedBytes {
		t.Errorf("strict bytes (%d) below shared (%d)", res.StrictBytes, res.SharedBytes)
	}
	if res.StrictTime <= 0 || res.SharedTime <= 0 {
		t.Error("non-positive times")
	}
}

func TestBTvsSP(t *testing.T) {
	rows, err := BTvsSP(9, []int{36, 36, 36}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	sp, bt := rows[0], rows[1]
	if bt.Bytes <= sp.Bytes {
		t.Errorf("BT bytes (%d) should exceed SP (%d): block carries are fatter", bt.Bytes, sp.Bytes)
	}
	if bt.Time <= sp.Time {
		t.Errorf("BT time (%g) should exceed SP (%g): more flops per point", bt.Time, sp.Time)
	}
	if bt.Messages != sp.Messages {
		t.Errorf("message counts should match (same schedule): BT %d vs SP %d", bt.Messages, sp.Messages)
	}
}

func TestStrategyComparison(t *testing.T) {
	rows, err := StrategyComparison(16, []int{64, 64, 64}, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	multi, wave, trans := rows[0], rows[1], rows[2]
	if multi.Time >= wave.Time {
		t.Errorf("multipartitioning (%g) should beat wavefront (%g)", multi.Time, wave.Time)
	}
	if multi.Time >= trans.Time {
		t.Errorf("multipartitioning (%g) should beat transpose (%g)", multi.Time, trans.Time)
	}
	// The transpose strategy moves bulk data: far more bytes.
	if trans.Bytes <= multi.Bytes {
		t.Errorf("transpose bytes (%d) should exceed multipartitioning (%d)", trans.Bytes, multi.Bytes)
	}
}

func TestStrategyComparisonOnDefaultBitIdentical(t *testing.T) {
	base, err := StrategyComparison(16, []int{32, 32, 32}, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []string{"", "default", "crossbar"} {
		rows, err := StrategyComparisonOn(topo, xport.AlgAuto, 16, []int{32, 32, 32}, 1, 32)
		if err != nil {
			t.Fatalf("topology %q: %v", topo, err)
		}
		for i := range base {
			if rows[i].Time != base[i].Time || rows[i].Bytes != base[i].Bytes || rows[i].Messages != base[i].Messages {
				t.Errorf("topology %q row %s: time %g bytes %d, want %g / %d",
					topo, rows[i].Key, rows[i].Time, rows[i].Bytes, base[i].Time, base[i].Bytes)
			}
		}
	}
}

func TestTopologyComparisonDistinguishesFabrics(t *testing.T) {
	topos := []string{"crossbar", "bus", "hypercube+contention"}
	rows, err := TopologyComparison(topos, xport.AlgAuto, 16, []int{32, 32, 32}, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(topos) {
		t.Fatalf("rows = %d, want %d", len(rows), len(topos))
	}
	// The bus serializes the transpose's bulk all-to-all: its transpose time
	// must exceed the crossbar's. Virtual times differ per topology while
	// traffic volume does not.
	byTopo := map[string]map[string]StrategyRow{}
	for _, tr := range rows {
		byTopo[tr.Topology] = map[string]StrategyRow{}
		for _, r := range tr.Rows {
			byTopo[tr.Topology][r.Key] = r
		}
	}
	if bus, xbar := byTopo["bus"]["block-transpose"], byTopo["crossbar"]["block-transpose"]; bus.Time <= xbar.Time {
		t.Errorf("bus transpose (%g) should be slower than crossbar (%g)", bus.Time, xbar.Time)
	}
	if cube := byTopo["hypercube+contention"]["multipartition"]; cube.Time <= byTopo["crossbar"]["multipartition"].Time {
		t.Errorf("hop latency + contention (%g) should slow multipartitioning vs crossbar (%g)",
			cube.Time, byTopo["crossbar"]["multipartition"].Time)
	}
	for _, key := range []string{"multipartition", "block-wavefront", "block-transpose"} {
		if byTopo["bus"][key].Bytes != byTopo["crossbar"][key].Bytes {
			t.Errorf("%s: traffic volume must be topology-independent", key)
		}
	}
	out := FormatTopologyComparison(rows)
	if !strings.Contains(out, "bus") || !strings.Contains(out, "*") {
		t.Error("formatted comparison missing topology names or winner mark")
	}
}

func TestStrategyBenchRecordsOnSuiteNaming(t *testing.T) {
	recs, err := StrategyBenchRecordsOn("bus", xport.AlgAuto, 16, []int{32, 32, 32}, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Suite != "adi-strategy@bus" {
			t.Errorf("suite = %q, want adi-strategy@bus", r.Suite)
		}
	}
	recs, err = StrategyBenchRecordsOn("", xport.AlgAuto, 16, []int{32, 32, 32}, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Suite != "adi-strategy" {
			t.Errorf("default suite = %q, want adi-strategy", r.Suite)
		}
	}
}
