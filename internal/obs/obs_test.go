package obs

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"genmp/internal/sim"
	"genmp/internal/xport"
)

func testMachine(p int) *sim.Machine {
	return sim.NewMachine(p,
		sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 2e-6, RecvOverhead: 2e-6},
		sim.CPU{FlopsPerSec: 100e6})
}

// pingPong is a small deterministic 2-rank program with compute, labeled
// phases, point-to-point traffic in both directions, a mark and a
// reduction.
func pingPong(r *sim.Rank) {
	r.BeginPhase("work")
	r.Compute(float64(r.ID+1) * 1e-3)
	r.BeginPhase("exchange")
	if r.ID == 0 {
		r.Send(1, 1, xport.Msg{Bytes: 4096})
		r.Recv(1, 2)
	} else {
		r.Recv(0, 1)
		r.Send(0, 2, xport.Msg{Bytes: 512})
	}
	r.Mark("swapped")
	r.BeginPhase("reduce")
	r.AllReduce([]float64{1}, func(a, b float64) float64 { return a + b })
}

func runPingPong(t *testing.T) (sim.Result, *sim.Trace) {
	t.Helper()
	m := testMachine(2)
	m.Trace = &sim.Trace{}
	res, err := m.Run(pingPong)
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Trace
}

func TestProfileTotalEqualsMakespan(t *testing.T) {
	res, tr := runPingPong(t)
	p := NewProfile(res, tr)
	if diff := math.Abs(p.Total() - p.Makespan); diff > 1e-9 {
		t.Fatalf("profile total %g differs from makespan %g by %g", p.Total(), p.Makespan, diff)
	}
	if len(p.Phases) != 3 {
		t.Fatalf("want 3 phases, got %+v", p.Phases)
	}
	ex := p.Phase("exchange")
	if ex.Msgs != 2 || ex.Bytes != 4096+512 {
		t.Errorf("exchange phase traffic %+v", ex)
	}
	if p.LoadImbalance < 1 {
		t.Errorf("load imbalance %g < 1", p.LoadImbalance)
	}
	if p.BusyMax < p.BusyP90 || p.BusyP90 < p.BusyP50 {
		t.Errorf("percentiles out of order: p50 %g p90 %g max %g", p.BusyP50, p.BusyP90, p.BusyMax)
	}
	out := p.Format()
	for _, want := range []string{"exchange", "reduce", "work", "makespan", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

// On a larger, more contended run the identity must still hold to 1e-9 —
// this is the acceptance criterion's check.
func TestProfileTotalEqualsMakespanManyRanks(t *testing.T) {
	m := testMachine(8)
	res, err := m.Run(func(r *sim.Rank) {
		for step := 0; step < 5; step++ {
			r.BeginPhase("shift")
			dst := (r.ID + 1) % r.P()
			src := (r.ID + r.P() - 1) % r.P()
			r.SendRecv(dst, step, xport.Msg{Bytes: 1024 * (r.ID + 1)}, src, step)
			r.BeginPhase("work")
			r.Compute(float64((r.ID*7+step*3)%5+1) * 1e-4)
			r.BeginPhase("sync")
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfile(res, nil)
	if diff := math.Abs(p.Total() - p.Makespan); diff > 1e-9 {
		t.Fatalf("profile total %g differs from makespan %g by %g", p.Total(), p.Makespan, diff)
	}
}

func TestCriticalPathBounds(t *testing.T) {
	res, tr := runPingPong(t)
	cp := CriticalPath(tr, 2)
	if cp <= 0 {
		t.Fatal("critical path not computed")
	}
	if cp > res.Makespan+1e-12 {
		t.Fatalf("critical path %g exceeds makespan %g", cp, res.Makespan)
	}
	// Each rank's own busy chain is a path, so cp ≥ max busy.
	maxBusy := 0.0
	for _, s := range res.Ranks {
		if b := s.ComputeTime + s.CommTime; b > maxBusy {
			maxBusy = b
		}
	}
	if cp < maxBusy-1e-12 {
		t.Fatalf("critical path %g below max rank busy time %g", cp, maxBusy)
	}
}

// A purely serial dependency chain (token passed around a ring) has a
// critical path equal to the whole makespan: no slack to recover.
func TestCriticalPathSerialChain(t *testing.T) {
	m := testMachine(4)
	m.Trace = &sim.Trace{}
	res, err := m.Run(func(r *sim.Rank) {
		if r.ID == 0 {
			r.Compute(1e-3)
			r.Send(1, 0, xport.Msg{Bytes: 8})
		} else {
			r.Recv(r.ID-1, 0)
			r.Compute(1e-3)
			if r.ID < r.P()-1 {
				r.Send(r.ID+1, 0, xport.Msg{Bytes: 8})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := CriticalPath(m.Trace, 4)
	if cp <= 0 || cp > res.Makespan+1e-12 {
		t.Fatalf("cp %g out of range (makespan %g)", cp, res.Makespan)
	}
	// The token's chain includes every rank's 1ms compute, so the critical
	// path must be at least the 4ms of chained compute — far more than any
	// single rank's busy time.
	if cp < 3.9e-3 {
		t.Fatalf("cp %g does not reflect the serial chain (expected ≈ 4ms of compute plus transfers)", cp)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty slice: got %g, want 0", got)
	}
	one := []float64{7}
	for _, q := range []float64{0, 0.5, 1} {
		if got := percentile(one, q); got != 7 {
			t.Errorf("single sample q=%g: got %g, want 7", q, got)
		}
	}
	many := []float64{1, 2, 3, 4}
	if got := percentile(many, 0); got != 1 {
		t.Errorf("q=0: got %g, want first element", got)
	}
	if got := percentile(many, 1); got != 4 {
		t.Errorf("q=1: got %g, want last element", got)
	}
}

// A phase entered by only a subset of ranks must still profile and format:
// absent ranks contribute zero time, so the imbalance of a one-rank phase
// on p ranks is exactly p.
func TestProfileFormatSubsetPhase(t *testing.T) {
	m := testMachine(3)
	res, err := m.Run(func(r *sim.Rank) {
		r.BeginPhase("common")
		r.Compute(1e-3)
		if r.ID == 0 {
			r.BeginPhase("solo")
			r.Compute(3e-3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfile(res, nil)
	solo := p.Phase("solo")
	if solo.Label != "solo" {
		t.Fatalf("solo phase missing: %+v", p.Phases)
	}
	if math.Abs(solo.Imbalance-3) > 1e-12 {
		t.Errorf("solo imbalance %g, want 3 (one busy rank of three)", solo.Imbalance)
	}
	if math.Abs(solo.Compute-1e-3) > 1e-12 {
		t.Errorf("solo mean compute %g, want 1e-3 (3ms over 3 ranks)", solo.Compute)
	}
	out := p.Format()
	for _, want := range []string{"common", "solo"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	if diff := math.Abs(p.Total() - p.Makespan); diff > 1e-9 {
		t.Errorf("accounting identity broken with subset phase: diff %g", diff)
	}
}

func TestWriteBenchJSON(t *testing.T) {
	path := t.TempDir() + "/BENCH_test.json"
	err := WriteBenchJSON(path, BenchFile{
		Source: "test",
		Records: []BenchRecord{
			{Suite: "b", Name: "y", P: 2, Makespan: 1.5},
			{Suite: "a", Name: "x", Speedup: 3, Extra: map[string]float64{"nodes": 10}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.Schema != 1 || len(bf.Records) != 2 {
		t.Fatalf("round trip: %+v", bf)
	}
	if bf.Records[0].Suite != "a" {
		t.Fatalf("records not sorted: %+v", bf.Records)
	}
}
