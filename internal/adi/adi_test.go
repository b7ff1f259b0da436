package adi

import (
	"math"
	"testing"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sim"
)

func testMachine(p int) *sim.Machine {
	return sim.NewMachine(p,
		sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6},
		sim.CPU{FlopsPerSec: 250e6})
}

func multiConfig(t *testing.T, p int, gamma, eta []int) Config {
	t.Helper()
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	return Config{Machine: testMachine(p), Strategy: Multipartition, Env: env}
}

func TestSerialSolveDiffuses(t *testing.T) {
	pb := Problem{Eta: []int{12, 12, 12}, Alpha: 0.4, Steps: 10}
	u := pb.InitialCondition()
	before := u.Norm2()
	pb.SerialSolve(u)
	after := u.Norm2()
	if after >= before {
		t.Errorf("diffusion should shrink the norm: %g → %g", before, after)
	}
	if after <= 0 {
		t.Errorf("solution vanished entirely: %g", after)
	}
}

func TestMultipartitionedMatchesSerial(t *testing.T) {
	cases := []struct {
		p     int
		gamma []int
		eta   []int
	}{
		{4, []int{2, 2, 2}, []int{10, 9, 8}},
		{8, []int{4, 4, 2}, []int{13, 12, 11}},
		{16, []int{4, 4, 4}, []int{16, 16, 16}},
		{6, []int{6, 6, 1}, []int{12, 13, 6}},
	}
	for _, c := range cases {
		pb := Problem{Eta: c.eta, Alpha: 0.3, Steps: 3}
		want := pb.InitialCondition()
		pb.SerialSolve(want)

		u := pb.InitialCondition()
		cfg := multiConfig(t, c.p, c.gamma, c.eta)
		res, err := Run(pb, u, cfg)
		if err != nil {
			t.Fatalf("p=%d γ=%v: %v", c.p, c.gamma, err)
		}
		if d := grid.MaxAbsDiff(want, u); d > 1e-9 {
			t.Errorf("p=%d γ=%v: distributed ADI differs from serial by %g", c.p, c.gamma, d)
		}
		if res.Makespan <= 0 {
			t.Errorf("p=%d: makespan %g", c.p, res.Makespan)
		}
	}
}

func TestBlockWavefrontMatchesSerial(t *testing.T) {
	p := 4
	eta := []int{12, 10, 9}
	pb := Problem{Eta: eta, Alpha: 0.25, Steps: 3}
	want := pb.InitialCondition()
	pb.SerialSolve(want)

	b, err := dist.NewBlock(p, eta, 0, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	u := pb.InitialCondition()
	_, err = Run(pb, u, Config{Machine: testMachine(p), Strategy: BlockWavefront, Block: b, Grain: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want, u); d > 1e-9 {
		t.Errorf("wavefront ADI differs from serial by %g", d)
	}
}

// TestReusedBlockTakesOverlapFromConfig runs one wavefront Block with
// overlap on and then off: the second run must send exactly the messages
// of an overlap-off run on a fresh Block, not keep the first run's split.
func TestReusedBlockTakesOverlapFromConfig(t *testing.T) {
	p := 4
	eta := []int{16, 8, 8}
	pb := Problem{Eta: eta, Alpha: 0.25, Steps: 1}
	run := func(b *dist.Block, ov plan.Overlap) int {
		t.Helper()
		res, err := Run(pb, pb.InitialCondition(), Config{Machine: testMachine(p), Strategy: BlockWavefront, Block: b, Grain: 16, Overlap: ov})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalMessages()
	}
	newBlock := func() *dist.Block {
		b, err := dist.NewBlock(p, eta, 0, dist.HandCoded())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh := run(newBlock(), plan.Overlap{})
	reused := newBlock()
	split := run(reused, plan.Overlap{Enabled: true})
	again := run(reused, plan.Overlap{})
	if split <= fresh {
		t.Fatalf("overlap-on run sent %d messages, overlap-off %d: the split path did not run", split, fresh)
	}
	if again != fresh {
		t.Errorf("overlap-off run on a reused Block sent %d messages, want %d (a fresh Block's)", again, fresh)
	}
}

func TestBlockTransposeMatchesSerial(t *testing.T) {
	p := 4
	eta := []int{12, 10, 9}
	pb := Problem{Eta: eta, Alpha: 0.25, Steps: 3}
	want := pb.InitialCondition()
	pb.SerialSolve(want)

	b, err := dist.NewBlock(p, eta, 0, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	u := pb.InitialCondition()
	_, err = Run(pb, u, Config{Machine: testMachine(p), Strategy: BlockTranspose, Block: b})
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want, u); d > 1e-9 {
		t.Errorf("transpose ADI differs from serial by %g", d)
	}
}

func TestModelOnlyMatchesDataMakespan(t *testing.T) {
	p := 8
	gamma := []int{4, 4, 2}
	eta := []int{16, 16, 16}
	pb := Problem{Eta: eta, Alpha: 0.3, Steps: 2}

	cfg := multiConfig(t, p, gamma, eta)
	u := pb.InitialCondition()
	resData, err := Run(pb, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resModel, err := Run(pb, nil, multiConfig(t, p, gamma, eta))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resData.Makespan-resModel.Makespan) > 1e-12*resData.Makespan {
		t.Errorf("data makespan %g ≠ model makespan %g", resData.Makespan, resModel.Makespan)
	}
}

func TestMultipartitioningBeatsBaselinesOnVirtualTime(t *testing.T) {
	// The van der Wijngaart comparison (model-only, modest domain, 16
	// procs): multipartitioning should beat both block strategies.
	p := 16
	eta := []int{64, 64, 64}
	pb := Problem{Eta: eta, Alpha: 0.3, Steps: 2}

	resMulti, err := Run(pb, nil, multiConfig(t, p, []int{4, 4, 4}, eta))
	if err != nil {
		t.Fatal(err)
	}

	b, err := dist.NewBlock(p, eta, 0, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	resWave, err := Run(pb, nil, Config{Machine: testMachine(p), Strategy: BlockWavefront, Block: b, Grain: 64})
	if err != nil {
		t.Fatal(err)
	}
	resTrans, err := Run(pb, nil, Config{Machine: testMachine(p), Strategy: BlockTranspose, Block: b})
	if err != nil {
		t.Fatal(err)
	}
	if resMulti.Makespan >= resWave.Makespan {
		t.Errorf("multipartitioning (%g) should beat wavefront (%g)", resMulti.Makespan, resWave.Makespan)
	}
	if resMulti.Makespan >= resTrans.Makespan {
		t.Errorf("multipartitioning (%g) should beat transpose (%g)", resMulti.Makespan, resTrans.Makespan)
	}
}

func TestPeriodicSerialConservesMass(t *testing.T) {
	// On a torus, each half-step matrix has unit column sums, so the total
	// mass Σu is conserved exactly by every solve.
	pb := Problem{Eta: []int{10, 9, 8}, Alpha: 0.4, Steps: 5, Periodic: true}
	u := pb.InitialCondition()
	sum := func(g *grid.Grid) float64 {
		s := 0.0
		for _, v := range g.Data() {
			s += v
		}
		return s
	}
	before := sum(u)
	pb.SerialSolve(u)
	after := sum(u)
	if math.Abs(after-before) > 1e-8*math.Abs(before) {
		t.Errorf("periodic ADI should conserve mass: %g → %g", before, after)
	}
	// And it should still diffuse (norm decreases toward the flat state).
	flatNorm := math.Abs(before) / math.Sqrt(float64(u.Size()))
	if u.Norm2() < flatNorm*0.99 {
		t.Errorf("norm fell below the flat-state floor: %g < %g", u.Norm2(), flatNorm)
	}
}

func TestPeriodicDistributedRejected(t *testing.T) {
	pb := Problem{Eta: []int{8, 8, 8}, Alpha: 0.3, Steps: 1, Periodic: true}
	cfg := multiConfig(t, 4, []int{2, 2, 2}, pb.Eta)
	if _, err := Run(pb, pb.InitialCondition(), cfg); err == nil {
		t.Error("distributed periodic ADI should be rejected")
	}
}

func Test2DADIMultipartitioned(t *testing.T) {
	// The 2-D case (Johnsson's setting): p×p tiles on p processors.
	p := 5
	eta := []int{20, 15}
	pb := Problem{Eta: eta, Alpha: 0.3, Steps: 3}
	want := pb.InitialCondition()
	pb.SerialSolve(want)

	m, err := core.NewGeneralized(p, []int{p, p})
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	u := pb.InitialCondition()
	_, err = Run(pb, u, Config{Machine: testMachine(p), Strategy: Multipartition, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want, u); d > 1e-9 {
		t.Errorf("2-D distributed ADI differs from serial by %g", d)
	}
}

func TestRunValidation(t *testing.T) {
	pb := Problem{Eta: []int{8, 8}, Alpha: 0.2, Steps: 1}
	if _, err := Run(pb, nil, Config{Machine: testMachine(2), Strategy: Multipartition}); err == nil {
		t.Error("missing Env should fail")
	}
	if _, err := Run(pb, nil, Config{Machine: testMachine(2), Strategy: BlockWavefront}); err == nil {
		t.Error("missing Block should fail")
	}
	if _, err := Run(pb, nil, Config{Machine: testMachine(2), Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestStrategyString(t *testing.T) {
	if Multipartition.String() != "multipartition" || BlockWavefront.String() != "block-wavefront" ||
		BlockTranspose.String() != "block-transpose" {
		t.Error("strategy names wrong")
	}
}
