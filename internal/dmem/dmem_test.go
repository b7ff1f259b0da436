package dmem

import (
	"fmt"
	"math"
	"testing"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
	"genmp/internal/sim"
)

func testMachine(p int) *sim.Machine {
	return sim.NewMachine(p,
		sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6},
		sim.CPU{FlopsPerSec: 250e6})
}

func mustEnv(t *testing.T, p int, gamma, eta []int) *dist.Env {
	t.Helper()
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestStrictSPMatchesSerial requires the strict SP field to be
// Float64bits-identical to nas.SerialSolve, which runs the scalar
// Banded.Forward/Backward and the serial BuildLHS. The last case's tiles
// are 32 cells wide on the last axis, so full 32-line panels along dims 0
// and 1 are single runs of adjacent lines.
func TestStrictSPMatchesSerial(t *testing.T) {
	cases := []struct {
		p     int
		gamma []int
		eta   []int
	}{
		{4, []int{2, 2, 2}, []int{12, 12, 12}},
		{8, []int{4, 4, 2}, []int{12, 12, 12}},
		{6, []int{6, 6, 1}, []int{12, 13, 7}},
		{2, []int{1, 2, 2}, []int{16, 32, 64}},
	}
	for _, c := range cases {
		steps := 3
		want := nas.InitialState(c.eta)
		nas.SerialSolve(want, steps)

		env := mustEnv(t, c.p, c.gamma, c.eta)
		got, res, err := RunSP(env, testMachine(c.p), steps, plan.Overlap{}, nil)
		if err != nil {
			t.Fatalf("p=%d: %v", c.p, err)
		}
		if got == nil {
			t.Fatal("no gathered grid")
		}
		wd, gd := want.Data(), got.Data()
		for i := range wd {
			if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
				t.Fatalf("p=%d γ=%v: element %d: strict SP %v (%#x) != serial %v (%#x)",
					c.p, c.gamma, i, gd[i], math.Float64bits(gd[i]), wd[i], math.Float64bits(wd[i]))
			}
		}
		if res.TotalBytes() == 0 {
			t.Error("strict SP moved no bytes")
		}
	}
}

// requireSameBits fails unless got is Float64bits-identical to want.
func requireSameBits(t *testing.T, what string, want, got *grid.Grid) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
			t.Fatalf("%s: element %d: %v (%#x) != serial %v (%#x)",
				what, i, gd[i], math.Float64bits(gd[i]), wd[i], math.Float64bits(wd[i]))
		}
	}
}

// TestStrictADIMatchesSerial requires the strict ADI field to be
// Float64bits-identical to the serial solve. The last case is the
// benchmark's adi-12-p2 geometry: its 12×6×6 tiles solve their dim-0 and
// dim-2 batches in place and pack their dim-1 batches (runs of 6 lines).
func TestStrictADIMatchesSerial(t *testing.T) {
	cases := []struct {
		p     int
		gamma []int
		eta   []int
	}{
		{4, []int{2, 2, 2}, []int{10, 9, 8}},
		{8, []int{4, 4, 2}, []int{12, 12, 8}},
		{5, []int{5, 5}, []int{15, 11}},
		{2, []int{1, 2, 2}, []int{12, 12, 12}},
	}
	for _, c := range cases {
		pb := adi.Problem{Eta: c.eta, Alpha: 0.3, Steps: 3}
		want := pb.InitialCondition()
		pb.SerialSolve(want)

		env := mustEnv(t, c.p, c.gamma, c.eta)
		got, res, err := RunADI(pb, env, testMachine(c.p), plan.Overlap{}, nil)
		if err != nil {
			t.Fatalf("p=%d: %v", c.p, err)
		}
		requireSameBits(t, fmt.Sprintf("p=%d γ=%v: strict ADI", c.p, c.gamma), want, got)
		if res.Makespan <= 0 {
			t.Error("zero makespan")
		}
	}
}

// TestStrictBTMatchesSerial requires the strict BT field to be
// Float64bits-identical to nas.BTSerialSolve.
func TestStrictBTMatchesSerial(t *testing.T) {
	p := 4
	gamma := []int{2, 2, 2}
	eta := []int{10, 10, 10}
	steps := 2
	want := nas.InitialState(eta)
	nas.BTSerialSolve(want, steps)

	env := mustEnv(t, p, gamma, eta)
	got, res, err := RunBT(env, testMachine(p), steps, plan.Overlap{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "strict BT", want, got)
	if res.TotalBytes() == 0 {
		t.Error("strict BT moved no bytes")
	}
}

func TestStrictSPRejectsThinTiles(t *testing.T) {
	env := mustEnv(t, 8, []int{8, 8, 1}, []int{8, 8, 4}) // tiles 1 cell thick
	if _, _, err := RunSP(env, testMachine(8), 1, plan.Overlap{}, nil); err == nil {
		t.Error("tiles thinner than the halo depth should be rejected")
	}
}
