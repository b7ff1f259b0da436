package nas

import (
	"math"
	"slices"
	"testing"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/grid"
)

func TestSerialSolveStable(t *testing.T) {
	u := InitialState([]int{10, 10, 10})
	before := u.Norm2()
	SerialSolve(u, 5)
	after := u.Norm2()
	if math.IsNaN(after) || math.IsInf(after, 0) {
		t.Fatalf("solution blew up: %g", after)
	}
	if after > before*10 || after < before/10 {
		t.Errorf("solution norm drifted wildly: %g → %g", before, after)
	}
}

func TestComputeRHSConstantFieldIsZero(t *testing.T) {
	// Both the second and fourth differences of a constant vanish (the
	// clamped boundary treatment preserves this).
	eta := []int{8, 7, 6}
	u := grid.New(eta...)
	u.Fill(3.5)
	rhs := grid.New(eta...)
	ComputeRHS(u, rhs, u.Bounds())
	if rhs.Norm2() > 1e-12 {
		t.Errorf("RHS of constant field = %g, want 0", rhs.Norm2())
	}
}

func TestComputeRHSRegionMatchesWhole(t *testing.T) {
	eta := []int{9, 8, 7}
	u := InitialState(eta)
	whole := grid.New(eta...)
	ComputeRHS(u, whole, u.Bounds())
	// Evaluating per sub-region must give the same values.
	pieces := grid.New(eta...)
	ComputeRHS(u, pieces, grid.RectOf([]int{0, 0, 0}, []int{4, 8, 7}))
	ComputeRHS(u, pieces, grid.RectOf([]int{4, 0, 0}, []int{9, 8, 3}))
	ComputeRHS(u, pieces, grid.RectOf([]int{4, 0, 3}, []int{9, 8, 7}))
	if d := grid.MaxAbsDiff(whole, pieces); d > 0 {
		t.Errorf("regional RHS differs from whole-domain by %g", d)
	}
}

func TestBuildLHSBoundaryZeroing(t *testing.T) {
	eta := []int{6, 5, 4}
	l1 := grid.New(eta...)
	l2 := grid.New(eta...)
	dg := grid.New(eta...)
	u1 := grid.New(eta...)
	u2 := grid.New(eta...)
	BuildLHS(0, dg.Bounds(), l1, l2, dg, u1, u2)
	if l1.At(0, 2, 2) != 0 || l2.At(0, 2, 2) != 0 || l2.At(1, 2, 2) != 0 {
		t.Error("lower couplings at the domain start must be zero")
	}
	if l1.At(1, 2, 2) == 0 {
		t.Error("l1 at row 1 should be nonzero")
	}
	if u1.At(5, 2, 2) != 0 || u2.At(5, 2, 2) != 0 || u2.At(4, 2, 2) != 0 {
		t.Error("upper couplings at the domain end must be zero")
	}
	if dg.At(3, 2, 2) <= 2*pd1+2*pd2 {
		t.Error("diagonal must dominate")
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	cases := []struct {
		p     int
		gamma []int
		eta   []int
	}{
		{4, []int{2, 2, 2}, []int{12, 12, 12}},
		{8, []int{4, 4, 2}, []int{12, 12, 12}},
		{9, []int{3, 3, 3}, []int{13, 11, 12}},
		{6, []int{6, 6, 1}, []int{12, 13, 7}},
	}
	for _, c := range cases {
		steps := 3
		want := InitialState(c.eta)
		SerialSolve(want, steps)

		m, err := core.NewGeneralized(c.p, c.gamma)
		if err != nil {
			t.Fatal(err)
		}
		env, err := dist.NewEnv(m, c.eta, dist.DHPF())
		if err != nil {
			t.Fatal(err)
		}
		u := InitialState(c.eta)
		res, err := Run(env, Origin2000Machine(c.p), steps, u)
		if err != nil {
			t.Fatalf("p=%d γ=%v: %v", c.p, c.gamma, err)
		}
		if d := grid.MaxAbsDiff(want, u); d > 1e-9 {
			t.Errorf("p=%d γ=%v: distributed SP differs from serial by %g", c.p, c.gamma, d)
		}
		if res.Makespan <= 0 {
			t.Error("zero makespan")
		}
	}
}

func TestSerialTimePositiveAndScalesWithDomain(t *testing.T) {
	mach := Origin2000Machine(1)
	tS, err := SerialTime(mach, ClassS.Eta, 2)
	if err != nil {
		t.Fatal(err)
	}
	tW, err := SerialTime(mach, ClassW.Eta, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tS <= 0 || tW <= tS {
		t.Errorf("serial times: S=%g W=%g", tS, tW)
	}
	// W is 27× the points of S; times should scale about linearly.
	if ratio := tW / tS; ratio < 20 || ratio > 35 {
		t.Errorf("W/S serial-time ratio = %g, want ≈ 27", ratio)
	}
}

func TestSpeedupHandCodedRequiresSquare(t *testing.T) {
	mach := Origin2000Machine(8)
	serial, err := SerialTime(mach, ClassS.Eta, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Speedup(HandCodedDiagonal, 8, mach, ClassS.Eta, 2, serial); err == nil {
		t.Error("hand-coded diagonal on p=8 should fail (not a perfect square)")
	}
	s, gamma, err := Speedup(HandCodedDiagonal, 9, mach, ClassS.Eta, 2, serial)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Errorf("speedup = %g", s)
	}
	if !slices.Equal(gamma, []int{3, 3, 3}) {
		t.Errorf("hand-coded diagonal on p=9 used γ %v, want [3 3 3]", gamma)
	}
}

func TestSpeedupSerialOverheads(t *testing.T) {
	// At p = 1 both variants run the whole domain with their code-quality
	// factor: speedups near 0.95 (hand) and 0.91 (dHPF), as in Table 1.
	mach := Origin2000Machine(1)
	serial, err := SerialTime(mach, ClassS.Eta, 2)
	if err != nil {
		t.Fatal(err)
	}
	hand, _, err := Speedup(HandCodedDiagonal, 1, mach, ClassS.Eta, 2, serial)
	if err != nil {
		t.Fatal(err)
	}
	dhpf, _, err := Speedup(DHPFGeneralized, 1, mach, ClassS.Eta, 2, serial)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hand-0.95) > 0.02 {
		t.Errorf("hand-coded serial speedup = %g, want ≈ 0.95", hand)
	}
	if math.Abs(dhpf-0.91) > 0.02 {
		t.Errorf("dHPF serial speedup = %g, want ≈ 0.91", dhpf)
	}
}

func TestSpeedupScalesOnSquares(t *testing.T) {
	eta := ClassW.Eta // keep the test quick; shape holds across classes
	steps := 2
	mach := Origin2000Machine(1)
	serial, err := SerialTime(mach, eta, steps)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range []int{1, 4, 9, 16} {
		s, _, err := Speedup(DHPFGeneralized, p, Origin2000Machine(p), eta, steps, serial)
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Errorf("speedup at p=%d (%g) not above p-previous (%g)", p, s, prev)
		}
		prev = s
	}
}

func TestPrimeProcessorCountsWork(t *testing.T) {
	// The paper: the *technique* is completely general — primes work, with
	// γ = (1, p, p) and more phases, so performance is lower than nearby
	// composite counts. Verify both halves of the claim on the model.
	eta := ClassW.Eta
	steps := 1
	mach := Origin2000Machine(1)
	serial, err := SerialTime(mach, eta, steps)
	if err != nil {
		t.Fatal(err)
	}
	s7, g7, err := Speedup(DHPFGeneralized, 7, Origin2000Machine(7), eta, steps, serial)
	if err != nil {
		t.Fatalf("prime p=7 should run: %v", err)
	}
	if slices.Sort(g7); !slices.Equal(g7, []int{1, 7, 7}) {
		t.Errorf("prime p=7 used γ %v (sorted), want [1 7 7]", g7)
	}
	s8, _, err := Speedup(DHPFGeneralized, 8, Origin2000Machine(8), eta, steps, serial)
	if err != nil {
		t.Fatal(err)
	}
	if s7 <= 0 {
		t.Fatalf("speedup at prime 7 = %g", s7)
	}
	// Per-processor efficiency at the prime is below the composite
	// neighbor's (many more phases: Σγ = 2·7+1 = 15 vs 10 for 2×4×4).
	if s7/7 >= s8/8 {
		t.Errorf("prime p=7 efficiency (%g) should trail p=8 (%g)", s7/7, s8/8)
	}
}

func TestFlopWeightsPositive(t *testing.T) {
	s := newSPSolver()
	if s.ForwardFlopsPerElement() <= 0 || s.BackwardFlopsPerElement() <= 0 {
		t.Error("solver flop weights must be positive")
	}
	if s.FlopsPerElement() != s.ForwardFlopsPerElement()+s.BackwardFlopsPerElement() {
		t.Error("FlopsPerElement must be the sum of the passes")
	}
}

func TestClasses(t *testing.T) {
	for _, c := range []Class{ClassS, ClassW, ClassA, ClassB} {
		if len(c.Eta) != 3 || c.Steps < 1 || c.Name == "" {
			t.Errorf("malformed class %+v", c)
		}
	}
	if ClassB.Eta[0] != 102 {
		t.Errorf("class B must be 102³ (the paper's problem size)")
	}
}
