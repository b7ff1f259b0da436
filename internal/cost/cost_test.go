package cost

import (
	"math"
	"testing"

	"genmp/internal/numutil"
	"genmp/internal/sim"
)

func testModel() Model {
	return Model{K1: 1e-6, K2: 20e-6, K3: ScalableNetwork(80e-9)}
}

func TestSweepTimeFormula(t *testing.T) {
	m := testModel()
	eta := []int{100, 100, 100}
	gamma := []int{4, 4, 2}
	p := 8
	etaTotal := 1e6
	want := m.K1*etaTotal/8 + 3*(m.K2+(80e-9/8)*etaTotal/100)
	if got := m.SweepTime(p, eta, gamma, 0); math.Abs(got-want) > 1e-15 {
		t.Errorf("SweepTime = %g, want %g", got, want)
	}
	// γᵢ = 1: no communication phases at all.
	gamma = []int{1, 8, 8}
	want = m.K1 * etaTotal / 8
	if got := m.SweepTime(p, eta, gamma, 0); math.Abs(got-want) > 1e-15 {
		t.Errorf("SweepTime with γ=1 = %g, want %g", got, want)
	}
}

func TestTotalTimeIsSumOfSweeps(t *testing.T) {
	m := testModel()
	eta := []int{64, 32, 16}
	gamma := []int{4, 4, 2}
	sum := 0.0
	for dim := 0; dim < 3; dim++ {
		sum += m.SweepTime(8, eta, gamma, dim)
	}
	if got := m.TotalTime(8, eta, gamma); math.Abs(got-sum) > 1e-15 {
		t.Errorf("TotalTime = %g, want %g", got, sum)
	}
}

func TestSpeedupMonotoneOnSquares(t *testing.T) {
	// On perfect squares with diagonal partitionings, speedup should grow
	// with p for a class-B-sized domain.
	m := Origin2000()
	eta := []int{102, 102, 102}
	prev := 0.0
	for _, p := range []int{1, 4, 9, 16, 25, 36, 49, 64, 81} {
		res, err := m.BestPartitioning(p, eta, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := m.Speedup(p, eta, res.Gamma)
		if s <= prev {
			t.Errorf("speedup not increasing at p=%d: %g after %g", p, s, prev)
		}
		prev = s
	}
}

func TestSpeedupNearLinearAtModerateP(t *testing.T) {
	m := Origin2000()
	eta := []int{102, 102, 102}
	res, err := m.BestPartitioning(16, eta, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Speedup(16, eta, res.Gamma)
	if s < 12 || s > 16.5 {
		t.Errorf("speedup at p=16 = %g, expected near-linear (12–16.5)", s)
	}
}

func TestObjectivePrefersFewerCutsOfSmallDims(t *testing.T) {
	// The model objective must reproduce the skewed-domain remark.
	m := Origin2000()
	eta := []int{500, 500, 100}
	res, err := m.BestPartitioning(4, eta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !numutil.EqualInts(res.Gamma, []int{4, 4, 1}) {
		t.Errorf("skewed optimal = %v, want [4 4 1]", res.Gamma)
	}
}

func TestAdviseFindsCompactConfiguration(t *testing.T) {
	// With a time function that penalizes non-compact partitionings (as the
	// paper measured for 50 vs 49), the advisor must drop back to 49.
	m := Origin2000()
	eta := []int{102, 102, 102}
	timeOf := func(p int, gamma []int) float64 {
		t := m.TotalTime(p, eta, gamma)
		if !IsCompact(p, gamma) {
			t *= 1.25 // non-compact penalty standing in for measured overheads
		}
		return t
	}
	adv, err := m.Advise(50, eta, timeOf)
	if err != nil {
		t.Fatal(err)
	}
	if adv.DiagonalProcs != 49 {
		t.Errorf("DiagonalProcs = %d, want 49", adv.DiagonalProcs)
	}
	if adv.UseProcs != 49 {
		t.Errorf("advisor chose p=%d (γ=%v), want 49", adv.UseProcs, adv.Gamma)
	}
	if !numutil.EqualInts(adv.Gamma, []int{7, 7, 7}) {
		t.Errorf("advisor γ = %v, want [7 7 7]", adv.Gamma)
	}
}

func TestAdviseAnalyticDefault(t *testing.T) {
	m := Origin2000()
	eta := []int{102, 102, 102}
	adv, err := m.Advise(16, eta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adv.UseProcs < adv.DiagonalProcs || adv.UseProcs > 16 {
		t.Errorf("advice p=%d outside [%d, 16]", adv.UseProcs, adv.DiagonalProcs)
	}
	if adv.Time <= 0 {
		t.Errorf("advice time = %g", adv.Time)
	}
}

func TestAdviseErrors(t *testing.T) {
	m := Origin2000()
	if _, err := m.Advise(0, []int{10, 10}, nil); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := m.Advise(4, []int{10}, nil); err == nil {
		t.Error("d=1 should fail")
	}
}

func TestSurfaceToVolume(t *testing.T) {
	got := SurfaceToVolume([]int{100, 100, 100}, []int{5, 10, 10})
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("SurfaceToVolume = %g, want 0.25", got)
	}
}

func TestIsCompact(t *testing.T) {
	// Diagonal 7×7×7 on 49: tiles = 343 = 49^1.5 → compact.
	if !IsCompact(49, []int{7, 7, 7}) {
		t.Error("7×7×7 on 49 should be compact")
	}
	// 5×10×10 on 50: tiles = 500 > 50^1.5 ≈ 354 → not compact.
	if IsCompact(50, []int{5, 10, 10}) {
		t.Error("5×10×10 on 50 should not be compact")
	}
	// 8×8×1 on 8: tiles 64 > 8^1.5 ≈ 22.6 → not compact.
	if IsCompact(8, []int{8, 8, 1}) {
		t.Error("8×8×1 on 8 should not be compact")
	}
	// 4×4×2 on 8: tiles 32 > 22.6 → also not compact (8 is not a square).
	if IsCompact(8, []int{4, 4, 2}) {
		t.Error("4×4×2 on 8 is not compact either")
	}
}

func TestBusVersusScalableNetwork(t *testing.T) {
	eta := []int{128, 128, 128}
	scalable := Model{K1: 1e-6, K2: 20e-6, K3: ScalableNetwork(80e-9)}
	bus := Model{K1: 1e-6, K2: 20e-6, K3: BusNetwork(80e-9)}
	gamma := []int{8, 8, 8}
	p := 64
	if scalable.TotalTime(p, eta, gamma) >= bus.TotalTime(p, eta, gamma) {
		t.Error("scalable network should beat the bus at p=64")
	}
	// At p=1 they agree (no communication).
	g1 := []int{1, 1, 1}
	if scalable.TotalTime(1, eta, g1) != bus.TotalTime(1, eta, g1) {
		t.Error("p=1 times should match")
	}
}

func TestOrigin2000Constants(t *testing.T) {
	m := Origin2000()
	if m.K1 <= 0 || m.K2 <= 0 || m.K3(1) <= 0 {
		t.Error("Origin2000 constants must be positive")
	}
	if m.K3(10) >= m.K3(1) {
		t.Error("scalable K3 should decrease with p")
	}
}

func TestCalibrated(t *testing.T) {
	net := sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 2e-6, RecvOverhead: 2e-6}
	cpu := sim.CPU{FlopsPerSec: 200e6}
	w := SweepWorkload{FlopsPerElement: 100, CarryBytesPerLine: 80, Passes: 2}
	m := Calibrated(net, cpu, 1.0, 1e-6, w)
	if want := 100.0 / 200e6; math.Abs(m.K1-want) > 1e-18 {
		t.Errorf("K1 = %g, want %g", m.K1, want)
	}
	// Two passes, each 2 pack/unpack charges + both overheads + latency.
	if want := 2 * (2*1e-6 + 2e-6 + 2e-6 + 10e-6); math.Abs(m.K2-want) > 1e-15 {
		t.Errorf("K2 = %g, want %g", m.K2, want)
	}
	if want := 80.0 / 100e6 / 4; math.Abs(m.K3(4)-want) > 1e-18 {
		t.Errorf("scalable K3(4) = %g, want %g", m.K3(4), want)
	}
	bus := net
	bus.Scaling = sim.FixedBus
	mb := Calibrated(bus, cpu, 1.0, 0, w)
	if mb.K3(1) != mb.K3(16) {
		t.Errorf("bus K3 must be p-independent: %g vs %g", mb.K3(1), mb.K3(16))
	}
	// The cache boost raises the effective rate and lowers K1.
	hot := sim.CPU{FlopsPerSec: 200e6, CacheBoost: 2, L2Bytes: 1 << 20, WorkingSetBytes: 1 << 19}
	if mh := Calibrated(net, hot, 1.0, 0, w); mh.K1 >= m.K1 {
		t.Errorf("cache-resident K1 %g should beat %g", mh.K1, m.K1)
	}
}

func TestCalibratedFabricMatchesCalibratedOnDefaults(t *testing.T) {
	net := sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 2e-6, RecvOverhead: 2e-6}
	cpu := sim.CPU{FlopsPerSec: 200e6}
	w := SweepWorkload{FlopsPerElement: 100, CarryBytesPerLine: 80, Passes: 2}
	const p = 8

	// Crossbar and bus fabrics must reproduce the Network-based constants
	// bit for bit: same K₂ expression, same K₃ regime.
	plain := Calibrated(net, cpu, 1.0, 1e-6, w)
	xbar := CalibratedFabric(sim.NewCrossbar(net, p), net, cpu, 1.0, 1e-6, w)
	if plain.K1 != xbar.K1 || plain.K2 != xbar.K2 || plain.K3(p) != xbar.K3(p) || plain.K3(1) != xbar.K3(1) {
		t.Errorf("crossbar fabric model differs from Calibrated: K2 %g vs %g, K3(8) %g vs %g",
			plain.K2, xbar.K2, plain.K3(p), xbar.K3(p))
	}
	busNet := net
	busNet.Scaling = sim.FixedBus
	plainBus := Calibrated(busNet, cpu, 1.0, 1e-6, w)
	busFab := CalibratedFabric(sim.NewBus(net, p), net, cpu, 1.0, 1e-6, w)
	if plainBus.K2 != busFab.K2 || plainBus.K3(p) != busFab.K3(p) {
		t.Errorf("bus fabric model differs from Calibrated on a bus network")
	}
	if busFab.K3(1) != busFab.K3(16) {
		t.Error("bus fabric K3 must be p-independent")
	}
}

func TestCalibratedFabricHypercubeRaisesK2(t *testing.T) {
	net := sim.Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 2e-6, RecvOverhead: 2e-6}
	cpu := sim.CPU{FlopsPerSec: 200e6}
	w := SweepWorkload{FlopsPerElement: 100, CarryBytesPerLine: 80, Passes: 2}
	const p = 8
	xbar := CalibratedFabric(sim.NewCrossbar(net, p), net, cpu, 1.0, 1e-6, w)
	cube := CalibratedFabric(sim.NewHypercube(net, p), net, cpu, 1.0, 1e-6, w)
	// Mean hop count over distinct pairs of an 8-node cube exceeds 1, so the
	// start-up constant grows; the scalable K₃ regime is unchanged.
	if cube.K2 <= xbar.K2 {
		t.Errorf("hypercube K2 %g should exceed crossbar K2 %g", cube.K2, xbar.K2)
	}
	if cube.K3(2*p) >= cube.K3(p) {
		t.Error("hypercube K3 should stay scalable (decreasing in p)")
	}
}
