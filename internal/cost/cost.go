// Package cost implements the analytic execution-time model of Section 3.1
// and the Section 6 compact-partitioning advisor.
//
// For a line sweep along dimension i of an η₁×…×η_d array multipartitioned
// as (γᵢ) on p processors:
//
//	Tᵢ(p) = K₁·η/p + (γᵢ−1)·(K₂ + K₃(p)·η/ηᵢ)
//
// where K₁ is the sequential computation time per element, K₂ the start-up
// cost of one communication phase, and K₃(p) the bandwidth-sensitive cost
// per element of communicated hyper-surface (∝ 1/p on a scalable network,
// constant on a bus). The full-application model sums Tᵢ over all d sweep
// directions.
package cost

import (
	"fmt"
	"math"

	"genmp/internal/numutil"
	"genmp/internal/partition"
	"genmp/internal/sim"
)

// Model holds the machine constants of the Section 3.1 objective.
type Model struct {
	// K1 is the sequential computation time per array element for one
	// dimensional sweep (seconds).
	K1 float64
	// K2 is the fixed start-up overhead of one communication phase
	// (seconds).
	K2 float64
	// K3 returns the per-element transfer cost of hyper-surface
	// communication on p processors (seconds per element).
	K3 func(p int) float64
}

// ScalableNetwork returns a K₃ for a network whose aggregate bandwidth
// grows with p: each processor moves its 1/p share of the surface at
// perElement seconds per element, so K₃(p) = perElement/p.
func ScalableNetwork(perElement float64) func(int) float64 {
	return func(p int) float64 { return perElement / float64(p) }
}

// BusNetwork returns a constant K₃: the whole surface crosses one shared
// medium regardless of p.
func BusNetwork(perElement float64) func(int) float64 {
	return func(int) float64 { return perElement }
}

// SweepWorkload describes one full line sweep of an application for
// Calibrated: the arithmetic per array element (all passes, including any
// coefficient build fused into the sweep phase) and the carry traffic each
// line pushes across a slab boundary.
type SweepWorkload struct {
	// FlopsPerElement is the total flops per array element per sweep.
	FlopsPerElement float64
	// CarryBytesPerLine is the bytes each line ships across one slab
	// boundary, summed over the passes (e.g. a pentadiagonal solve carries
	// 8 doubles forward and 2 backward: 80 bytes).
	CarryBytesPerLine float64
	// Passes is the number of traversals crossing each boundary (1 for a
	// forward-only recurrence, 2 for forward elimination + back
	// substitution).
	Passes int
}

// Calibrated derives the Model constants of the Section 3.1 objective from
// a simulated machine instead of hand-picked numbers, so the analytic
// prediction and the internal/sim measurement share one source of truth
// (the calibration audit of internal/exp quantifies the residual error):
//
//	K₁ = flops/element · computeFactor / effective flop rate
//	K₂ = passes · (2·perMessage + sendOverhead + recvOverhead + latency)
//	K₃ = carryBytes/line / bandwidth (scaled 1/p on a scalable network)
//
// K₂ counts, per slab boundary and pass, one send and one receive on the
// same rank (each wrapped in a perMessage pack/unpack charge) plus the wire
// latency the receiver waits out in the balanced steady state. computeFactor
// and perMessage are the dist.OverheadModel code-quality charges; pass 1 and
// 0 for ideal code. The CPU must carry the workload's WorkingSetBytes for
// the cache-aware effective rate.
func Calibrated(net sim.Network, cpu sim.CPU, computeFactor, perMessage float64, w SweepWorkload) Model {
	k3 := ScalableNetwork(w.CarryBytesPerLine / net.Bandwidth)
	if net.Scaling == sim.FixedBus {
		k3 = BusNetwork(w.CarryBytesPerLine / net.Bandwidth)
	}
	return Model{
		K1: w.FlopsPerElement * computeFactor / cpu.EffectiveFlopsPerSec(),
		K2: float64(w.Passes) * (2*perMessage + net.SendOverhead + net.RecvOverhead + net.Latency),
		K3: k3,
	}
}

// CalibratedFabric is Calibrated with the interconnect described by a
// sim.Fabric instead of the bare Network: the start-up constant uses the
// topology's mean head latency (hop-count average on a hypercube, the plain
// wire latency on the uniform fabrics) and K₃ keys off Fabric.SharedMedium
// rather than the Network scaling field. For the default crossbar and bus
// fabrics the result is identical to Calibrated.
func CalibratedFabric(fab sim.Fabric, net sim.Network, cpu sim.CPU, computeFactor, perMessage float64, w SweepWorkload) Model {
	k3 := ScalableNetwork(w.CarryBytesPerLine / net.Bandwidth)
	if fab.SharedMedium() {
		k3 = BusNetwork(w.CarryBytesPerLine / net.Bandwidth)
	}
	return Model{
		K1: w.FlopsPerElement * computeFactor / cpu.EffectiveFlopsPerSec(),
		K2: float64(w.Passes) * (2*perMessage + net.SendOverhead + net.RecvOverhead + fab.MeanHeadLatency()),
		K3: k3,
	}
}

// Origin2000 returns constants loosely calibrated to the paper's testbed
// (250 MHz R10000, MPI over a scalable interconnect) for an SP-like
// workload: a few µs of computation per element and sweep, ~20 µs message
// start-up, ~80 ns per 8-byte element of surface moved on a per-processor
// link.
func Origin2000() Model {
	return Model{
		K1: 1.0e-6,
		K2: 20e-6,
		K3: ScalableNetwork(80e-9),
	}
}

// SweepTime returns Tᵢ(p) for a sweep along dimension dim.
func (m Model) SweepTime(p int, eta, gamma []int, dim int) float64 {
	eta0 := float64(numutil.Prod(eta...))
	t := m.K1 * eta0 / float64(p)
	if gamma[dim] > 1 {
		t += float64(gamma[dim]-1) * (m.K2 + m.K3(p)*eta0/float64(eta[dim]))
	}
	return t
}

// TotalTime returns Σᵢ Tᵢ(p): the modeled time of one full round of sweeps
// along every dimension.
func (m Model) TotalTime(p int, eta, gamma []int) float64 {
	t := 0.0
	for dim := range eta {
		t += m.SweepTime(p, eta, gamma, dim)
	}
	return t
}

// SerialTime returns the modeled sequential time d·K₁·η of one full round
// of sweeps.
func (m Model) SerialTime(eta []int) float64 {
	return float64(len(eta)) * m.K1 * float64(numutil.Prod(eta...))
}

// Speedup returns SerialTime / TotalTime for the given partitioning.
func (m Model) Speedup(p int, eta, gamma []int) float64 {
	return m.SerialTime(eta) / m.TotalTime(p, eta, gamma)
}

// Objective converts the model into the partitioning-search objective for
// an array of extents eta on p processors: λᵢ = K₂ + K₃(p)·η/ηᵢ.
func (m Model) Objective(p int, eta []int) partition.Objective {
	return partition.MachineObjective(eta, m.K2, m.K3(p))
}

// BestPartitioning searches the optimal (γᵢ) for an array of extents eta on
// p processors under the model's objective, capped at γᵢ ≤ ηᵢ: a dimension
// takes no more cuts than it has elements. It counts the search into st
// when st is non-nil, and fails when no elementary partitioning fits.
func (m Model) BestPartitioning(p int, eta []int, st *partition.SearchStats) (partition.Result, error) {
	return partition.OptimalCappedStats(p, len(eta), m.Objective(p, eta), eta, st)
}

// Advice is the outcome of the Section 6 compact-partitioning search: the
// processor count (≤ the available count) and partitioning minimizing the
// modeled time.
type Advice struct {
	UseProcs int
	Gamma    []int
	Time     float64
	// DiagonalProcs is ⌊p^(1/(d−1))⌋^(d−1), the largest processor count ≤ p
	// admitting a compact diagonal multipartitioning — the lower end of the
	// range the paper says the optimum falls in.
	DiagonalProcs int
}

// Advise searches over processor counts p′ ≤ p for the configuration with
// the smallest modeled time — the paper's observation that a non-compact
// partitioning (many tiles per processor) can lose to a compact one on
// slightly fewer processors (e.g. 5×10×10 on 50 vs 7×7×7 on 49 for NAS SP).
// timeOf may be nil, in which case the analytic TotalTime of the model's
// best partitioning is used; supply a custom function (e.g. a simulation)
// to advise against a richer cost measure.
func (m Model) Advise(p int, eta []int, timeOf func(p int, gamma []int) float64) (Advice, error) {
	if p < 1 {
		return Advice{}, fmt.Errorf("cost: Advise: p = %d must be ≥ 1", p)
	}
	d := len(eta)
	if d < 2 {
		return Advice{}, fmt.Errorf("cost: Advise: need d ≥ 2")
	}
	root := numutil.IntRoot(p, d-1)
	best := Advice{Time: math.Inf(1), DiagonalProcs: numutil.Pow(root, d-1)}
	for pp := best.DiagonalProcs; pp <= p; pp++ {
		res, err := m.BestPartitioning(pp, eta, nil)
		if err != nil {
			continue
		}
		t := 0.0
		if timeOf != nil {
			t = timeOf(pp, res.Gamma)
		} else {
			t = m.TotalTime(pp, eta, res.Gamma)
		}
		if t < best.Time {
			best.UseProcs = pp
			best.Gamma = res.Gamma
			best.Time = t
		}
	}
	if best.Gamma == nil {
		return Advice{}, fmt.Errorf("cost: Advise: no feasible configuration for p = %d, d = %d", p, d)
	}
	return best, nil
}

// SurfaceToVolume returns Σᵢ γᵢ/ηᵢ, the paper's measure (Section 6) of the
// relative cost of tile-boundary communication to tile computation.
func SurfaceToVolume(eta, gamma []int) float64 {
	s := 0.0
	for i := range eta {
		s += float64(gamma[i]) / float64(eta[i])
	}
	return s
}

// IsCompact reports whether the partitioning is compact in the paper's
// sense: the tile count ∏γᵢ does not exceed the diagonal multipartitioning
// tile count p^(d/(d−1)) (equivalently, tiles per processor ≤ p^(1/(d−1))).
func IsCompact(p int, gamma []int) bool {
	d := len(gamma)
	tiles := float64(numutil.Prod(gamma...))
	return tiles <= math.Pow(float64(p), float64(d)/float64(d-1))+1e-9
}
