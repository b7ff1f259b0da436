package exp

import (
	"fmt"
	"math"
	"testing"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/plan"
)

// Bit-identity contract of the overlap schedule (DESIGN.md §14): splitting
// each phase into boundary-first and interior line sets regroups the
// batched kernel panels but never reorders the canonical line order, and
// the batch kernels are bit-equal under any panel grouping — so the field
// data of an overlap-on run must equal the overlap-off run to the last
// Float64bits, on every application and processor count.

var overlapOn = plan.Overlap{Enabled: true}

func overlapEnv(t *testing.T, p int, gamma, eta []int) *dist.Env {
	t.Helper()
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.DHPF())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// sameBits fails the test at the first element where the two grids differ
// in their raw float64 bit patterns.
func sameBits(t *testing.T, what string, off, on *grid.Grid) {
	t.Helper()
	a, b := off.Data(), on.Data()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d elements", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs: off %#x (%g) vs on %#x (%g)",
				what, i, math.Float64bits(a[i]), a[i], math.Float64bits(b[i]), b[i])
		}
	}
}

var overlapGamma = map[int][]int{2: {1, 2, 2}, 4: {2, 2, 2}, 16: {4, 4, 4}}

// TestOverlapBitIdentitySP: strict distributed-memory SP, overlap on vs
// off, at p ∈ {4, 16}.
func TestOverlapBitIdentitySP(t *testing.T) {
	eta := []int{12, 12, 12}
	for _, p := range []int{4, 16} {
		env := overlapEnv(t, p, overlapGamma[p], eta)
		off, _, err := dmem.RunSP(env, nas.Origin2000Machine(p), 2, plan.Overlap{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		on, _, err := dmem.RunSP(env, nas.Origin2000Machine(p), 2, overlapOn, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "sp", off, on)
	}
}

// TestOverlapBitIdentityBT: strict BT (5×5 block carries), p ∈ {4, 16}.
func TestOverlapBitIdentityBT(t *testing.T) {
	eta := []int{12, 12, 12}
	for _, p := range []int{4, 16} {
		env := overlapEnv(t, p, overlapGamma[p], eta)
		off, _, err := dmem.RunBT(env, nas.Origin2000Machine(p), 2, plan.Overlap{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		on, _, err := dmem.RunBT(env, nas.Origin2000Machine(p), 2, overlapOn, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "bt", off, on)
	}
}

// TestOverlapBitIdentityADI: strict ADI (tridiagonal carries, no halos),
// p ∈ {4, 16}.
func TestOverlapBitIdentityADI(t *testing.T) {
	eta := []int{16, 16, 16}
	for _, p := range []int{4, 16} {
		env := overlapEnv(t, p, overlapGamma[p], eta)
		pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: 2}
		off, _, err := dmem.RunADI(pb, env, nas.Origin2000Machine(p), plan.Overlap{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		on, _, err := dmem.RunADI(pb, env, nas.Origin2000Machine(p), overlapOn, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "adi", off, on)
	}
}

// TestOverlapBitIdentityShared: the shared-storage data-mode SP (the dist
// executor's overlap path) must advance u identically too, and the
// serial reference pins both.
func TestOverlapBitIdentityShared(t *testing.T) {
	eta := []int{12, 12, 12}
	for _, p := range []int{4, 16} {
		env := overlapEnv(t, p, overlapGamma[p], eta)
		uOff := nas.InitialState(eta)
		if _, err := nas.Run(env, nas.Origin2000Machine(p), 2, uOff); err != nil {
			t.Fatal(err)
		}
		uOn := nas.InitialState(eta)
		pl, err := nas.CompilePlanOverlap(env, overlapOn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nas.RunPlanned(env, nas.Origin2000Machine(p), 2, uOn, pl); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "sp-shared", uOff, uOn)
	}
}

// TestOverlapBitIdentityWavefront: the shared-storage wavefront pipeline
// of a block-partitioned ADI, overlap on vs off, on the batched and the
// scalar path. Grain 7 over 12×10 = 120 lines per slab leaves a one-line
// last block, so every pass mixes split and unsplit phases.
func TestOverlapBitIdentityWavefront(t *testing.T) {
	const p = 4
	pb := adi.Problem{Eta: []int{24, 12, 10}, Alpha: 0.3, Steps: 2}
	want := pb.InitialCondition()
	pb.SerialSolve(want)
	for _, batch := range []int{0, -1} {
		msgs := map[bool]int{}
		for _, on := range []bool{false, true} {
			b, err := dist.NewBlock(p, pb.Eta, 0, dist.DHPF())
			if err != nil {
				t.Fatal(err)
			}
			b.Batch = batch
			cfg := adi.Config{Machine: nas.Origin2000Machine(p), Strategy: adi.BlockWavefront, Block: b, Grain: 7}
			if on {
				cfg.Overlap = overlapOn
			}
			u := pb.InitialCondition()
			res, err := adi.Run(pb, u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			msgs[on] = res.TotalMessages()
			sameBits(t, fmt.Sprintf("wavefront batch %d overlap %v vs serial", batch, on), want, u)
		}
		t.Logf("batch %d: %d messages overlap off, %d on", batch, msgs[false], msgs[true])
		if msgs[true] <= msgs[false] {
			t.Errorf("batch %d: overlap-on run sent %d messages, off %d: the split path did not run", batch, msgs[true], msgs[false])
		}
	}
}
