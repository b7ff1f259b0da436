package exp

import (
	"math"
	"testing"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/nas"
	"genmp/internal/partition"
	"genmp/internal/plan"
)

// Bit-identity contract of the redistribution refactor: the dynamic-block
// transpose and both halo exchanges now re-emit their schedules through
// redist.Compile/CompileHalo, and these Float64bits constants — captured
// from the tree immediately before the rewiring — pin the virtual-time
// makespans (and, in data mode, the numerics) to the bit. Any drift means
// the compiled schedules stopped replaying the legacy ones exactly.

func checkBits(t *testing.T, what string, got float64, want uint64) {
	t.Helper()
	if math.Float64bits(got) != want {
		t.Errorf("%s = %#x (%g), want %#x (%g) — compiled redistribution diverged from the legacy schedule",
			what, math.Float64bits(got), got, want, math.Float64frombits(want))
	}
}

// TestRedistBitIdentitySP: NAS SP (multipartitioned sweeps + dist halo
// exchange) at p ∈ {4, 16}, class-S extents, two timesteps.
func TestRedistBitIdentitySP(t *testing.T) {
	eta := []int{12, 12, 12}
	want := map[int]uint64{4: 0x3f7ca3ac4ff86d72, 16: 0x3f7249c895217ec0}
	for _, p := range []int{4, 16} {
		obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
		res, err := partition.OptimalCapped(p, len(eta), obj, eta)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewGeneralized(p, res.Gamma)
		if err != nil {
			t.Fatal(err)
		}
		env, err := dist.NewEnv(m, eta, dist.DHPF())
		if err != nil {
			t.Fatal(err)
		}
		r, err := nas.Run(env, nas.Origin2000Machine(p), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, "sp makespan", r.Makespan, want[p])
	}
}

// TestRedistBitIdentityBT: NAS BT (staggered sweeps, same halo machinery)
// at p ∈ {4, 16}.
func TestRedistBitIdentityBT(t *testing.T) {
	eta := []int{12, 12, 12}
	gamma := map[int][]int{4: {2, 2, 2}, 16: {4, 4, 4}}
	want := map[int]uint64{4: 0x3f961951006d4d03, 16: 0x3f84824841e04f6a}
	for _, p := range []int{4, 16} {
		m, err := core.NewGeneralized(p, gamma[p])
		if err != nil {
			t.Fatal(err)
		}
		env, err := dist.NewEnv(m, eta, dist.DHPF())
		if err != nil {
			t.Fatal(err)
		}
		r, err := nas.BTRun(env, nas.Origin2000Machine(p), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, "bt makespan", r.Makespan, want[p])
	}
}

// TestRedistBitIdentityTranspose: the ADI dynamic-block strategy, whose
// forward and backward transposes are now compiled BLOCK→BLOCK
// redistributions, model-only at p ∈ {4, 16}.
func TestRedistBitIdentityTranspose(t *testing.T) {
	eta := []int{32, 32, 32}
	want := map[int]uint64{4: 0x3f83932eddde5d6e, 16: 0x3f6ba2f5dc911906}
	for _, p := range []int{4, 16} {
		blk, err := dist.NewBlock(p, eta, 0, dist.HandCoded())
		if err != nil {
			t.Fatal(err)
		}
		pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: 2}
		r, err := adi.Run(pb, nil, adi.Config{
			Machine: nas.Origin2000Machine(p), Strategy: adi.BlockTranspose,
			Block: blk, ModelOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkBits(t, "adi-transpose makespan", r.Makespan, want[p])
	}
}

// TestRedistBitIdentityTransposeData: data-mode transpose at p = 4 — the
// makespan and the solution's sum of squares both pinned to the bit.
func TestRedistBitIdentityTransposeData(t *testing.T) {
	p := 4
	eta := []int{16, 16, 16}
	blk, err := dist.NewBlock(p, eta, 0, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: 2}
	u := pb.InitialCondition()
	r, err := adi.Run(pb, u, adi.Config{
		Machine: nas.Origin2000Machine(p), Strategy: adi.BlockTranspose, Block: blk,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "adi-transpose-data makespan", r.Makespan, 0x3f567fddc84213f9)
	sum := 0.0
	for _, v := range u.Data() {
		sum += v * v
	}
	checkBits(t, "adi-transpose-data sumsq", sum, 0x4081bb81f6f10c2a)
}

// TestRedistBitIdentityStrict: the strict distributed-memory SP (the
// payload-carrying halo path) at p = 8 — the gathered field must stay
// Float64bits-identical to the serial solve, and the strict makespan stays
// pinned.
func TestRedistBitIdentityStrict(t *testing.T) {
	p, eta, steps := 8, []int{12, 12, 12}, 2
	m, err := core.NewGeneralized(p, []int{4, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := dmem.RunSP(env, nas.Origin2000Machine(p), steps, plan.Overlap{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := nas.InitialState(eta)
	nas.SerialSolve(want, steps)
	sameBits(t, "strict SP vs serial", want, got)
	checkBits(t, "strict makespan", res.Makespan, 0x3f6e288724d6ebc1)
}
