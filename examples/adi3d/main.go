// adi3d runs a 3-D ADI heat-equation integration distributed over a
// generalized multipartitioning on the virtual-time machine, validates the
// result against the serial solver bit-for-bit, and reports the virtual
// execution profile.
package main

import (
	"fmt"
	"log"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
)

func main() {
	log.SetFlags(0)

	const p = 12
	eta := []int{48, 48, 48}
	pb := adi.Problem{Eta: eta, Alpha: 0.35, Steps: 4}

	// Choose the partitioning with the machine-aware objective and build
	// the multipartitioning.
	best, err := cost.Origin2000().BestPartitioning(p, eta, nil)
	if err != nil {
		log.Fatal(err)
	}
	m, err := core.NewGeneralized(p, best.Gamma)
	if err != nil {
		log.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ADI on %v over %s, %d steps\n", eta, m.Name(), pb.Steps)

	// Serial reference.
	want := pb.InitialCondition()
	pb.SerialSolve(want)

	// Distributed run with real data.
	u := pb.InitialCondition()
	res, err := adi.Run(pb, u, adi.Config{
		Machine:  nas.Origin2000Machine(p),
		Strategy: adi.Multipartition,
		Env:      env,
	})
	if err != nil {
		log.Fatal(err)
	}

	diff := grid.MaxAbsDiff(want, u)
	fmt.Printf("max |distributed − serial| = %g", diff)
	if diff > 1e-9 {
		log.Fatalf(" — VALIDATION FAILED")
	}
	fmt.Println("  ✓ validated against the serial solver")

	fmt.Printf("\nvirtual execution profile (%d ranks):\n", p)
	fmt.Printf("  makespan        %10.3f ms\n", res.Makespan*1e3)
	fmt.Printf("  messages        %10d\n", res.TotalMessages())
	fmt.Printf("  bytes moved     %10d\n", res.TotalBytes())
	s0 := res.Ranks[0]
	fmt.Printf("  rank 0: compute %.3f ms, comm %.3f ms, idle %.3f ms\n",
		s0.ComputeTime*1e3, s0.CommTime*1e3, s0.WaitTime*1e3)

	// Contrast with the block-partitioned baselines (model-only).
	blk, err := dist.NewBlock(p, eta, 0, dist.HandCoded())
	if err != nil {
		log.Fatal(err)
	}
	wave, err := adi.Run(pb, nil, adi.Config{
		Machine: nas.Origin2000Machine(p), Strategy: adi.BlockWavefront, Block: blk, Grain: 64})
	if err != nil {
		log.Fatal(err)
	}
	trans, err := adi.Run(pb, nil, adi.Config{
		Machine: nas.Origin2000Machine(p), Strategy: adi.BlockTranspose, Block: blk})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstrategy comparison (virtual time):\n")
	fmt.Printf("  multipartitioning   %8.3f ms\n", res.Makespan*1e3)
	fmt.Printf("  block wavefront     %8.3f ms\n", wave.Makespan*1e3)
	fmt.Printf("  block transpose     %8.3f ms\n", trans.Makespan*1e3)
}
