// explorer sweeps processor counts for a class-B-sized domain: for each p
// it shows the optimal generalized partitioning, tiles per processor,
// compactness, and the analytic efficiency — then runs the Section 6
// advisor to show when dropping back to fewer processors wins.
package main

import (
	"fmt"
	"log"

	"genmp"
	"genmp/internal/cost"
	"genmp/internal/numutil"
	"genmp/internal/partition"
)

func main() {
	log.SetFlags(0)

	eta := []int{102, 102, 102}
	model := genmp.NewOrigin2000Model()

	fmt.Printf("generalized multipartitionings of a %v domain (analytic model)\n\n", eta)
	fmt.Printf("%5s  %12s  %10s  %8s  %10s\n", "p", "optimal γ", "tiles/proc", "compact", "efficiency")
	for p := 1; p <= 64; p++ {
		res, err := model.BestPartitioning(p, eta, nil)
		if err != nil {
			log.Fatal(err)
		}
		compact := ""
		if cost.IsCompact(p, res.Gamma) {
			compact = "yes"
		}
		eff := model.Speedup(p, eta, res.Gamma) / float64(p)
		fmt.Printf("%5d  %12s  %10d  %8s  %9.1f%%\n",
			p, partition.Describe(res.Gamma), partition.TilesPerProcessor(p, res.Gamma), compact, eff*100)
	}

	// The Section 6 advisor: given 50 processors, is it faster to use 49?
	fmt.Println("\nSection 6 advisor: best configuration given 50 available processors")
	adv, err := model.Advise(50, eta, func(p int, gamma []int) float64 {
		t := model.TotalTime(p, eta, gamma)
		if !cost.IsCompact(p, gamma) {
			// Non-compact partitionings pay tile-management and imbalance
			// overheads the analytic model does not see; the simulated SP
			// (cmd/spbench) measures them directly.
			t *= 1.2
		}
		return t
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  diagonal fallback: p = %d (⌊50^(1/2)⌋² = 49)\n", adv.DiagonalProcs)
	fmt.Printf("  advice: run on p = %d with γ = %v (modeled time %.3g s)\n",
		adv.UseProcs, adv.Gamma, adv.Time)
	if numutil.EqualInts(adv.Gamma, []int{7, 7, 7}) {
		fmt.Println("  → matches the paper: 7×7×7 on 49 beats 5×10×10 on 50 for NAS SP class B")
	}
}
