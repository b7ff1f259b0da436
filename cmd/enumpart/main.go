// Command enumpart explores the elementary-partitioning search space of
// Section 3: it lists the elementary partitionings for one processor count
// (the Section 3.2 examples) or tabulates how the search-space size grows
// with p (the Section 3.3 complexity study).
//
// Usage:
//
//	enumpart -p 30 -d 3
//	enumpart -growth 1000 -dims 3,4,5
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"genmp/internal/exp"
	"genmp/internal/partition"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("enumpart: ")
	p := flag.Int("p", 30, "processor count to enumerate")
	d := flag.Int("d", 3, "array dimensionality")
	growth := flag.Int("growth", 0, "tabulate elementary-partitioning counts for p = 1..N instead")
	dimsStr := flag.String("dims", "3,4,5", "dimensionalities for the growth table")
	top := flag.Int("top", 12, "growth table: show the N largest counts")
	factor := flag.Int("factor", 0, "run the Figure 2 generator: distributions of r=N instances of one factor into d bins")
	optimal := flag.Bool("optimal", false, "also run the optimal-partitioning search and report its statistics")
	flag.Parse()

	if *factor > 0 {
		fmt.Printf("Figure 2 generator: distributions of r = %d instances of one prime\n", *factor)
		fmt.Printf("factor into d = %d bins (sum = r + m, max m in at least two bins):\n\n", *d)
		n := 0
		partition.EachDistribution(*factor, *d, func(bins []int) bool {
			fmt.Printf("  %v\n", bins)
			n++
			return true
		})
		fmt.Printf("\n%d distributions, each generated exactly once in linear time.\n", n)
		return
	}

	if *growth > 0 {
		var dims []int
		for _, tok := range strings.Split(*dimsStr, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 2 {
				log.Fatalf("bad dimensionality %q", tok)
			}
			dims = append(dims, v)
		}
		rows := exp.EnumerationGrowth(*growth, dims)
		sort.SliceStable(rows, func(a, b int) bool {
			return rows[a].Counts[len(dims)-1] > rows[b].Counts[len(dims)-1]
		})
		fmt.Printf("largest elementary-partitioning counts for p ≤ %d\n", *growth)
		fmt.Printf("%8s", "p")
		for _, dd := range dims {
			fmt.Printf("  %8s", fmt.Sprintf("d=%d", dd))
		}
		fmt.Println()
		for i := 0; i < *top && i < len(rows); i++ {
			fmt.Printf("%8d", rows[i].P)
			for _, c := range rows[i].Counts {
				fmt.Printf("  %8d", c)
			}
			fmt.Println()
		}
		fmt.Println("\nThe growth matches the paper's bound O((d(d−1)/2)^((1+o(1))·log p/log log p)):")
		fmt.Println("highly composite p dominate; prime powers stay tiny.")
		return
	}

	fmt.Printf("elementary partitionings of p = %d over d = %d dimensions\n", *p, *d)
	fmt.Printf("(the search space of the optimal-partitioning algorithm; %d candidates)\n\n",
		partition.CountElementary(*p, *d))
	for _, line := range exp.ElementaryInventory(*p, *d) {
		fmt.Println("  " + line)
	}
	fmt.Println("\nEach pattern is valid: every slab's tile count is a multiple of p,")
	fmt.Println("so a balanced multipartitioned mapping exists (Section 4).")

	if *optimal {
		var stats partition.SearchStats
		res, err := partition.OptimalStats(*p, *d, partition.UniformObjective(*d), &stats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\noptimal under uniform weights: %s, cost %g\n",
			partition.Describe(res.Gamma), res.Cost)
		fmt.Println(stats.String())
	}
}
