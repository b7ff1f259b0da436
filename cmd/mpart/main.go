// Command mpart computes a generalized multipartitioning: the optimal tile
// grid for a given processor count and array shape, and the modular
// tile-to-processor mapping, verified for the balance and neighbor
// properties. With -render it prints the Figure-1-style tile→processor
// table (d = 2 or 3).
//
// Usage:
//
//	mpart -p 16 -d 3 -render
//	mpart -p 50 -eta 102,102,102
//	mpart -p 30 -gamma 10,15,6
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/modmap"
	"genmp/internal/obs"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/sweep"
)

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	toks := strings.Split(s, ",")
	out := make([]int, 0, len(toks))
	for _, tok := range toks {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad integer %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpart: ")
	p := flag.Int("p", 16, "number of processors")
	d := flag.Int("d", 3, "array dimensionality (when -eta and -gamma are absent)")
	etaStr := flag.String("eta", "", "array extents, e.g. 102,102,102 (drives the cost model)")
	gammaStr := flag.String("gamma", "", "explicit tile grid, e.g. 10,15,6 (skips the search)")
	render := flag.Bool("render", false, "print the tile→processor table (d = 2 or 3)")
	alternatives := flag.Int("alternatives", 0, "also list up to N distinct alternative legal mappings")
	planPath := flag.String("plan", "", "compile, validate and dump the tridiagonal SweepPlan over the mapping (requires -eta)")
	origin := cost.Origin2000()
	k2 := flag.Float64("k2", origin.K2, "per-phase start-up cost K2 (seconds)")
	k3 := flag.Float64("k3", origin.K3(1), "per-element transfer cost K3 (seconds)")
	flag.Parse()

	eta, err := parseInts(*etaStr)
	if err != nil {
		log.Fatal(err)
	}
	gamma, err := parseInts(*gammaStr)
	if err != nil {
		log.Fatal(err)
	}

	var m *core.Multipartitioning
	switch {
	case gamma != nil:
		if !partition.IsValid(*p, gamma) {
			log.Fatalf("%s is not a valid partitioning for p = %d: every slab tile count must be a multiple of p",
				partition.Describe(gamma), *p)
		}
		m, err = core.NewGeneralized(*p, gamma)
	case eta != nil:
		var res partition.Result
		res, err = cost.Model{K2: *k2, K3: cost.ScalableNetwork(*k3)}.BestPartitioning(*p, eta, nil)
		if err == nil {
			fmt.Printf("optimal partitioning for p=%d on %v: %s (objective %.4g)\n",
				*p, eta, partition.Describe(res.Gamma), res.Cost)
			m, err = core.NewGeneralized(*p, res.Gamma)
		}
	default:
		var res partition.Result
		res, err = partition.Optimal(*p, *d, partition.UniformObjective(*d))
		if err == nil {
			fmt.Printf("optimal partitioning for p=%d, d=%d (uniform objective): %s (Σγ = %.0f)\n",
				*p, *d, partition.Describe(res.Gamma), res.Cost)
			m, err = core.NewGeneralized(*p, res.Gamma)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	if err := m.Verify(); err != nil {
		log.Fatalf("property verification FAILED: %v", err)
	}
	fmt.Printf("mapping: %s — balance and neighbor properties verified\n", m.Name())
	fmt.Printf("tiles: %d total, %d per processor", m.NumTiles(), m.TilesPerProc())
	for dim := 0; dim < m.Dims(); dim++ {
		fmt.Printf(", %d/slab along dim %d", m.TilesPerSlab(dim), dim)
	}
	fmt.Println()

	if mm := m.Mapping(); mm != nil {
		fmt.Printf("modular mapping: m⃗ = %v, M =\n", mm.Mod)
		for _, row := range mm.M {
			fmt.Printf("  %v\n", row)
		}
	}
	for dim := 0; dim < m.Dims(); dim++ {
		fmt.Printf("neighbor of proc 0 along +dim %d: proc %d\n", dim, m.NeighborProc(0, dim, 1))
	}

	if *render {
		fmt.Println()
		if err := m.RenderSlices(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *planPath != "" {
		if eta == nil {
			log.Fatal("-plan needs -eta: a sweep plan is compiled against concrete array extents")
		}
		pl, err := plan.Compile(plan.Spec{M: m, Eta: eta, Solver: sweep.Tridiag{}})
		if err != nil {
			log.Fatal(err)
		}
		if err := pl.Validate(); err != nil {
			log.Fatalf("plan validation FAILED: %v", err)
		}
		src := fmt.Sprintf("mpart -p %d -eta %s -plan", *p, *etaStr)
		if err := obs.WritePlanJSON(*planPath, src, pl); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s", pl.Summary())
		fmt.Printf("plan validated and written to %s\n", *planPath)
	}

	if *alternatives > 0 {
		alts, err := modmap.Alternatives(*p, m.Gamma(), *alternatives)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%d distinct legal mapping(s) via shape pre-permutation (the construction\nis one of a family — all verified balanced with the neighbor property):\n", len(alts))
		for i, a := range alts {
			if err := a.Verify(); err != nil {
				log.Fatalf("alternative %d failed verification: %v", i, err)
			}
			fmt.Printf("  #%d: m⃗ = %v, M = %v\n", i+1, a.Mod, a.M)
		}
	}
}
