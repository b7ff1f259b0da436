// hpfdirectives demonstrates the Section 5 compiler-integration path: an
// HPF-annotated program fragment is parsed, its MULTI distribution planned
// into a generalized multipartitioning, and the resulting mapping driven
// through a distributed sweep — the pipeline the Rice dHPF compiler
// implements for real Fortran programs.
package main

import (
	"fmt"
	"log"

	"genmp/internal/cost"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/hpf"
	"genmp/internal/nas"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

const program = `
      program adi_sweeps
      real u(96, 96, 48), rhs(96, 96, 48)
!HPF$ PROCESSORS P(18)
!HPF$ TEMPLATE T(96, 96, 48)
!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P
!HPF$ ALIGN U WITH T
!HPF$ ALIGN RHS WITH T
!HPF$ SHADOW U(2, 2, 2)
      end
`

func main() {
	log.SetFlags(0)

	dirs, err := hpf.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parsed directives:")
	for _, ps := range dirs.Processors {
		fmt.Printf("  PROCESSORS %s%v  (total %d)\n", ps.Name, ps.Shape, ps.Size())
	}
	for _, tm := range dirs.Templates {
		fmt.Printf("  TEMPLATE   %s%v\n", tm.Name, tm.Eta)
	}
	for _, d := range dirs.Distributions {
		specs := make([]string, len(d.Specs))
		for i, s := range d.Specs {
			specs[i] = s.String()
		}
		fmt.Printf("  DISTRIBUTE %s(%v) ONTO %s\n", d.Template, specs, d.Procs)
	}

	// Plan with a machine-aware objective, resolving through the alignment
	// of array U.
	model := cost.Origin2000()
	plan, err := dirs.PlanTemplate("U", &model)
	if err != nil {
		log.Fatal(err)
	}
	eta := plan.Template.Eta
	m := plan.Multi
	fmt.Printf("\nplanned distribution: %s (shadow widths %v)\n", m.Name(), plan.ShadowWidths)
	if err := m.Verify(); err != nil {
		log.Fatalf("planned mapping failed verification: %v", err)
	}
	fmt.Println("balance and neighbor properties verified")

	// Drive a real tridiagonal sweep through the planned mapping and check
	// it against the serial solve.
	env, err := dist.NewEnv(m, eta, dist.DHPF())
	if err != nil {
		log.Fatal(err)
	}
	gs := make([]*grid.Grid, 4)
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	gs[0].FillFunc(func(idx []int) float64 {
		if idx[0] == 0 {
			return 0
		}
		return -0.3
	})
	gs[1].Fill(2.0)
	gs[2].FillFunc(func(idx []int) float64 {
		if idx[0] == eta[0]-1 {
			return 0
		}
		return -0.3
	})
	gs[3].FillFunc(func(idx []int) float64 { return float64(idx[0]+idx[1]+idx[2]) / 100 })

	// Serial reference on clones.
	ref := make([][]float64, 4)
	n := eta[0]
	for v := range ref {
		ref[v] = make([]float64, n)
	}
	refGrids := make([]*grid.Grid, 4)
	for i, g := range gs {
		refGrids[i] = g.Clone()
	}
	refGrids[0].EachLine(refGrids[0].Bounds(), 0, func(l grid.Line) {
		for v, g := range refGrids {
			g.Gather(l, ref[v])
		}
		sweep.ChunkedSolve(sweep.Tridiag{}, ref, nil)
		for v, g := range refGrids {
			g.Scatter(l, ref[v])
		}
	})

	// Every rank loads its own tiles of the global grids into private
	// fields, sweeps them under the one compiled schedule and stores them
	// back (ranks own disjoint regions).
	pl, err := dist.CompileSweepPlan(env, sweep.Tridiag{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := nas.Origin2000Machine(18).Run(func(r *sim.Rank) {
		fields := make([]*dist.Field, len(gs))
		for v, g := range gs {
			fields[v] = dist.NewField(env, r.ID, 0)
			fields[v].Load(g)
		}
		sr := dist.NewSweepRunner(sweep.Tridiag{}, fields)
		sr.Plan = pl
		sr.Run(r, 0)
		for v, f := range fields {
			f.Store(gs[v])
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	diff := grid.MaxAbsDiff(refGrids[3], gs[3])
	fmt.Printf("\ndistributed sweep along dim 0 on 18 ranks: max diff vs serial = %g", diff)
	if diff > 1e-9 {
		log.Fatal(" — FAILED")
	}
	fmt.Println("  ✓")
	fmt.Printf("virtual time %.3f ms, %d messages\n", res.Makespan*1e3, res.TotalMessages())
}
