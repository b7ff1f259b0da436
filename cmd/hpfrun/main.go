// Command hpfrun is the end-to-end Section 5 pipeline: it reads a file of
// HPF directives (or uses a built-in SP-like program), plans the requested
// distribution — generalized multipartitioning for MULTI, block for BLOCK —
// and executes an ADI integration under it on the virtual machine,
// reporting timing, traffic and an optional rank timeline.
//
// Usage:
//
//	hpfrun -f program.f -steps 4
//	hpfrun -steps 2 -timeline -metrics -trace run.json
//	hpfrun -steps 2 -json out.json -profile prof.json   # benchdiff inputs
package main

import (
	"fmt"
	"log"
	"os"

	"genmp/internal/adi"
	"genmp/internal/cli"
	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/dist"
	"genmp/internal/hpf"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/partition"
	planpkg "genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

const builtin = `
      program demo
!HPF$ PROCESSORS P(12)
!HPF$ TEMPLATE T(72, 72, 72)
!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P
!HPF$ ALIGN U WITH T
!HPF$ SHADOW U(2, 2, 2)
!HPF$ ON_HOME U
      end
`

func main() {
	log.SetFlags(0)
	log.SetPrefix("hpfrun: ")
	c := cli.New("hpfrun", "the run", true)
	file := c.String("f", "", "file with HPF directives (default: a built-in SP-like program)")
	template := c.String("template", "", "template or aligned array to plan (default: the only one)")
	steps := c.Int("steps", 2, "ADI timesteps to execute")
	spec, err := c.Parse(os.Args[1:])
	if err == nil {
		err = c.Start()
	}
	if err != nil {
		log.Fatal(err)
	}

	src := builtin
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		src = string(data)
	}
	dirs, err := hpf.Parse(src)
	if err != nil {
		log.Fatal(err)
	}

	name := *template
	if name == "" {
		if len(dirs.Templates) != 1 {
			log.Fatalf("program declares %d templates; pick one with -template", len(dirs.Templates))
		}
		for n := range dirs.Templates {
			name = n
		}
	}

	model := cost.Origin2000()
	plan, err := dirs.PlanTemplate(name, &model)
	if err != nil {
		log.Fatal(err)
	}
	eta := plan.Template.Eta

	ov := dist.HandCoded()
	if plan.PartialReplication {
		ov = dist.DHPF()
		fmt.Println("ON_HOME present: using the dHPF overhead model with partial replication")
	}

	mach, err := nas.Origin2000MachineOn(spec.Topology, plan.P)
	if err != nil {
		log.Fatal(err)
	}
	mach.Coll = spec.Coll
	if c.Out.Traced() {
		mach.Trace = &sim.Trace{}
	}
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: *steps}
	// Each plan kind picks its strategy; -plan dumps the schedule it runs.
	cfg := adi.Config{Machine: mach, Overlap: spec.Overlap}
	variant, gammaStr := "serial", ""
	switch {
	case plan.Multi != nil:
		variant, gammaStr = "multi", partition.Describe(plan.Multi.Gamma())
		fmt.Printf("planned: %s over %v (shadow %v)\n", plan.Multi.Name(), eta, plan.ShadowWidths)
		if err := plan.Multi.Verify(); err != nil {
			log.Fatalf("verification failed: %v", err)
		}
		cfg.Strategy = adi.Multipartition
		cfg.Env, err = dist.NewEnv(plan.Multi, eta, ov)
	case plan.BlockDim >= 0:
		variant = fmt.Sprintf("block%d", plan.BlockDim)
		fmt.Printf("planned: BLOCK along dimension %d over %v on %d processors\n", plan.BlockDim, eta, plan.P)
		cfg.Strategy, cfg.Grain = adi.BlockWavefront, 64
		cfg.Block, err = dist.NewBlock(plan.P, eta, plan.BlockDim, ov)
	default:
		fmt.Println("planned: fully collapsed (serial)")
		cfg.Strategy, cfg.Overlap = adi.Multipartition, planpkg.Overlap{}
		cfg.Env, err = trivialEnv(eta, ov)
	}
	if err != nil {
		log.Fatal(err)
	}
	var swPlan *planpkg.SweepPlan
	if c.Out.Plan != "" {
		if cfg.Block != nil {
			swPlan, err = planpkg.CompileWavefront(planpkg.WavefrontSpec{
				P: plan.P, Eta: eta, Dim: plan.BlockDim, Grain: cfg.Grain, Solver: sweep.Tridiag{}, Overlap: cfg.Overlap})
		} else {
			swPlan, err = planpkg.Compile(planpkg.Spec{M: cfg.Env.M, Eta: eta, Solver: sweep.Tridiag{}, Overlap: cfg.Overlap})
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	res, err := adi.Run(pb, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ADI ×%d steps: virtual time %.3f ms, %d messages, %d bytes\n",
		*steps, res.Makespan*1e3, res.TotalMessages(), res.TotalBytes())
	fileID := *file
	if fileID == "" {
		fileID = "(builtin)"
	}
	srcLine := cli.Source{Line: "hpfrun -f " + fileID + c.Flags("steps topology? coll? overlap"),
		Grid: fmt.Sprintf("template %s, eta %s", name, partition.Describe(eta))}
	if err := c.Out.Report(os.Stdout, cli.Run{Result: res, Trace: mach.Trace, Source: srcLine, Plan: swPlan}); err != nil {
		log.Fatal(err)
	}
	err = c.WriteJSON(os.Stdout, srcLine, []obs.BenchRecord{{
		Suite: spec.Suite("hpf-adi"), Name: fmt.Sprintf("%s-p%02d", variant, plan.P),
		P: plan.P, Eta: eta, Steps: *steps, Gamma: gammaStr,
		Makespan: res.Makespan, Messages: res.TotalMessages(), Bytes: res.TotalBytes(),
	}})
	if err != nil {
		log.Fatal(err)
	}
}

func trivialEnv(eta []int, ov dist.OverheadModel) (*dist.Env, error) {
	ones := make([]int, len(eta))
	for i := range ones {
		ones[i] = 1
	}
	m, err := core.NewGeneralized(1, ones)
	if err != nil {
		return nil, err
	}
	return dist.NewEnv(m, eta, ov)
}
