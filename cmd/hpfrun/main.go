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
	"flag"
	"fmt"
	"log"
	"os"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/hpf"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/obs/causal"
	"genmp/internal/obs/live"
	"genmp/internal/partition"
	planpkg "genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
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
	file := flag.String("f", "", "file with HPF directives (default: a built-in SP-like program)")
	template := flag.String("template", "", "template or aligned array to plan (default: the only one)")
	steps := flag.Int("steps", 2, "ADI timesteps to execute")
	timeline := flag.Bool("timeline", false, "render the ASCII rank timeline")
	tracePath := flag.String("trace", "", "write a Perfetto/Chrome trace-event JSON file")
	traceJSON := flag.String("tracejson", "", "write the round-trippable trace artifact (critpath input)")
	metrics := flag.Bool("metrics", false, "print the per-rank/per-phase profile")
	blame := flag.Bool("blame", false, "print makespan blame attribution from the causal engine")
	jsonPath := flag.String("json", "", "write machine-readable results (BENCH_*.json schema)")
	profilePath := flag.String("profile", "", "write the serialized per-phase profile (benchdiff input)")
	planPath := flag.String("plan", "", "write the compiled sweep schedule as plan JSON (the shippable schedule; reload with obs.LoadPlan)")
	overlap := flag.Bool("overlap", false, "execute with the plan-driven boundary-first overlap schedule (DESIGN.md §14); bench suites get a +overlap suffix")
	topology := flag.String("topology", "", "interconnect topology: crossbar, bus, hypercube, hypercube+contention (default: the network's scaling regime)")
	collName := flag.String("coll", "", "collective algorithm for transposes: auto, pairwise, ring, bruck")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics (/metrics Prometheus text, /metrics.json) and net/http/pprof on this address, e.g. localhost:9090")
	flightDepth := flag.Int("flightrec", 0, "per-rank flight-recorder ring depth: a deadlock dumps each rank's last N events (0 = off)")
	pprofLabels := flag.Bool("pprof-labels", false, "tag rank goroutines with rank/phase pprof labels (costs allocations; pair with /debug/pprof/profile)")
	flag.Parse()
	wantTrace := *timeline || *tracePath != "" || *traceJSON != "" || *metrics || *blame || *profilePath != ""

	tel, err := live.Start(live.Config{Addr: *metricsAddr, FlightDepth: *flightDepth, PProfLabels: *pprofLabels})
	if err != nil {
		log.Fatal(err)
	}
	if tel.Server != nil {
		log.Printf("serving live metrics on http://%s/metrics", tel.Server.Addr)
	}

	coll, err := xport.ParseAlg(*collName)
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

	tmpl, ok := dirs.Templates[name]
	if !ok {
		// May be an aligned array; PlanTemplate resolves it.
		tmpl = hpf.Template{}
	}
	eta := tmpl.Eta
	var obj *partition.Objective
	if eta != nil {
		o := partition.MachineObjective(eta, 20e-6, 80e-9)
		obj = &o
	}
	plan, err := dirs.PlanTemplate(name, obj)
	if err != nil {
		log.Fatal(err)
	}
	eta = plan.Template.Eta

	ov := dist.HandCoded()
	if plan.PartialReplication {
		ov = dist.DHPF()
		fmt.Println("ON_HOME present: using the dHPF overhead model with partial replication")
	}

	mach, err := nas.Origin2000MachineOn(*topology, plan.P)
	if err != nil {
		log.Fatal(err)
	}
	mach.Coll = coll
	if wantTrace {
		mach.Trace = &sim.Trace{}
	}
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: *steps}
	var res sim.Result
	var swPlan *planpkg.SweepPlan
	ovl := planpkg.Overlap{Enabled: *overlap}
	variant, gammaStr := "serial", ""
	switch {
	case plan.Multi != nil:
		variant, gammaStr = "multi", partition.Describe(plan.Multi.Gamma())
		fmt.Printf("planned: %s over %v (shadow %v)\n", plan.Multi.Name(), eta, plan.ShadowWidths)
		if err := plan.Multi.Verify(); err != nil {
			log.Fatalf("verification failed: %v", err)
		}
		env, err := dist.NewEnv(plan.Multi, eta, ov)
		if err != nil {
			log.Fatal(err)
		}
		if *planPath != "" {
			if swPlan, err = planpkg.Compile(planpkg.Spec{M: plan.Multi, Eta: eta, Solver: sweep.Tridiag{}, Overlap: ovl}); err != nil {
				log.Fatal(err)
			}
		}
		res, err = adi.Run(pb, nil, adi.Config{
			Machine: mach, Strategy: adi.Multipartition, Env: env, ModelOnly: true,
			Overlap: planpkg.Overlap{Enabled: *overlap}})
		if err != nil {
			log.Fatal(err)
		}
	case plan.BlockDim >= 0:
		variant = fmt.Sprintf("block%d", plan.BlockDim)
		fmt.Printf("planned: BLOCK along dimension %d over %v on %d processors\n", plan.BlockDim, eta, plan.P)
		blk, err := dist.NewBlock(plan.P, eta, plan.BlockDim, ov)
		if err != nil {
			log.Fatal(err)
		}
		if *planPath != "" {
			if swPlan, err = planpkg.CompileWavefront(planpkg.WavefrontSpec{
				P: plan.P, Eta: eta, Dim: plan.BlockDim, Grain: 64, Solver: sweep.Tridiag{}, Overlap: ovl}); err != nil {
				log.Fatal(err)
			}
		}
		res, err = adi.Run(pb, nil, adi.Config{
			Machine: mach, Strategy: adi.BlockWavefront, Block: blk, Grain: 64, ModelOnly: true,
			Overlap: planpkg.Overlap{Enabled: *overlap}})
		if err != nil {
			log.Fatal(err)
		}
	default:
		fmt.Println("planned: fully collapsed (serial)")
		env, err := trivialEnv(eta, ov)
		if err != nil {
			log.Fatal(err)
		}
		if *planPath != "" {
			if swPlan, err = planpkg.Compile(planpkg.Spec{M: env.M, Eta: eta, Solver: sweep.Tridiag{}}); err != nil {
				log.Fatal(err)
			}
		}
		res, err = adi.Run(pb, nil, adi.Config{
			Machine: mach, Strategy: adi.Multipartition, Env: env, ModelOnly: true})
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("ADI ×%d steps: virtual time %.3f ms, %d messages, %d bytes\n",
		*steps, res.Makespan*1e3, res.TotalMessages(), res.TotalBytes())
	if *timeline {
		fmt.Println()
		if err := mach.Trace.RenderTimeline(os.Stdout, plan.P, res.Makespan, 100); err != nil {
			log.Fatal(err)
		}
	}
	if *metrics {
		fmt.Println()
		fmt.Print(obs.NewProfile(res, mach.Trace).Format())
	}
	if *blame {
		rep, err := causal.Report(mach.Trace, plan.P, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(rep)
	}
	if *tracePath != "" {
		if err := obs.WriteTraceFile(*tracePath, mach.Trace, plan.P); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (load in ui.perfetto.dev)\n", *tracePath)
	}

	// Machine-readable outputs carry the reproducing command line and grid
	// parameters so a benchdiff report can say how to regenerate each side.
	fileID := *file
	if fileID == "" {
		fileID = "(builtin)"
	}
	overlapFlag := ""
	if *overlap {
		overlapFlag = " -overlap"
	}
	srcLine := fmt.Sprintf("hpfrun -f %s -steps %d%s%s (template %s, eta %s)",
		fileID, *steps, fabricFlags(*topology, *collName), overlapFlag, name, partition.Describe(eta))
	if *planPath != "" {
		if err := swPlan.Validate(); err != nil {
			log.Fatal(err)
		}
		if err := obs.WritePlanJSON(*planPath, srcLine+" -plan", swPlan); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan written to %s (%d ranks; reload with obs.LoadPlan)\n", *planPath, swPlan.P)
	}
	if *traceJSON != "" {
		if err := obs.WriteTraceJSON(*traceJSON, srcLine+" -tracejson", mach.Trace, plan.P, res.Makespan); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace artifact written to %s (analyze with critpath)\n", *traceJSON)
	}
	suiteSuffix := ""
	if *topology != "" && *topology != "default" {
		suiteSuffix = "@" + *topology
	}
	if *overlap {
		suiteSuffix += "+overlap"
	}
	if *profilePath != "" {
		if err := obs.WriteProfileJSON(*profilePath, srcLine+" -profile", obs.NewProfile(res, mach.Trace)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("profile written to %s (compare with benchdiff)\n", *profilePath)
	}
	if *jsonPath != "" {
		bf := obs.BenchFile{
			Source: srcLine + " -json",
			Records: []obs.BenchRecord{{
				Suite: "hpf-adi" + suiteSuffix, Name: fmt.Sprintf("%s-p%02d", variant, plan.P),
				P: plan.P, Eta: eta, Steps: *steps, Gamma: gammaStr,
				Makespan: res.Makespan,
				Messages: res.TotalMessages(), Bytes: res.TotalBytes(),
			}},
		}
		if err := obs.WriteBenchJSON(*jsonPath, bf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

// fabricFlags renders the -topology/-coll flags for a BENCH source line,
// empty when both are defaulted so legacy source lines stay byte-identical.
func fabricFlags(topology, coll string) string {
	var s string
	if topology != "" && topology != "default" {
		s += " -topology " + topology
	}
	if coll != "" && coll != "auto" {
		s += " -coll " + coll
	}
	return s
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
