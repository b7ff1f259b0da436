// Command sweepbench compares the three parallelization strategies for
// line-sweep computations on the virtual machine (a van der Wijngaart-style
// study, Section 1/2 background): multipartitioning, static block with
// pipelined wavefronts, and dynamic block with transposes, over an ADI
// integration. It can also sweep the wavefront message granularity to show
// the fill/drain-vs-overhead tension.
//
// Usage:
//
//	sweepbench -p 16 -eta 64,64,64 -steps 2
//	sweepbench -p 16 -eta 64,64,64 -steps 2 -json out.json   # BENCH_*.json records
//	sweepbench -p 16 -eta 64,64,64 -grainsweep
//	sweepbench -p 16 -timeline -metrics -trace sweep.json
//	sweepbench -p 16 -profile sweep-profile.json             # benchdiff input
//	sweepbench -redist -p 4 -eta 32,32,32 -json BENCH_redist.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/exp"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/obs/causal"
	"genmp/internal/obs/live"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepbench: ")
	p := flag.Int("p", 16, "number of processors")
	etaStr := flag.String("eta", "64,64,64", "array extents")
	steps := flag.Int("steps", 2, "ADI timesteps")
	grain := flag.Int("grain", 64, "wavefront message granularity (lines per message)")
	grainSweep := flag.Bool("grainsweep", false, "sweep wavefront granularities instead")
	backend := flag.String("backend", "sim", "execution backend: sim (virtual-time strategy comparison) or rt (real-parallel goroutines, wall clock; runs the strict distributed-memory ADI with overlap off and on, checking field bits against the simulator)")
	timeline := flag.Bool("timeline", false, "render an ASCII timeline of one multipartitioned sweep")
	tracePath := flag.String("trace", "", "write a Perfetto/Chrome trace of one multipartitioned sweep to this file")
	traceJSON := flag.String("tracejson", "", "write the round-trippable trace artifact of one multipartitioned sweep (critpath input)")
	metrics := flag.Bool("metrics", false, "print the per-phase profile of one multipartitioned sweep")
	blame := flag.Bool("blame", false, "print makespan blame attribution of one multipartitioned sweep")
	jsonPath := flag.String("json", "", "write the strategy comparison as machine-readable results (BENCH_*.json schema)")
	profilePath := flag.String("profile", "", "write the serialized profile of one multipartitioned sweep (benchdiff input)")
	planPath := flag.String("plan", "", "write the compiled SweepPlan of one multipartitioned sweep and print the plan-vs-observed traffic audit")
	topology := flag.String("topology", "", "interconnect topology: crossbar, bus, hypercube, hypercube+contention (default: the network's scaling regime); comma-separated list compares them")
	collName := flag.String("coll", "", "collective algorithm for transposes: auto, pairwise, ring, bruck")
	overlap := flag.Bool("overlap", false, "run sweeps with the plan-driven boundary-first overlap schedule (DESIGN.md §14); bench suites get a +overlap suffix")
	redistCmp := flag.Bool("redist", false, "run the redistribution-policy comparison (BLOCK↔MULTI switch each timestep vs dynamic-block transposes vs staying put)")
	redistBudget := flag.Int("redistbudget", 0, "per-rank staging budget in bytes for the -redist switch plans (0 = unbounded)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics (/metrics Prometheus text, /metrics.json) and net/http/pprof on this address, e.g. localhost:9090")
	flightDepth := flag.Int("flightrec", 0, "per-rank flight-recorder ring depth: a deadlock dumps each rank's last N events (0 = off)")
	pprofLabels := flag.Bool("pprof-labels", false, "tag rank goroutines with rank/phase pprof labels (costs allocations; pair with /debug/pprof/profile)")
	flag.Parse()

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
	var eta []int
	for _, tok := range strings.Split(*etaStr, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 2 {
			log.Fatalf("bad extent %q", tok)
		}
		eta = append(eta, v)
	}

	if *redistCmp {
		fmt.Printf("redistribution policy comparison: p=%d, η=%v, %d step(s)\n\n", *p, eta, *steps)
		rows, err := exp.RedistComparisonOn(*topology, coll, *p, eta, *steps, *redistBudget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(exp.FormatRedistComparison(rows))
		if *jsonPath != "" {
			recs, err := exp.RedistBenchRecordsOn(*topology, coll, *p, eta, *steps, *redistBudget)
			if err != nil {
				log.Fatal(err)
			}
			src := fmt.Sprintf("sweepbench -redist -p %d -eta %s -steps %d -redistbudget %d%s -json (eta %s)",
				*p, *etaStr, *steps, *redistBudget, fabricFlags(*topology, *collName), partition.Describe(eta))
			if err := obs.WriteBenchJSON(*jsonPath, obs.BenchFile{Source: src, Records: recs}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nwrote %s\n", *jsonPath)
		}
		return
	}

	ov := plan.Overlap{Enabled: *overlap}

	if *backend != "sim" && *backend != "rt" {
		log.Fatalf("unknown backend %q (want sim or rt)", *backend)
	}
	if *backend == "rt" {
		src := fmt.Sprintf("sweepbench -backend rt -p %d -eta %s -steps %d -json (eta %s)",
			*p, *etaStr, *steps, partition.Describe(eta))
		if err := runRealADI(*p, eta, *steps, *jsonPath, src); err != nil {
			log.Fatal(err)
		}
		return
	}

	if strings.Contains(*topology, ",") {
		topos := strings.Split(*topology, ",")
		for i := range topos {
			topos[i] = strings.TrimSpace(topos[i])
		}
		fmt.Printf("ADI strategy comparison across topologies: p=%d, η=%v, %d step(s)%s\n\n",
			*p, eta, *steps, overlapNote(*overlap))
		var rows []exp.TopologyRow
		for _, topo := range topos {
			rs, err := exp.StrategyComparisonOverlap(topo, coll, *p, eta, *steps, *grain, ov)
			if err != nil {
				log.Fatalf("topology %q: %v", topo, err)
			}
			rows = append(rows, exp.TopologyRow{Topology: topo, Rows: rs})
		}
		fmt.Print(exp.FormatTopologyComparison(rows))
		if *jsonPath != "" {
			var recs []obs.BenchRecord
			for _, topo := range topos {
				rs, err := exp.StrategyBenchRecordsOverlap(topo, coll, *p, eta, *steps, *grain, ov)
				if err != nil {
					log.Fatal(err)
				}
				recs = append(recs, rs...)
			}
			src := fmt.Sprintf("sweepbench -p %d -eta %s -steps %d -grain %d -topology %s%s -json (eta %s)",
				*p, *etaStr, *steps, *grain, *topology, overlapFlag(*overlap), partition.Describe(eta))
			if err := obs.WriteBenchJSON(*jsonPath, obs.BenchFile{Source: src, Records: recs}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nwrote %s\n", *jsonPath)
		}
		return
	}

	if *timeline || *tracePath != "" || *traceJSON != "" || *metrics || *blame || *profilePath != "" || *planPath != "" {
		src := fmt.Sprintf("sweepbench -p %d -eta %s%s%s -profile (eta %s)", *p, *etaStr, fabricFlags(*topology, *collName), overlapFlag(*overlap), partition.Describe(eta))
		if err := instrumentedSweep(*p, eta, *topology, coll, ov, *timeline, *tracePath, *traceJSON, *metrics, *blame, *profilePath, *planPath, src); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *grainSweep {
		blk, err := dist.NewBlock(*p, eta, 0, dist.HandCoded())
		if err != nil {
			log.Fatal(err)
		}
		lines := 1
		for _, e := range eta[1:] {
			lines *= e
		}
		fmt.Printf("wavefront granularity sweep: p=%d, η=%v (%d lines along dim 0)\n\n", *p, eta, lines)
		fmt.Printf("%10s  %14s  %10s\n", "grain", "virtual time", "messages")
		for g := 1; g <= lines; g *= 2 {
			mach, err := nas.Origin2000MachineOn(*topology, *p)
			if err != nil {
				log.Fatal(err)
			}
			mach.Coll = coll
			res, err := mach.Run(func(r *sim.Rank) {
				blk.WavefrontSweep(r, sweep.Tridiag{}, nil, g)
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10d  %12.3fms  %10d\n", g, res.Makespan*1e3, res.TotalMessages())
		}
		fmt.Println("\nSmall grains maximize pipeline overlap but pay per-message overhead;")
		fmt.Println("large grains serialize the pipeline — the Section 1 tension.")
		return
	}

	fmt.Printf("ADI strategy comparison: p=%d, η=%v, %d step(s) (virtual Origin 2000)%s\n\n", *p, eta, *steps, overlapNote(*overlap))
	rows, err := exp.StrategyComparisonOverlap(*topology, coll, *p, eta, *steps, *grain, ov)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s  %14s  %12s  %10s\n", "strategy", "virtual time", "bytes", "messages")
	for _, r := range rows {
		fmt.Printf("%-34s  %12.3fms  %12d  %10d\n", r.Strategy, r.Time*1e3, r.Bytes, r.Messages)
	}
	if *jsonPath != "" {
		recs, err := exp.StrategyBenchRecordsOverlap(*topology, coll, *p, eta, *steps, *grain, ov)
		if err != nil {
			log.Fatal(err)
		}
		src := fmt.Sprintf("sweepbench -p %d -eta %s -steps %d -grain %d%s%s -json (eta %s)",
			*p, *etaStr, *steps, *grain, fabricFlags(*topology, *collName), overlapFlag(*overlap), partition.Describe(eta))
		if err := obs.WriteBenchJSON(*jsonPath, obs.BenchFile{Source: src, Records: recs}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
	fmt.Println("\nMultipartitioning keeps every processor busy in every phase with only")
	fmt.Println("coarse-grain carry messages — the property the paper generalizes to any p.")
}

// runRealADI is the -backend rt path: the strict distributed-memory ADI
// integration executed on the real-parallel runtime (internal/rt), overlap
// off and then on, each run's final field checked bit for bit against the
// virtual-time simulator executing the identical compiled schedule. Message
// and byte counts are schedule properties and reproduce exactly; wall
// seconds are host-dependent and gated only at a wide tolerance band in CI.
func runRealADI(p int, eta []int, steps int, jsonPath, src string) error {
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, len(eta), obj)
	if err != nil {
		return err
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		return err
	}
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: steps}
	fmt.Printf("ADI strict distributed memory: p=%d, eta=%v, %d step(s), partitioning %s — real-parallel backend (wall clock)\n\n",
		p, eta, steps, partition.Describe(m.Gamma()))
	bf := obs.BenchFile{Source: src}
	for _, o := range []plan.Overlap{{}, {Enabled: true}} {
		want, _, err := dmem.RunADIOverlap(pb, env, nas.Origin2000Machine(p), o)
		if err != nil {
			return err
		}
		got, rres, err := dmem.RunADIReal(pb, env, rt.NewMachine(p), o, nil)
		if err != nil {
			return err
		}
		if err := sameFieldBits(want, got); err != nil {
			return fmt.Errorf("rt backend diverged from the simulator (overlap=%v): %w", o.Enabled, err)
		}
		name := fmt.Sprintf("multi-p%02d", p)
		if o.Enabled {
			name += "+overlap"
		}
		fmt.Printf("  %-20s  wall %9.3f ms  %7d messages  %11d bytes  (field bits match sim)\n",
			name, float64(rres.Wall.Nanoseconds())/1e6, rres.TotalMessages(), rres.TotalBytes())
		bf.Records = append(bf.Records, obs.BenchRecord{
			Suite: "adi-real", Name: name,
			P: p, Eta: eta, Steps: steps, Gamma: partition.Describe(m.Gamma()),
			Messages: rres.TotalMessages(), Bytes: rres.TotalBytes(),
			Extra: map[string]float64{"wall_sec": rres.Wall.Seconds()},
		})
	}
	if jsonPath != "" {
		if err := obs.WriteBenchJSON(jsonPath, bf); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return nil
}

// sameFieldBits reports the first element where two grids differ in raw
// float64 bit patterns.
func sameFieldBits(a, b *grid.Grid) error {
	da, db := a.Data(), b.Data()
	if len(da) != len(db) {
		return fmt.Errorf("field sizes differ: %d vs %d elements", len(da), len(db))
	}
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			return fmt.Errorf("element %d: %g (%#x) vs %g (%#x)",
				i, da[i], math.Float64bits(da[i]), db[i], math.Float64bits(db[i]))
		}
	}
	return nil
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

// overlapFlag renders the -overlap flag for a BENCH source line, empty when
// off so legacy source lines stay byte-identical.
func overlapFlag(on bool) string {
	if on {
		return " -overlap"
	}
	return ""
}

// overlapNote annotates table headers when the overlap schedule is active.
func overlapNote(on bool) string {
	if on {
		return ", boundary-first overlap"
	}
	return ""
}

// instrumentedSweep runs one multipartitioned tridiagonal sweep with
// tracing and renders whichever views were requested: the ASCII per-rank
// timeline (the balance property appears as compute bars of equal length in
// every phase on every rank), the per-phase profile (printed and/or
// serialized for benchdiff), and a Perfetto trace.
func instrumentedSweep(p int, eta []int, topology string, coll xport.Alg, ov plan.Overlap, timeline bool, tracePath, traceJSONPath string, metrics, blame bool, profilePath, planPath, src string) error {
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, len(eta), obj)
	if err != nil {
		return err
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		return err
	}
	ms, err := dist.NewMultiSweep(env, sweep.Tridiag{}, nil)
	if err != nil {
		return err
	}
	ms.Overlap = ov
	mach, err := nas.Origin2000MachineOn(topology, p)
	if err != nil {
		return err
	}
	mach.Coll = coll
	mach.Trace = &sim.Trace{}
	res, err := mach.Run(func(r *sim.Rank) {
		r.BeginPhase("sweep0")
		ms.Run(r, 0)
	})
	if err != nil {
		return err
	}
	fmt.Printf("one sweep along dim 0, %s on %v: %d events, makespan %.3f ms\n",
		m.Name(), eta, mach.Trace.Len(), res.Makespan*1e3)
	if timeline {
		fmt.Println("(# compute, > send, < recv/wait, . idle)")
		if err := mach.Trace.RenderTimeline(os.Stdout, p, res.Makespan, 100); err != nil {
			return err
		}
	}
	if metrics {
		fmt.Println()
		fmt.Print(obs.NewProfile(res, mach.Trace).Format())
	}
	if blame {
		rep, err := causal.Report(mach.Trace, p, 8)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(rep)
	}
	if tracePath != "" {
		if err := obs.WriteTraceFile(tracePath, mach.Trace, p); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (load in ui.perfetto.dev)\n", tracePath)
	}
	if traceJSONPath != "" {
		if err := obs.WriteTraceJSON(traceJSONPath, src+" -tracejson", mach.Trace, p, res.Makespan); err != nil {
			return err
		}
		fmt.Printf("trace artifact written to %s (analyze with critpath)\n", traceJSONPath)
	}
	if profilePath != "" {
		if err := obs.WriteProfileJSON(profilePath, src, obs.NewProfile(res, mach.Trace)); err != nil {
			return err
		}
		fmt.Printf("profile written to %s (compare with benchdiff)\n", profilePath)
	}
	if planPath != "" {
		pl := ms.CompiledPlan()
		if err := pl.Validate(); err != nil {
			return err
		}
		if err := obs.WritePlanJSON(planPath, src+" -plan", pl); err != nil {
			return err
		}
		fmt.Printf("plan written to %s\n", planPath)
		// The run above swept dim 0 once under the "sweep0" label; audit the
		// plan's dim-0 traffic against it.
		rows := obs.AuditPlanBytes(pl, obs.NewProfile(res, mach.Trace), 1, func(dim int) string {
			if dim == 0 {
				return "sweep0"
			}
			return ""
		})
		fmt.Println()
		fmt.Print(obs.FormatPlanAudit(rows))
	}
	return nil
}
