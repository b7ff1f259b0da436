// Command spbench regenerates the paper's Table 1: NAS SP speedups of the
// hand-coded diagonal-multipartitioning MPI code (perfect-square processor
// counts only) versus dHPF-generated generalized multipartitioning (any
// processor count), on the virtual Origin 2000.
//
// Usage:
//
//	spbench [-class S|W|A|B] [-steps n] [-procs 1,4,9,...] [-json out.json]
//	spbench -p 16 -metrics -trace out.json   # one instrumented run
//	spbench -p 16 -profile out.json          # serialized profile for benchdiff
//	spbench -calibrate                       # cost-model audit per phase
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/exp"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/obs/causal"
	"genmp/internal/obs/live"
	"genmp/internal/obs/metrics"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/redist"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/xport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spbench: ")
	className := flag.String("class", "B", "NAS problem class (S, W, A, B)")
	steps := flag.Int("steps", 2, "timesteps to simulate (speedups are per-step steady state)")
	procs := flag.String("procs", "", "comma-separated processor counts (default: the paper's Table 1 column)")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of the formatted table")
	pFlag := flag.Int("p", 0, "run one instrumented SP configuration on this many processors instead of the table")
	backend := flag.String("backend", "sim", "execution backend for the -p run: sim (virtual-time Origin 2000) or rt (real-parallel goroutines, wall clock; runs the strict distributed-memory SP with overlap off and on, checking field bits against the simulator)")
	tracePath := flag.String("trace", "", "with -p: write a Perfetto/Chrome trace-event JSON file")
	traceJSON := flag.String("tracejson", "", "with -p: write the round-trippable trace artifact (critpath input)")
	metrics := flag.Bool("metrics", false, "with -p: print the per-rank/per-phase profile")
	blame := flag.Bool("blame", false, "with -p: print makespan blame attribution from the causal engine")
	calibrate := flag.Bool("calibrate", false, "audit the analytic cost model against the simulator, phase by phase")
	jsonPath := flag.String("json", "", "write machine-readable results (BENCH_*.json schema)")
	profilePath := flag.String("profile", "", "with -p: write the serialized per-phase profile (benchdiff input)")
	planPath := flag.String("plan", "", "with -p: write the compiled SweepPlan dump and print the plan-vs-observed traffic audit")
	redistPlanPath := flag.String("redistplan", "", "with -p: write the compiled BLOCK↔MULTI redistribution plan dump (REDIST_*.json) and print the plan-vs-counters byte audit")
	topology := flag.String("topology", "", "interconnect topology: crossbar, bus, hypercube, hypercube+contention (default: the network's scaling regime)")
	collName := flag.String("coll", "", "collective algorithm: auto, pairwise, ring, doubling, bruck (applies to the -p instrumented run)")
	dataMode := flag.Bool("data", false, "with -p: run in data mode (real arrays advanced in place) instead of model-only, exercising the payload pool and sweep arenas")
	overlap := flag.Bool("overlap", false, "with -p: compile the plan with the boundary-first overlap schedule (DESIGN.md §14); bench suites get a +overlap suffix")
	overlapCmp := flag.Bool("overlapcmp", false, "run the overlap experiment (SP p=16, 32³): overlap off vs on per fabric, measured recovery next to the causal what-if prediction; fails if the default fabric exceeds the predicted bound")
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
	if _, err := sim.NewFabric(*topology, sim.Network{}, 1); err != nil {
		log.Fatal(err)
	}
	// Non-default topologies get their own bench suites so their records sit
	// alongside the committed defaults without tripping the zero-tolerance
	// perf gate.
	suiteSuffix := ""
	if *topology != "" && *topology != "default" {
		suiteSuffix = "@" + *topology
	}

	classes := map[string]nas.Class{"S": nas.ClassS, "W": nas.ClassW, "A": nas.ClassA, "B": nas.ClassB}
	class, ok := classes[strings.ToUpper(*className)]
	if !ok {
		log.Fatalf("unknown class %q (want S, W, A or B)", *className)
	}
	if *procs != "" {
		var ps []int
		for _, tok := range strings.Split(*procs, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || p < 1 {
				log.Fatalf("bad processor count %q", tok)
			}
			ps = append(ps, p)
		}
		exp.Table1Procs = ps
	}

	if *overlapCmp {
		if err := runOverlapCmp(*steps, *jsonPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *pFlag > 0 && *backend == "rt" {
		src := sourceLine(class, *steps, *procs, fmt.Sprintf(" -backend rt -p %d", *pFlag))
		if err := runSingleReal(class, *steps, *pFlag, *jsonPath, src); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *backend != "sim" && *backend != "rt" {
		log.Fatalf("unknown backend %q (want sim or rt)", *backend)
	}
	if *backend == "rt" {
		log.Fatal("-backend rt needs -p (the table modes are virtual-time only)")
	}

	if *pFlag > 0 {
		extra := fabricFlags(*topology, *collName) + fmt.Sprintf(" -p %d", *pFlag)
		singleSuffix := suiteSuffix
		if *overlap {
			extra += " -overlap"
			singleSuffix += "+overlap"
		}
		src := sourceLine(class, *steps, *procs, extra)
		opts := singleOpts{
			class: class, steps: *steps, p: *pFlag, topology: *topology, coll: coll,
			suiteSuffix: singleSuffix, tracePath: *tracePath, traceJSONPath: *traceJSON,
			metrics: *metrics, blame: *blame, dataMode: *dataMode, overlap: *overlap,
			jsonPath: *jsonPath, profilePath: *profilePath, planPath: *planPath,
			redistPlanPath: *redistPlanPath, src: src,
		}
		if err := runSingle(opts); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *calibrate {
		rows, err := exp.CalibrateOn(*topology, class.Eta, *steps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cost-model calibration: SP class %s, %d step(s), hand-coded overheads\n", class.Name, *steps)
		fmt.Printf("(predicted = analytic cost.Calibrated model; measured = simulator per-phase mean)\n\n")
		fmt.Print(exp.FormatCalibration(rows))
		if *jsonPath != "" {
			src := sourceLine(class, *steps, *procs, fabricFlags(*topology, "")+" -calibrate")
			if err := writeCalibrationJSON(*jsonPath, class, *steps, rows, suiteSuffix, src); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nwrote %s\n", *jsonPath)
		}
		return
	}

	if !*csv {
		fmt.Printf("NAS SP class %s (%d×%d×%d), %d step(s), virtual Origin 2000\n\n",
			class.Name, class.Eta[0], class.Eta[1], class.Eta[2], *steps)
	}
	rows, err := exp.Table1On(*topology, class.Eta, *steps)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonPath != "" {
		src := sourceLine(class, *steps, *procs, fabricFlags(*topology, ""))
		if err := writeTable1JSON(*jsonPath, class, *steps, rows, suiteSuffix, src); err != nil {
			log.Fatal(err)
		}
		if !*csv {
			defer fmt.Printf("\nwrote %s\n", *jsonPath)
		}
	}
	if *csv {
		fmt.Println("cpus,hand_coded,dhpf,diff_pct,partitioning")
		for _, r := range rows {
			hand, dhpf, diff := "", "", ""
			if !math.IsNaN(r.Hand) {
				hand = fmt.Sprintf("%.4f", r.Hand)
			}
			if !math.IsNaN(r.DHPF) {
				dhpf = fmt.Sprintf("%.4f", r.DHPF)
			}
			if !math.IsNaN(r.DiffPct) {
				diff = fmt.Sprintf("%.2f", r.DiffPct)
			}
			fmt.Printf("%d,%s,%s,%s,%s\n", r.P, hand, dhpf, diff, r.GammaStr)
		}
		return
	}
	fmt.Print(exp.FormatTable1(rows))
	fmt.Fprintln(os.Stdout, "\nPaper columns are the published Table 1 (class B on a real Origin 2000);")
	fmt.Fprintln(os.Stdout, "compare shapes — who wins, scaling trend, and the 49-vs-50 CPU inversion.")
}

// sourceLine reconstructs the reproducing command line (output paths
// omitted) plus the grid parameters, recorded in BenchFile.Source and
// ProfileFile.Source so a diff report can say exactly how to regenerate
// either side.
func sourceLine(class nas.Class, steps int, procs, mode string) string {
	s := fmt.Sprintf("spbench -class %s -steps %d", class.Name, steps)
	if procs != "" {
		s += " -procs " + procs
	}
	return fmt.Sprintf("%s%s (eta %s)", s, mode, partition.Describe(class.Eta))
}

// fabricFlags reconstructs the non-default fabric flags for source lines.
func fabricFlags(topology, coll string) string {
	s := ""
	if topology != "" && topology != "default" {
		s += " -topology " + topology
	}
	if coll != "" && coll != "auto" {
		s += " -coll " + coll
	}
	return s
}

// singleOpts configures one instrumented SP run (the -p path).
type singleOpts struct {
	class          nas.Class
	steps, p       int
	topology       string
	coll           xport.Alg
	suiteSuffix    string
	tracePath      string // Perfetto/Chrome trace-event file
	traceJSONPath  string // round-trippable trace artifact (critpath input)
	metrics        bool
	blame          bool
	dataMode       bool
	overlap        bool
	jsonPath       string
	profilePath    string
	planPath       string
	redistPlanPath string
	src            string
}

// wantTrace reports whether any requested output needs event collection.
func (o singleOpts) wantTrace() bool {
	return o.metrics || o.blame || o.tracePath != "" || o.traceJSONPath != "" || o.profilePath != ""
}

// runSingle executes one SP configuration with full observability: search
// counters from the partitioning search, the per-phase profile (printable
// and serializable), a Perfetto-loadable trace, and the causal engine's
// blame attribution.
func runSingle(o singleOpts) error {
	class, steps, p := o.class, o.steps, o.p
	eta := class.Eta
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	var st partition.SearchStats
	res, err := partition.OptimalCappedStats(p, len(eta), obj, eta, &st)
	if err != nil {
		return err
	}
	m, err := core.NewGeneralized(p, res.Gamma)
	if err != nil {
		return err
	}
	env, err := dist.NewEnv(m, eta, dist.DHPF())
	if err != nil {
		return err
	}
	base := nas.Origin2000Machine(p)
	cpu := base.CPU
	cpu.WorkingSetBytes = nas.WorkingSetBytes(eta, p)
	mach := sim.NewMachine(p, base.Net, cpu)
	fab, err := sim.NewFabric(o.topology, mach.Net, p)
	if err != nil {
		return err
	}
	mach.Fabric = fab
	mach.Coll = o.coll
	if o.wantTrace() {
		mach.Trace = &sim.Trace{}
	}
	// One compiled plan drives the run and the dump/audit: what the dump
	// shows is exactly the schedule the executor ran.
	pl, err := nas.CompilePlanOverlap(env, plan.Overlap{Enabled: o.overlap})
	if err != nil {
		return err
	}
	// Data mode advances a real array so carries travel in pooled payloads
	// and line data moves through the sweep arenas — the traffic the pool
	// and workspace hit-rate metrics measure. Virtual time is identical to
	// model-only.
	var u *grid.Grid
	if o.dataMode {
		u = nas.InitialState(eta)
	}
	simRes, err := nas.RunPlanned(env, mach, steps, u, pl)
	if err != nil {
		return err
	}
	fmt.Printf("SP class %s, %d step(s), p=%d, partitioning %s (dHPF overheads, %s fabric)\n",
		class.Name, steps, p, partition.Describe(res.Gamma), fab.Name())
	fmt.Println(st.String())
	fmt.Printf("makespan %.3f ms, %d messages, %d bytes\n",
		simRes.Makespan*1e3, simRes.TotalMessages(), simRes.TotalBytes())
	if o.metrics {
		fmt.Println()
		fmt.Print(obs.NewProfile(simRes, mach.Trace).Format())
	}
	if o.blame {
		rep, err := causal.Report(mach.Trace, p, 8)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(rep)
	}
	if o.tracePath != "" {
		if err := obs.WriteTraceFile(o.tracePath, mach.Trace, p); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (load in ui.perfetto.dev)\n", o.tracePath)
	}
	if o.traceJSONPath != "" {
		if err := obs.WriteTraceJSON(o.traceJSONPath, o.src+" -tracejson", mach.Trace, p, simRes.Makespan); err != nil {
			return err
		}
		fmt.Printf("trace artifact written to %s (analyze with critpath)\n", o.traceJSONPath)
	}
	if o.profilePath != "" {
		if err := obs.WriteProfileJSON(o.profilePath, o.src+" -profile", obs.NewProfile(simRes, mach.Trace)); err != nil {
			return err
		}
		fmt.Printf("profile written to %s (compare with benchdiff)\n", o.profilePath)
	}
	if o.planPath != "" {
		if err := pl.Validate(); err != nil {
			return err
		}
		if err := obs.WritePlanJSON(o.planPath, o.src+" -plan", pl); err != nil {
			return err
		}
		fmt.Printf("plan written to %s\n", o.planPath)
		rows := obs.AuditPlanBytes(pl, obs.NewProfile(simRes, mach.Trace), steps, nas.PhaseSolve)
		fmt.Println()
		fmt.Print(obs.FormatPlanAudit(rows))
	}
	if o.redistPlanPath != "" {
		if err := dumpRedistPlan(o, eta, m); err != nil {
			return err
		}
	}
	if o.jsonPath != "" {
		bf := obs.BenchFile{
			Source: o.src + " -json",
			Records: []obs.BenchRecord{{
				Suite: "sp-run" + o.suiteSuffix, Name: fmt.Sprintf("class%s-p%02d", class.Name, p),
				P: p, Eta: eta, Steps: steps, Gamma: partition.Describe(res.Gamma),
				Makespan: simRes.Makespan,
				Messages: simRes.TotalMessages(), Bytes: simRes.TotalBytes(),
				Extra: searchExtra(st),
			}},
		}
		if err := obs.WriteBenchJSON(o.jsonPath, bf); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.jsonPath)
	}
	return nil
}

// runSingleReal is the -backend rt path: one SP configuration executed on
// the real-parallel runtime (internal/rt) — goroutine ranks, shared-memory
// mailboxes, wall-clock time — with overlap off and then on. Each run's
// final field is checked bit for bit against the virtual-time simulator
// executing the identical compiled schedule, so a wall-clock row in
// BENCH_real.json always certifies backend equivalence too. Message and
// byte counts are schedule properties and reproduce exactly; wall seconds
// are host-dependent and gated only at a wide tolerance band in CI.
func runSingleReal(class nas.Class, steps, p int, jsonPath, src string) error {
	eta := class.Eta
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	res, err := partition.OptimalCapped(p, len(eta), obj, eta)
	if err != nil {
		return err
	}
	m, err := core.NewGeneralized(p, res.Gamma)
	if err != nil {
		return err
	}
	env, err := dist.NewEnv(m, eta, dist.DHPF())
	if err != nil {
		return err
	}
	fmt.Printf("SP class %s, %d step(s), p=%d, partitioning %s — real-parallel backend (strict distributed memory, wall clock)\n\n",
		class.Name, steps, p, partition.Describe(res.Gamma))
	bf := obs.BenchFile{Source: src + " -json"}
	for _, o := range []plan.Overlap{{}, {Enabled: true}} {
		want, _, err := dmem.RunSPOverlap(env, nas.Origin2000Machine(p), steps, o)
		if err != nil {
			return err
		}
		got, rres, err := dmem.RunSPReal(env, rt.NewMachine(p), steps, o, nil)
		if err != nil {
			return err
		}
		if err := sameFieldBits(want, got); err != nil {
			return fmt.Errorf("rt backend diverged from the simulator (overlap=%v): %w", o.Enabled, err)
		}
		name := fmt.Sprintf("class%s-p%02d", class.Name, p)
		if o.Enabled {
			name += "+overlap"
		}
		fmt.Printf("  %-20s  wall %9.3f ms  %7d messages  %11d bytes  (field bits match sim)\n",
			name, float64(rres.Wall.Nanoseconds())/1e6, rres.TotalMessages(), rres.TotalBytes())
		bf.Records = append(bf.Records, obs.BenchRecord{
			Suite: "sp-real", Name: name,
			P: p, Eta: eta, Steps: steps, Gamma: partition.Describe(res.Gamma),
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

// dumpRedistPlan compiles the BLOCK(dim 0)→MULTI redistribution for the
// run's configuration — the move a solver alternating between a
// spectral-friendly block layout and the sweep-friendly multipartitioning
// performs every timestep — validates it, writes the dump, executes it
// model-only against a fresh metrics registry, and prints the
// plan-vs-counters byte audit (every delta must be zero).
func dumpRedistPlan(o singleOpts, eta []int, m *core.Multipartitioning) error {
	from, err := redist.NewBlockLayout(o.p, eta, 0)
	if err != nil {
		return err
	}
	to, err := redist.NewMultiLayout(m, eta)
	if err != nil {
		return err
	}
	rpl, err := redist.Compile(redist.Spec{From: from, To: to})
	if err != nil {
		return err
	}
	if err := rpl.Validate(); err != nil {
		return err
	}
	if err := obs.WriteRedistJSON(o.redistPlanPath, o.src+" -redistplan", rpl); err != nil {
		return err
	}
	fmt.Printf("redistribution plan written to %s\n", o.redistPlanPath)
	fmt.Print(rpl.Summary())
	reg := metrics.New()
	redist.EnableMetrics(reg)
	defer redist.EnableMetrics(nil)
	base := nas.Origin2000Machine(o.p)
	audMach := sim.NewMachine(o.p, base.Net, base.CPU)
	if _, err := audMach.Run(func(r *sim.Rank) {
		redist.Execute(r, rpl, redist.ExecOpts{Coll: o.coll})
	}); err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(obs.FormatRedistAudit(obs.AuditRedistBytes(rpl, reg.Snapshot(), 1)))
	return nil
}

// searchExtra flattens the partitioning-search counters into bench extras.
func searchExtra(st partition.SearchStats) map[string]float64 {
	return map[string]float64{
		"search_nodes":        float64(st.NodesVisited),
		"search_leaves":       float64(st.LeavesEvaluated),
		"search_space":        float64(st.BruteForceLeaves),
		"search_pruned_bound": float64(st.PrunedBound),
		"search_pruned_cap":   float64(st.PrunedCap),
	}
}

// writeTable1JSON emits the Table 1 reproduction in the BENCH_*.json schema:
// one record per (variant, p) cell plus the search counters of the
// partitioning chosen for the dHPF variant.
func writeTable1JSON(path string, class nas.Class, steps int, rows []exp.Table1Row, suiteSuffix, src string) error {
	bf := obs.BenchFile{Source: src + " -json"}
	for _, r := range rows {
		if !math.IsNaN(r.Hand) {
			bf.Records = append(bf.Records, obs.BenchRecord{
				Suite: "sp-table1-hand" + suiteSuffix, Name: fmt.Sprintf("p%02d", r.P),
				P: r.P, Eta: class.Eta, Steps: steps, Speedup: r.Hand,
			})
		}
		if !math.IsNaN(r.DHPF) {
			var st partition.SearchStats
			obj := partition.MachineObjective(class.Eta, 20e-6, 80e-9/float64(r.P))
			if _, err := partition.OptimalCappedStats(r.P, len(class.Eta), obj, class.Eta, &st); err != nil {
				return err
			}
			bf.Records = append(bf.Records, obs.BenchRecord{
				Suite: "sp-table1-dhpf" + suiteSuffix, Name: fmt.Sprintf("p%02d", r.P),
				P: r.P, Eta: class.Eta, Steps: steps, Gamma: r.GammaStr, Speedup: r.DHPF,
				Extra: searchExtra(st),
			})
		}
	}
	return obs.WriteBenchJSON(path, bf)
}

// runOverlapCmp is the -overlapcmp mode: the comm/compute overlap
// experiment (exp.OverlapComparisonOn) on the default crossbar, the bus,
// and the contended hypercube. Each fabric's report prints the measured
// solve-phase recovery next to the causal `critpath -whatif` prediction;
// the default fabric is the CI gate — its replay models exactly what the
// schedule changes, so measured recovery beyond the predicted bound means
// the overlap executor or the causal engine drifted. Contended fabrics are
// reported but not gated: link contention is invisible to the replay, so
// overlap may legitimately beat the bound there.
func runOverlapCmp(steps int, jsonPath string) error {
	const p = 16
	eta := []int{32, 32, 32}
	bf := obs.BenchFile{Source: fmt.Sprintf("spbench -overlapcmp -steps %d -json (eta %s)", steps, partition.Describe(eta))}
	var gateErr error
	for _, topo := range []string{"", "bus", "hypercube+contention"} {
		r, err := exp.OverlapComparisonOn(topo, p, eta, steps, 0)
		if err != nil {
			return err
		}
		name := topo
		if name == "" {
			name = "crossbar (default)"
		}
		fmt.Printf("— fabric %s —\n%s\n", name, exp.FormatOverlapComparison(r))
		if topo == "" && !r.WithinPredictedBound() {
			gateErr = fmt.Errorf("default fabric: measured recovery %.6gs exceeds the causal what-if bound %.6gs",
				r.MeasuredRecovery(), r.PredictedRecovery())
		}
		bf.Records = append(bf.Records, exp.OverlapRecords(topo, r)...)
	}
	if jsonPath != "" {
		if err := obs.WriteBenchJSON(jsonPath, bf); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return gateErr
}

// writeCalibrationJSON emits the audit rows in the BENCH_*.json schema.
func writeCalibrationJSON(path string, class nas.Class, steps int, rows []exp.CalibrationRow, suiteSuffix, src string) error {
	bf := obs.BenchFile{Source: src + " -json"}
	for _, r := range rows {
		bf.Records = append(bf.Records, obs.BenchRecord{
			Suite: "sp-calibration" + suiteSuffix, Name: fmt.Sprintf("p%02d-%s", r.P, r.Phase),
			P: r.P, Eta: class.Eta, Steps: steps, Gamma: partition.Describe(r.Gamma),
			Extra: map[string]float64{
				"predicted_sec": r.Predicted,
				"measured_sec":  r.Measured,
				"rel_err":       r.RelErr,
			},
		})
	}
	return obs.WriteBenchJSON(path, bf)
}
