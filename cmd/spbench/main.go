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
//	spbench -overlapcmp                      # overlap off vs on per fabric
//	spbench -backend rt -p 4                 # real-parallel run, bits checked
//
// Each mode reads only its own flags; setting a flag the selected mode does
// not read is an error.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"genmp/internal/cli"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/exp"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/obs/metrics"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/redist"
	"genmp/internal/sim"
)

// The modes, in the order the flags select them.
var (
	modeOverlapCmp = cli.Mode{Name: "-overlapcmp", Reads: "overlapcmp steps json"}
	modeReal       = cli.Mode{Name: "-backend rt -p", Reads: "backend p class steps json"}
	modeRun        = cli.Mode{Name: "-p", Reads: "p backend class steps topology coll overlap data json trace tracejson metrics blame profile plan redistplan"}
	modeCalibrate  = cli.Mode{Name: "-calibrate", Reads: "calibrate class steps procs topology json"}
	modeTable      = cli.Mode{Name: "Table 1", Reads: "class steps procs csv topology json"}
)

var classes = map[string]nas.Class{"S": nas.ClassS, "W": nas.ClassW, "A": nas.ClassA, "B": nas.ClassB}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spbench: ")
	b, err := parse(os.Args[1:])
	if err == nil {
		err = b.c.Start()
	}
	if err == nil {
		err = b.run()
	}
	if err != nil {
		log.Fatal(err)
	}
}

// bench is one parsed command line.
type bench struct {
	c    *cli.Command
	mode cli.Mode
	// spec carries the shared flags plus P, Eta and Steps.
	spec       exp.Spec
	class      nas.Class
	procs      []int
	src        cli.Source
	csv, data  bool
	redistPlan string
}

func parse(args []string) (*bench, error) {
	c := cli.New("spbench", "the -p run", false)
	className := c.String("class", "B", "NAS problem class (S, W, A, B)")
	steps := c.Int("steps", 2, "timesteps to simulate (speedups are per-step steady state)")
	procs := c.String("procs", "", "comma-separated processor counts (default: the paper's Table 1 column)")
	csv := c.Bool("csv", false, "emit machine-readable CSV instead of the formatted table")
	p := c.Int("p", 0, "run one instrumented SP configuration on this many processors instead of the table")
	backend := c.String("backend", "sim", "execution backend for the -p run: sim (virtual-time Origin 2000) or rt (real-parallel goroutines, wall clock; runs the strict distributed-memory SP with overlap off and on, checking field bits against the simulator)")
	calibrate := c.Bool("calibrate", false, "audit the analytic cost model against the simulator, phase by phase")
	redistPlan := c.String("redistplan", "", "with -p: write the compiled BLOCK↔MULTI redistribution plan dump (REDIST_*.json) and print the plan-vs-counters byte audit")
	data := c.Bool("data", false, "with -p: run in data mode (real arrays advanced in place) instead of model-only, exercising the payload pool and sweep arenas; virtual time differs from model-only under dHPF, whose replication only model-only runs price")
	overlapCmp := c.Bool("overlapcmp", false, "run the overlap experiment (SP p=16, 32³): overlap off vs on per fabric, measured recovery next to the causal what-if prediction; fails if the default fabric exceeds the predicted bound")
	spec, err := c.Parse(args)
	if err != nil {
		return nil, err
	}
	class, ok := classes[strings.ToUpper(*className)]
	if !ok {
		return nil, fmt.Errorf("unknown class %q (want S, W, A or B)", *className)
	}
	*className = class.Name // source lines name the class canonically
	b := &bench{c: c, spec: spec, class: class, csv: *csv, data: *data, redistPlan: *redistPlan}
	if *procs != "" {
		for _, tok := range strings.Split(*procs, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || q < 1 {
				return nil, fmt.Errorf("bad processor count %q", tok)
			}
			b.procs = append(b.procs, q)
		}
	}
	if *backend != "sim" && *backend != "rt" {
		return nil, fmt.Errorf("unknown backend %q (want sim or rt)", *backend)
	}
	b.spec.P, b.spec.Eta, b.spec.Steps = *p, class.Eta, *steps
	grid := "eta " + partition.Describe(class.Eta)
	switch {
	case *overlapCmp:
		b.spec.P, b.spec.Eta = 16, []int{32, 32, 32}
		b.mode, b.src = modeOverlapCmp, c.Source("overlapcmp steps", "eta "+partition.Describe(b.spec.Eta), true)
	case *p > 0 && *backend == "rt":
		b.mode, b.src = modeReal, c.Source("class steps backend p", grid, false)
	case *p > 0:
		b.mode, b.src = modeRun, c.Source("class steps topology? coll? p overlap", grid, false)
	case *calibrate:
		b.mode, b.src = modeCalibrate, c.Source("class steps procs? topology? calibrate", grid, false)
	default:
		b.mode, b.src = modeTable, c.Source("class steps procs? topology?", grid, false)
	}
	return b, c.Use(b.mode)
}

func (b *bench) run() error {
	if b.procs != nil {
		exp.Table1Procs = b.procs
	}
	switch b.mode {
	case modeOverlapCmp:
		return b.overlapCmp()
	case modeReal:
		return b.real()
	case modeRun:
		return b.single()
	case modeCalibrate:
		return b.calibrate()
	}
	return b.table()
}

// table regenerates Table 1.
func (b *bench) table() error {
	class, steps := b.class, b.spec.Steps
	if !b.csv {
		fmt.Printf("NAS SP class %s (%d×%d×%d), %d step(s), virtual Origin 2000\n\n",
			class.Name, class.Eta[0], class.Eta[1], class.Eta[2], steps)
	}
	rows, err := exp.Table1On(b.spec.Topology, class.Eta, steps)
	if err != nil {
		return err
	}
	out := io.Writer(os.Stdout)
	if b.csv {
		out = io.Discard // keep the CSV clean
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
	} else {
		fmt.Print(exp.FormatTable1(rows))
		fmt.Println("\nPaper columns are the published Table 1 (class B on a real Origin 2000);")
		fmt.Println("compare shapes — who wins, scaling trend, and the 49-vs-50 CPU inversion.")
	}
	if b.c.JSON == "" {
		return nil
	}
	recs, err := table1Records(b.spec, rows)
	if err != nil {
		return err
	}
	return b.c.WriteJSON(out, b.src, recs)
}

// table1Records converts Table 1 into bench records: one per (variant, p)
// cell plus the search counters of the partitioning chosen for the dHPF
// variant.
func table1Records(s exp.Spec, rows []exp.Table1Row) ([]obs.BenchRecord, error) {
	var recs []obs.BenchRecord
	for _, r := range rows {
		if !math.IsNaN(r.Hand) {
			recs = append(recs, obs.BenchRecord{
				Suite: s.Suite("sp-table1-hand"), Name: fmt.Sprintf("p%02d", r.P),
				P: r.P, Eta: s.Eta, Steps: s.Steps, Speedup: r.Hand,
			})
		}
		if !math.IsNaN(r.DHPF) {
			var st partition.SearchStats
			if _, err := search(r.P, s.Eta, &st); err != nil {
				return nil, err
			}
			recs = append(recs, obs.BenchRecord{
				Suite: s.Suite("sp-table1-dhpf"), Name: fmt.Sprintf("p%02d", r.P),
				P: r.P, Eta: s.Eta, Steps: s.Steps, Gamma: r.GammaStr, Speedup: r.DHPF,
				Extra: searchExtra(st),
			})
		}
	}
	return recs, nil
}

// calibrate audits the analytic cost model against the simulator.
func (b *bench) calibrate() error {
	rows, err := exp.Calibrate(b.spec)
	if err != nil {
		return err
	}
	fmt.Printf("cost-model calibration: SP class %s, %d step(s), hand-coded overheads\n", b.class.Name, b.spec.Steps)
	fmt.Printf("(predicted = analytic cost.Calibrated model; measured = simulator per-phase mean)\n\n")
	fmt.Print(exp.FormatCalibration(rows))
	recs := make([]obs.BenchRecord, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, obs.BenchRecord{
			Suite: b.spec.Suite("sp-calibration"), Name: fmt.Sprintf("p%02d-%s", r.P, r.Phase),
			P: r.P, Eta: b.spec.Eta, Steps: b.spec.Steps, Gamma: partition.Describe(r.Gamma),
			Extra: map[string]float64{
				"predicted_sec": r.Predicted,
				"measured_sec":  r.Measured,
				"rel_err":       r.RelErr,
			},
		})
	}
	return b.c.WriteJSON(os.Stdout, b.src, recs)
}

// single executes one SP configuration with full observability: search
// counters from the partitioning search, the per-phase profile (printable
// and serializable), a Perfetto-loadable trace, and the causal engine's
// blame attribution.
func (b *bench) single() error {
	class, steps, p, eta := b.class, b.spec.Steps, b.spec.P, b.spec.Eta
	var st partition.SearchStats
	m, env, err := multi(p, eta, &st)
	if err != nil {
		return err
	}
	mach, err := nas.Origin2000MachineOn(b.spec.Topology, p)
	if err != nil {
		return err
	}
	mach.CPU.WorkingSetBytes = nas.WorkingSetBytes(eta, p)
	mach.Coll = b.spec.Coll
	if b.c.Out.Traced() {
		mach.Trace = &sim.Trace{}
	}
	// One compiled plan drives the run and the dump/audit: what the dump
	// shows is exactly the schedule the executor ran.
	pl, err := nas.CompilePlanOverlap(env, b.spec.Overlap)
	if err != nil {
		return err
	}
	// Data mode advances a real array so carries travel in pooled payloads
	// and line data moves through the sweep arenas — the traffic the pool
	// and workspace hit-rate metrics measure. Virtual time equals
	// model-only's only without partial replication (R = 0): a model-only
	// run prices dHPF's replicated shell and depth-(2−R) halos, a data run
	// exchanges depth-2 halos and charges no shell (DESIGN.md §15).
	var u *grid.Grid
	if b.data {
		u = nas.InitialState(eta)
	}
	res, err := nas.RunPlanned(env, mach, steps, u, pl)
	if err != nil {
		return err
	}
	gamma := partition.Describe(m.Gamma())
	fmt.Printf("SP class %s, %d step(s), p=%d, partitioning %s (dHPF overheads, %s fabric)\n",
		class.Name, steps, p, gamma, mach.Fabric.Name())
	fmt.Println(st.String())
	fmt.Printf("makespan %.3f ms, %d messages, %d bytes\n",
		res.Makespan*1e3, res.TotalMessages(), res.TotalBytes())
	err = b.c.Out.Report(os.Stdout, cli.Run{Result: res, Trace: mach.Trace, Source: b.src,
		Plan: pl, PhaseOf: nas.PhaseSolve, Execs: steps})
	if err != nil {
		return err
	}
	if b.redistPlan != "" {
		if err := b.dumpRedistPlan(m); err != nil {
			return err
		}
	}
	return b.c.WriteJSON(os.Stdout, b.src, []obs.BenchRecord{{
		Suite: b.spec.Suite("sp-run"), Name: fmt.Sprintf("class%s-p%02d", class.Name, p),
		P: p, Eta: eta, Steps: steps, Gamma: gamma,
		Makespan: res.Makespan, Messages: res.TotalMessages(), Bytes: res.TotalBytes(),
		Extra: searchExtra(st),
	}})
}

// real is the -backend rt mode: the strict distributed-memory SP on the
// real-parallel runtime, overlap off and on, each final field checked bit
// for bit against the simulator running the identical compiled schedule.
func (b *bench) real() error {
	class, steps, p, eta := b.class, b.spec.Steps, b.spec.P, b.spec.Eta
	m, env, err := multi(p, eta, nil)
	if err != nil {
		return err
	}
	gamma := partition.Describe(m.Gamma())
	fmt.Printf("SP class %s, %d step(s), p=%d, partitioning %s — real-parallel backend (strict distributed memory, wall clock)\n\n",
		class.Name, steps, p, gamma)
	recs, err := cli.CheckReal(os.Stdout, cli.RealRun{
		Suite: "sp-real", Name: fmt.Sprintf("class%s-p%02d", class.Name, p),
		P: p, Steps: steps, Eta: eta, Gamma: gamma,
		Run: func(m *sim.Machine, o plan.Overlap) (*grid.Grid, sim.Result, error) {
			return dmem.RunSP(env, m, steps, o, nil)
		},
	})
	if err != nil {
		return err
	}
	return b.c.WriteJSON(os.Stdout, b.src, recs)
}

// search finds the SP partitioning for p processors over eta, counting
// into st when it is non-nil.
func search(p int, eta []int, st *partition.SearchStats) (partition.Result, error) {
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	return partition.OptimalCappedStats(p, len(eta), obj, eta, st)
}

// multi builds the generalized multipartitioning search picks for p over
// eta and its dHPF environment.
func multi(p int, eta []int, st *partition.SearchStats) (*core.Multipartitioning, *dist.Env, error) {
	res, err := search(p, eta, st)
	if err != nil {
		return nil, nil, err
	}
	m, err := core.NewGeneralized(p, res.Gamma)
	if err != nil {
		return nil, nil, err
	}
	env, err := dist.NewEnv(m, eta, dist.DHPF())
	return m, env, err
}

// dumpRedistPlan compiles the BLOCK(dim 0)→MULTI redistribution for the
// run's configuration — the move a solver alternating between a
// spectral-friendly block layout and the sweep-friendly multipartitioning
// performs every timestep — validates it, writes the dump, executes it
// model-only against a fresh metrics registry, and prints the
// plan-vs-counters byte audit (every delta must be zero).
func (b *bench) dumpRedistPlan(m *core.Multipartitioning) error {
	p, eta := b.spec.P, b.spec.Eta
	from, err := redist.NewBlockLayout(p, eta, 0)
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
	if err := obs.WriteRedistJSON(b.redistPlan, b.src.For("-redistplan"), rpl); err != nil {
		return err
	}
	fmt.Printf("redistribution plan written to %s\n", b.redistPlan)
	fmt.Print(rpl.Summary())
	reg := metrics.New()
	redist.EnableMetrics(reg)
	defer redist.EnableMetrics(nil)
	base := nas.Origin2000Machine(p)
	audMach := sim.NewMachine(p, base.Net, base.CPU)
	if _, err := audMach.Run(func(r *sim.Rank) {
		redist.Execute(r, rpl, redist.ExecOpts{Coll: b.spec.Coll})
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

// overlapCmp is the -overlapcmp mode: the comm/compute overlap experiment
// on the default crossbar, the bus, and the contended hypercube. Each
// fabric's report prints the measured solve-phase recovery next to the
// causal `critpath -whatif` prediction; the default fabric is the CI gate —
// its replay models exactly what the schedule changes, so measured recovery
// beyond the predicted bound means the overlap executor or the causal
// engine drifted. Contended fabrics are reported but not gated: link
// contention is invisible to the replay, so overlap may legitimately beat
// the bound there.
func (b *bench) overlapCmp() error {
	var recs []obs.BenchRecord
	var gateErr error
	for _, topo := range []string{"", "bus", "hypercube+contention"} {
		s := b.spec
		s.Topology = topo
		r, err := exp.OverlapComparison(s)
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
		recs = append(recs, exp.OverlapRecords(s, r)...)
	}
	if err := b.c.WriteJSON(os.Stdout, b.src, recs); err != nil {
		return err
	}
	return gateErr
}
