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
//	sweepbench -backend rt -p 2 -eta 12,12,12                # real-parallel ADI, bits checked
//
// Each mode reads only its own flags; setting a flag the selected mode does
// not read is an error.
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"genmp/internal/adi"
	"genmp/internal/cli"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/exp"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

// The modes, in the order the flags select them.
var (
	modeRedist   = cli.Mode{Name: "-redist", Reads: "redist p eta steps redistbudget topology coll json"}
	modeReal     = cli.Mode{Name: "-backend rt", Reads: "backend p eta steps json"}
	modeTraced   = cli.Mode{Name: "traced-sweep", Reads: "backend p eta topology coll overlap timeline trace tracejson metrics blame profile plan"}
	modeGrain    = cli.Mode{Name: "-grainsweep", Reads: "backend grainsweep p eta topology coll"}
	modeStrategy = cli.Mode{Name: "strategy-comparison", Reads: "backend p eta steps grain topology coll overlap json"}
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweepbench: ")
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
	// spec carries the shared flags plus P, Eta, Steps, Grain and MaxBytes.
	spec exp.Spec
	src  cli.Source
}

func parse(args []string) (*bench, error) {
	c := cli.New("sweepbench", "one multipartitioned sweep", true)
	c.Lookup("topology").Usage += "; a comma-separated list compares them"
	p := c.Int("p", 16, "number of processors")
	etaStr := c.String("eta", "64,64,64", "array extents")
	steps := c.Int("steps", 2, "ADI timesteps")
	grain := c.Int("grain", 64, "wavefront message granularity (lines per message)")
	grainSweep := c.Bool("grainsweep", false, "sweep wavefront granularities instead")
	backend := c.String("backend", "sim", "execution backend: sim (virtual-time strategy comparison) or rt (real-parallel goroutines, wall clock; runs the strict distributed-memory ADI with overlap off and on, checking field bits against the simulator)")
	redistCmp := c.Bool("redist", false, "run the redistribution-policy comparison (BLOCK↔MULTI switch each timestep vs dynamic-block transposes vs staying put)")
	redistBudget := c.Int("redistbudget", 0, "per-rank staging budget in bytes for the -redist switch plans (0 = unbounded)")
	spec, err := c.Parse(args)
	if err != nil {
		return nil, err
	}
	var eta []int
	for _, tok := range strings.Split(*etaStr, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 2 {
			return nil, fmt.Errorf("bad extent %q", tok)
		}
		eta = append(eta, v)
	}
	if *backend != "sim" && *backend != "rt" {
		return nil, fmt.Errorf("unknown backend %q (want sim or rt)", *backend)
	}
	spec.P, spec.Eta, spec.Steps, spec.Grain, spec.MaxBytes = *p, eta, *steps, *grain, *redistBudget
	b := &bench{c: c, spec: spec}
	grid := "eta " + partition.Describe(eta)
	list := strings.Contains(spec.Topology, ",")
	switch {
	case *redistCmp:
		b.mode, b.src = modeRedist, c.Source("redist p eta steps redistbudget topology? coll?", grid, true)
	case *backend == "rt":
		b.mode, b.src = modeReal, c.Source("backend p eta steps", grid, true)
	case !list && (c.Out.Traced() || c.Out.Plan != ""):
		b.mode, b.src = modeTraced, c.Source("p eta topology? coll? overlap", grid, true)
	case !list && *grainSweep:
		b.mode = modeGrain
	default:
		b.mode, b.src = modeStrategy, c.Source("p eta steps grain topology? coll? overlap", grid, true)
	}
	return b, c.Use(b.mode)
}

func (b *bench) run() error {
	switch b.mode {
	case modeRedist:
		return b.redist()
	case modeReal:
		return b.real()
	case modeTraced:
		return b.traced()
	case modeGrain:
		return b.grainSweep()
	}
	return b.strategies()
}

// strategies runs the strategy comparison, on each listed topology when
// -topology names several.
func (b *bench) strategies() error {
	s := b.spec
	note := ""
	if s.Overlap.Enabled {
		note = ", boundary-first overlap"
	}
	if topos := strings.Split(s.Topology, ","); len(topos) > 1 {
		for i := range topos {
			topos[i] = strings.TrimSpace(topos[i])
		}
		fmt.Printf("ADI strategy comparison across topologies: p=%d, η=%v, %d step(s)%s\n\n", s.P, s.Eta, s.Steps, note)
		rows, err := exp.TopologyComparison(topos, s)
		if err != nil {
			return err
		}
		fmt.Print(exp.FormatTopologyComparison(rows))
		var recs []obs.BenchRecord
		for _, tr := range rows {
			s.Topology = tr.Topology
			recs = append(recs, exp.StrategyRecords(s, tr.Rows)...)
		}
		return b.c.WriteJSON(os.Stdout, b.src, recs)
	}
	fmt.Printf("ADI strategy comparison: p=%d, η=%v, %d step(s) (virtual Origin 2000)%s\n\n", s.P, s.Eta, s.Steps, note)
	rows, err := exp.StrategyComparison(s)
	if err != nil {
		return err
	}
	fmt.Printf("%-34s  %14s  %12s  %10s\n", "strategy", "virtual time", "bytes", "messages")
	for _, r := range rows {
		fmt.Printf("%-34s  %12.3fms  %12d  %10d\n", r.Strategy, r.Time*1e3, r.Bytes, r.Messages)
	}
	if err := b.c.WriteJSON(os.Stdout, b.src, exp.StrategyRecords(s, rows)); err != nil {
		return err
	}
	fmt.Println("\nMultipartitioning keeps every processor busy in every phase with only")
	fmt.Println("coarse-grain carry messages — the property the paper generalizes to any p.")
	return nil
}

// redist runs the redistribution-policy comparison.
func (b *bench) redist() error {
	s := b.spec
	fmt.Printf("redistribution policy comparison: p=%d, η=%v, %d step(s)\n\n", s.P, s.Eta, s.Steps)
	rows, err := exp.RedistComparison(s)
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatRedistComparison(rows))
	return b.c.WriteJSON(os.Stdout, b.src, exp.RedistRecords(s, rows))
}

// multi builds the optimal multipartitioning for p over eta and its
// hand-coded environment.
func multi(p int, eta []int) (*core.Multipartitioning, *dist.Env, error) {
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, len(eta), obj)
	if err != nil {
		return nil, nil, err
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	return m, env, err
}

// real is the -backend rt mode: the strict distributed-memory ADI
// integration on the real-parallel runtime, overlap off and on, each final
// field checked bit for bit against the simulator running the identical
// compiled schedule.
func (b *bench) real() error {
	p, eta, steps := b.spec.P, b.spec.Eta, b.spec.Steps
	m, env, err := multi(p, eta)
	if err != nil {
		return err
	}
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: steps}
	gamma := partition.Describe(m.Gamma())
	fmt.Printf("ADI strict distributed memory: p=%d, eta=%v, %d step(s), partitioning %s — real-parallel backend (wall clock)\n\n",
		p, eta, steps, gamma)
	recs, err := cli.CheckReal(os.Stdout, cli.RealRun{
		Suite: "adi-real", Name: fmt.Sprintf("multi-p%02d", p),
		P: p, Steps: steps, Eta: eta, Gamma: gamma,
		Run: func(m *sim.Machine, o plan.Overlap) (*grid.Grid, sim.Result, error) {
			return dmem.RunADI(pb, env, m, o, nil)
		},
	})
	if err != nil {
		return err
	}
	return b.c.WriteJSON(os.Stdout, b.src, recs)
}

// traced runs one multipartitioned tridiagonal sweep along dim 0 with
// tracing and reports whichever views were requested: the ASCII per-rank
// timeline (the balance property appears as compute bars of equal length in
// every phase on every rank), the per-phase profile (printed and/or
// serialized for benchdiff), a Perfetto trace, and the plan with its
// traffic audit.
func (b *bench) traced() error {
	s := b.spec
	m, env, err := multi(s.P, s.Eta)
	if err != nil {
		return err
	}
	// One shared schedule for every rank, compiled without halo metadata
	// (model fields have no storage), which is what -plan dumps.
	solver := sweep.Tridiag{}
	pl, err := plan.Compile(plan.Spec{M: m, Eta: s.Eta, Solver: solver, Overlap: s.Overlap})
	if err != nil {
		return err
	}
	mach, err := nas.Origin2000MachineOn(s.Topology, s.P)
	if err != nil {
		return err
	}
	mach.Coll = s.Coll
	mach.Trace = &sim.Trace{}
	res, err := mach.Run(func(r *sim.Rank) {
		// A model field holds no storage, so one serves every vector.
		f := dist.NewModelField(env, r.ID, 0)
		fields := make([]*dist.Field, solver.NumVecs())
		for v := range fields {
			fields[v] = f
		}
		sr := dist.NewSweepRunner(solver, fields)
		sr.Plan = pl
		r.BeginPhase("sweep0")
		sr.Run(r, 0)
	})
	if err != nil {
		return err
	}
	fmt.Printf("one sweep along dim 0, %s on %v: %d events, makespan %.3f ms\n",
		m.Name(), s.Eta, mach.Trace.Len(), res.Makespan*1e3)
	// The run swept dim 0 once under the "sweep0" label; the plan audit
	// checks the plan's dim-0 traffic against it.
	return b.c.Out.Report(os.Stdout, cli.Run{Result: res, Trace: mach.Trace, Source: b.src,
		Plan: pl, Execs: 1, PhaseOf: func(dim int) string {
			if dim == 0 {
				return "sweep0"
			}
			return ""
		}})
}

// grainSweep sweeps the wavefront message granularity of one block sweep.
func (b *bench) grainSweep() error {
	s := b.spec
	blk, err := dist.NewBlock(s.P, s.Eta, 0, dist.HandCoded())
	if err != nil {
		return err
	}
	lines := 1
	for _, e := range s.Eta[1:] {
		lines *= e
	}
	fmt.Printf("wavefront granularity sweep: p=%d, η=%v (%d lines along dim 0)\n\n", s.P, s.Eta, lines)
	fmt.Printf("%10s  %14s  %10s\n", "grain", "virtual time", "messages")
	for g := 1; g <= lines; g *= 2 {
		mach, err := nas.Origin2000MachineOn(s.Topology, s.P)
		if err != nil {
			return err
		}
		mach.Coll = s.Coll
		res, err := mach.Run(func(r *sim.Rank) {
			blk.WavefrontSweep(r, sweep.Tridiag{}, nil, g)
		})
		if err != nil {
			return err
		}
		fmt.Printf("%10d  %12.3fms  %10d\n", g, res.Makespan*1e3, res.TotalMessages())
	}
	fmt.Println("\nSmall grains maximize pipeline overlap but pay per-message overhead;")
	fmt.Println("large grains serialize the pipeline — the Section 1 tension.")
	return nil
}
