// Package cli is what the bench commands — spbench, sweepbench and hpfrun —
// share: the flags every one of them takes, parsed into an exp.Spec; the
// check that a command line sets only flags its mode reads; the source line
// an artifact records; the report of one traced simulator run; and the rt
// bit-identity check.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"strings"

	"genmp/internal/exp"
	"genmp/internal/obs"
	"genmp/internal/obs/live"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/xport"
)

// Command is one bench command's flag set: the shared flags, registered by
// New, plus the command's own, registered on the embedded FlagSet.
type Command struct {
	*flag.FlagSet
	// JSON is the -json output path.
	JSON string
	// Out holds the requested outputs of a traced run.
	Out Outputs

	topology, coll string
	overlap        bool
	live           live.Config
}

// New registers the shared flags of the named command. traced names the
// run the trace outputs describe, for the usage text; timeline adds
// -timeline, which only some commands take.
func New(name, traced string, timeline bool) *Command {
	c := &Command{FlagSet: flag.NewFlagSet(name, flag.ExitOnError)}
	c.StringVar(&c.live.Addr, "metrics-addr", "", "serve live metrics (/metrics Prometheus text, /metrics.json) and net/http/pprof on this address, e.g. localhost:9090")
	c.IntVar(&c.live.FlightDepth, "flightrec", 0, "per-rank flight-recorder ring depth: a deadlock dumps each rank's last N events (0 = off)")
	c.BoolVar(&c.live.PProfLabels, "pprof-labels", false, "tag rank goroutines with rank/phase pprof labels (costs allocations; pair with /debug/pprof/profile)")
	c.StringVar(&c.topology, "topology", "", "interconnect topology: crossbar, bus, hypercube, hypercube+contention (default: the network's scaling regime)")
	c.StringVar(&c.coll, "coll", "", "collective algorithm: auto, pairwise, ring, doubling, bruck")
	c.BoolVar(&c.overlap, "overlap", false, "run the sweeps with the plan-driven boundary-first overlap schedule (DESIGN.md §14); bench suites get a +overlap suffix")
	c.StringVar(&c.JSON, "json", "", "write machine-readable results (BENCH_*.json schema)")
	c.StringVar(&c.Out.Trace, "trace", "", "write a Perfetto/Chrome trace-event JSON file of "+traced)
	c.StringVar(&c.Out.TraceJSON, "tracejson", "", "write the round-trippable trace artifact of "+traced+" (critpath input)")
	c.BoolVar(&c.Out.Metrics, "metrics", false, "print the per-rank/per-phase profile of "+traced)
	c.BoolVar(&c.Out.Blame, "blame", false, "print makespan blame attribution of "+traced+" from the causal engine")
	c.StringVar(&c.Out.Profile, "profile", "", "write the serialized per-phase profile of "+traced+" (benchdiff input)")
	c.StringVar(&c.Out.Plan, "plan", "", "write the compiled sweep schedule of "+traced+" as plan JSON (reload with obs.LoadPlan)")
	if timeline {
		c.BoolVar(&c.Out.Timeline, "timeline", false, "render an ASCII rank timeline of "+traced)
	}
	return c
}

// Parse parses args and checks -coll and every comma-separated -topology
// entry. The spec it returns carries the shared parameters: topology,
// collective algorithm and the overlap switch.
func (c *Command) Parse(args []string) (exp.Spec, error) {
	if err := c.FlagSet.Parse(args); err != nil {
		return exp.Spec{}, err
	}
	coll, err := xport.ParseAlg(c.coll)
	if err != nil {
		return exp.Spec{}, err
	}
	for _, t := range strings.Split(c.topology, ",") {
		if _, err := sim.NewFabric(strings.TrimSpace(t), sim.Network{}, 1); err != nil {
			return exp.Spec{}, err
		}
	}
	return exp.Spec{Topology: c.topology, Coll: coll, Overlap: plan.Overlap{Enabled: c.overlap}}, nil
}

// Start starts the live telemetry the flags ask for.
func (c *Command) Start() error {
	tel, err := live.Start(c.live)
	if err != nil {
		return err
	}
	if tel.Server != nil {
		log.Printf("serving live metrics on http://%s/metrics", tel.Server.Addr)
	}
	return nil
}

// Mode is one thing a command does, named as its error messages name it,
// with the flags it reads: space-separated, without dashes. Every mode reads
// the telemetry flags.
type Mode struct {
	Name, Reads string
}

// Use checks that the command line sets no flag that m does not read: a
// flag the selected mode ignores is an error, never silently dropped.
func (c *Command) Use(m Mode) error {
	reads := map[string]bool{"metrics-addr": true, "flightrec": true, "pprof-labels": true}
	for _, name := range strings.Fields(m.Reads) {
		reads[name] = true
	}
	var unread []string
	c.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("%s mode does not read %s", m.Name, strings.Join(unread, ", "))
	}
	return nil
}

// Flags renders the listed flags (space-separated, without dashes) the way
// a source line shows them, in list order: a bool flag as " -name" when it
// is true, any other as " -name value". A name ending in "?" is left out
// when its value is empty or names the default ("default" topology, "auto"
// collective algorithm).
func (c *Command) Flags(list string) string {
	var sb strings.Builder
	for _, name := range strings.Fields(list) {
		name, optional := strings.CutSuffix(name, "?")
		f := c.Lookup(name)
		v := f.Value.String()
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			if v == "true" {
				sb.WriteString(" -" + name)
			}
		} else if !optional || (v != "" && v != "default" && v != "auto") {
			fmt.Fprintf(&sb, " -%s %s", name, v)
		}
	}
	return sb.String()
}

// Source starts an artifact source line of this command from the listed
// flags (see Flags) and the grid parameters.
func (c *Command) Source(list, grid string, modeFirst bool) Source {
	return Source{Line: c.Name() + c.Flags(list), Grid: grid, ModeFirst: modeFirst}
}

// Source is the command line an artifact records in its source field, so
// a diff report can say how to regenerate either side: the command and the
// flags that shaped the run (output paths left out), the flag that wrote
// the artifact, and the grid parameters in parentheses.
type Source struct {
	Line, Grid string
	// ModeFirst puts the artifact's flag before the grid ("… -json (eta
	// …)") rather than after it ("… (eta …) -json").
	ModeFirst bool
}

// For returns the source of the artifact written by flag, e.g. "-json".
func (s Source) For(flag string) string {
	if s.ModeFirst {
		return fmt.Sprintf("%s %s (%s)", s.Line, flag, s.Grid)
	}
	return fmt.Sprintf("%s (%s) %s", s.Line, s.Grid, flag)
}

// WriteJSON writes recs to the -json path, when one was given, as a bench
// file with source src.For("-json"), and tells w.
func (c *Command) WriteJSON(w io.Writer, src Source, recs []obs.BenchRecord) error {
	if c.JSON == "" {
		return nil
	}
	if err := obs.WriteBenchJSON(c.JSON, obs.BenchFile{Source: src.For("-json"), Records: recs}); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %s\n", c.JSON)
	return nil
}
