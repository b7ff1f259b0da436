// Command critpath runs the causal analysis engine over a recorded trace
// artifact (obs.WriteTraceJSON): it rebuilds the happens-before DAG,
// replays the schedule, extracts the critical chain, attributes makespan
// blame by phase, kind and link, and answers what-if questions without
// rerunning the simulator.
//
//	critpath trace.json                      blame report (text)
//	critpath -md -top 5 trace.json           markdown tables
//	critpath -json trace.json                machine-readable report
//	critpath -path 6 trace.json              also show the chain's ends
//	critpath -whatif 'overlap:phase=solve0' trace.json
//	critpath -whatif 'scale-link:0->1:0.5; zero-wait:phase=halo' trace.json
//	critpath -selftest trace.json            verify replay fidelity (CI gate)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"genmp/internal/obs"
	"genmp/internal/obs/causal"
)

func main() {
	top := flag.Int("top", 8, "rows per blame view (0 = all)")
	pathN := flag.Int("path", 0, "show this many leading and trailing critical-chain steps (0 = none)")
	md := flag.Bool("md", false, "render blame as markdown tables")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON")
	whatif := flag.String("whatif", "", "perturbation expression, e.g. 'overlap:phase=solve0,frac=0.25; scale-link:0->1:2'")
	selftest := flag.Bool("selftest", false, "verify identity-replay fidelity against the recorded makespan and exit")
	outPath := flag.String("o", "", "write the report to this file instead of stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: critpath [flags] trace.json\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	if err := run(flag.Arg(0), *top, *pathN, *md, *jsonOut, *whatif, *selftest, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "critpath:", err)
		os.Exit(1)
	}
}

func run(tracePath string, top, pathN int, md, jsonOut bool, whatif string, selftest bool, outPath string) error {
	tf, err := obs.ReadTraceJSON(tracePath)
	if err != nil {
		return err
	}
	tr, err := tf.Trace()
	if err != nil {
		return err
	}
	dag, err := causal.Build(tr, tf.P)
	if err != nil {
		return err
	}
	sched, err := dag.Replay()
	if err != nil {
		return err
	}

	if selftest {
		return runSelftest(tf, dag, sched, tracePath)
	}

	var out io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	blame := sched.Blame()
	report := reportJSON{
		Trace:    tracePath,
		Source:   tf.Source,
		P:        tf.P,
		Makespan: sched.Makespan,
		BusyPath: dag.BusyCriticalPath(),
		MsgEdges: dag.MsgEdges,
		Blame:    blame,
	}

	var perturbed *causal.Schedule
	if whatif != "" {
		perts, err := causal.ParsePerturbations(whatif)
		if err != nil {
			return err
		}
		perturbed, err = dag.Replay(perts...)
		if err != nil {
			return err
		}
		report.WhatIf = &whatIfJSON{
			Expr:      whatif,
			Predicted: perturbed.Makespan,
			Delta:     perturbed.Makespan - sched.Makespan,
			Blame:     perturbed.Blame(),
		}
	}

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}

	render := blame.Format
	if md {
		render = blame.Markdown
	}
	fmt.Fprintf(out, "trace %s  (p=%d", tracePath, tf.P)
	if tf.Source != "" {
		fmt.Fprintf(out, ", source: %s", tf.Source)
	}
	fmt.Fprintf(out, ")\nbusy critical path %s  (%.1f%% of makespan)  message edges %d\n\n",
		fmtSec(report.BusyPath), 100*report.BusyPath/sched.Makespan, dag.MsgEdges)
	fmt.Fprint(out, render(top))
	if pathN > 0 {
		fmt.Fprintf(out, "\n%s", causal.FormatChain(sched.Chain(), pathN, pathN))
	}
	if perturbed != nil {
		fmt.Fprintf(out, "\nwhat-if %q:\n  predicted makespan %s  (delta %+.6g µs, %+.2f%%)\n\n",
			whatif, fmtSec(perturbed.Makespan),
			(perturbed.Makespan-sched.Makespan)*1e6,
			100*(perturbed.Makespan-sched.Makespan)/sched.Makespan)
		pb := perturbed.Blame()
		prender := pb.Format
		if md {
			prender = pb.Markdown
		}
		fmt.Fprint(out, prender(top))
	}
	return nil
}

type reportJSON struct {
	Trace    string        `json:"trace"`
	Source   string        `json:"source,omitempty"`
	P        int           `json:"p"`
	Makespan float64       `json:"makespan_sec"`
	BusyPath float64       `json:"busy_critical_path_sec"`
	MsgEdges int           `json:"message_edges"`
	Blame    *causal.Blame `json:"blame"`
	WhatIf   *whatIfJSON   `json:"whatif,omitempty"`
}

type whatIfJSON struct {
	Expr      string        `json:"expr"`
	Predicted float64       `json:"predicted_makespan_sec"`
	Delta     float64       `json:"delta_sec"`
	Blame     *causal.Blame `json:"blame"`
}

// runSelftest is the CI fidelity gate: the DAG-replayed identity schedule
// must reproduce the simulator's recorded makespan bit-exactly, every
// message must pair, and the blame decomposition must telescope back to
// the makespan. (The busy-path scalar is pinned to obs.Profile's by
// causal's TestBusyCriticalPathMatchesObs.)
func runSelftest(tf obs.TraceFile, dag *causal.DAG, sched *causal.Schedule, tracePath string) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("selftest %s: "+format, append([]any{tracePath}, args...)...)
	}
	if sched.Makespan != tf.Makespan {
		return fail("identity replay makespan %.17g != recorded %.17g (diff %g)",
			sched.Makespan, tf.Makespan, sched.Makespan-tf.Makespan)
	}
	if dag.Makespan != tf.Makespan {
		return fail("trace max event end %.17g != recorded makespan %.17g", dag.Makespan, tf.Makespan)
	}
	// Per-node fidelity, not just the max: every event must land exactly
	// where the simulator put it.
	for i := range dag.Nodes {
		if got, want := sched.End[i], dag.Nodes[i].Ev.End; got != want {
			return fail("node %d (%s rank %d) replayed end %.17g != observed %.17g",
				i, dag.Nodes[i].Ev.Kind, dag.Nodes[i].Ev.Rank, got, want)
		}
		if sched.Slack[i] < -1e-12 {
			return fail("node %d has negative slack %g", i, sched.Slack[i])
		}
	}
	// Structural closure: a finished run leaves no unmatched messages.
	matcher := causal.NewMatcher()
	for _, n := range dag.Nodes {
		switch n.Ev.Kind.String() {
		case "send", "isend":
			matcher.AddSend(causal.Channel{Src: n.Ev.Rank, Dst: n.Ev.Peer, Tag: n.Ev.Tag}, n.ID)
		case "recv", "wait":
			matcher.AddRecv(causal.Channel{Src: n.Ev.Peer, Dst: n.Ev.Rank, Tag: n.Ev.Tag}, n.ID)
		}
	}
	if s, r := matcher.Unmatched(); s != 0 || r != 0 {
		return fail("unmatched messages: %d sends, %d recvs", s, r)
	}
	// The blame chain telescopes to the makespan up to float summation.
	blame := sched.Blame()
	sum := blame.BusyOnPath + blame.WaitOnPath
	if rel := math.Abs(sum-sched.Makespan) / sched.Makespan; rel > 1e-9 {
		return fail("blame busy+wait %.17g does not telescope to makespan %.17g (rel err %g)",
			sum, sched.Makespan, rel)
	}
	fmt.Printf("selftest ok: %s  p=%d  events=%d  makespan=%.9gs reproduced bit-exactly, %d message edges, chain len %d\n",
		tracePath, tf.P, len(dag.Nodes), sched.Makespan, dag.MsgEdges, blame.ChainLen)
	return nil
}

func fmtSec(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3 && s > -1e-3:
		return fmt.Sprintf("%.2fµs", s*1e6)
	case s < 1 && s > -1:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
