package cli

import (
	"fmt"
	"io"
	"math"

	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/obs/causal"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
)

// Outputs are the requested outputs of one traced simulator run.
type Outputs struct {
	Trace, TraceJSON, Profile, Plan string
	Metrics, Blame, Timeline        bool
}

// Traced reports whether any output needs the run's events recorded.
func (o Outputs) Traced() bool {
	return o.Timeline || o.Metrics || o.Blame || o.Trace != "" || o.TraceJSON != "" || o.Profile != ""
}

// Run is one simulator run to report on.
type Run struct {
	Result sim.Result
	// Trace holds the run's events; it is recorded when Outputs.Traced.
	Trace  *sim.Trace
	Source Source
	// Plan is the compiled schedule the run executed, written by -plan.
	Plan *plan.SweepPlan
	// PhaseOf and Execs drive -plan's traffic audit: the run executed the
	// plan's sweep along dim Execs times under profile phase PhaseOf(dim).
	// A nil PhaseOf skips the audit.
	PhaseOf func(dim int) string
	Execs   int
}

// Report writes every output o asks for of run: the printed ones to w, the
// artifacts to their files.
func (o Outputs) Report(w io.Writer, run Run) error {
	res, tr, p := run.Result, run.Trace, len(run.Result.Ranks)
	if o.Timeline {
		fmt.Fprintln(w, "(# compute, > send, < recv/wait, . idle)")
		if err := tr.RenderTimeline(w, p, res.Makespan, 100); err != nil {
			return err
		}
	}
	if o.Metrics {
		fmt.Fprintf(w, "\n%s", obs.NewProfile(res, tr).Format())
	}
	if o.Blame {
		rep, err := causal.Report(tr, p, 8)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s", rep)
	}
	if o.Trace != "" {
		if err := obs.WriteTraceFile(o.Trace, tr, p); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s (load in ui.perfetto.dev)\n", o.Trace)
	}
	if o.TraceJSON != "" {
		if err := obs.WriteTraceJSON(o.TraceJSON, run.Source.For("-tracejson"), tr, p, res.Makespan); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace artifact written to %s (analyze with critpath)\n", o.TraceJSON)
	}
	if o.Profile != "" {
		if err := obs.WriteProfileJSON(o.Profile, run.Source.For("-profile"), obs.NewProfile(res, tr)); err != nil {
			return err
		}
		fmt.Fprintf(w, "profile written to %s (compare with benchdiff)\n", o.Profile)
	}
	if o.Plan != "" {
		if err := run.Plan.Validate(); err != nil {
			return err
		}
		if err := obs.WritePlanJSON(o.Plan, run.Source.For("-plan"), run.Plan); err != nil {
			return err
		}
		fmt.Fprintf(w, "plan written to %s (%d ranks; reload with obs.LoadPlan)\n", o.Plan, run.Plan.P)
		if run.PhaseOf != nil {
			rows := obs.AuditPlanBytes(run.Plan, obs.NewProfile(res, tr), run.Execs, run.PhaseOf)
			fmt.Fprintf(w, "\n%s", obs.FormatPlanAudit(rows))
		}
	}
	return nil
}

// RealRun is one strict distributed-memory workload for CheckReal.
type RealRun struct {
	// Suite and Name label the records; the overlap-on run's name gets a
	// "+overlap" suffix.
	Suite, Name string
	P, Steps    int
	Eta         []int
	Gamma       string
	// Sim and RT execute the workload under overlap annotation o on the
	// given machine and return its final field.
	Sim func(m *sim.Machine, o plan.Overlap) (*grid.Grid, sim.Result, error)
	RT  func(m *rt.Machine, o plan.Overlap) (*grid.Grid, rt.Result, error)
}

// CheckReal runs w on the virtual-time Origin 2000 and on the real-parallel
// runtime, overlap off and then on, and fails unless every rt field equals
// the simulator's in Float64bits — so a wall-clock record always certifies
// backend equivalence too. It prints one line per rt run to out and returns
// their records: message and byte counts, which are schedule properties and
// reproduce exactly, and the host-dependent wall seconds.
func CheckReal(out io.Writer, w RealRun) ([]obs.BenchRecord, error) {
	var recs []obs.BenchRecord
	for _, o := range []plan.Overlap{{}, {Enabled: true}} {
		want, _, err := w.Sim(nas.Origin2000Machine(w.P), o)
		if err != nil {
			return nil, err
		}
		got, res, err := w.RT(rt.NewMachine(w.P), o)
		if err != nil {
			return nil, err
		}
		if err := sameBits(want, got); err != nil {
			return nil, fmt.Errorf("rt backend diverged from the simulator (overlap=%v): %w", o.Enabled, err)
		}
		name := w.Name
		if o.Enabled {
			name += "+overlap"
		}
		fmt.Fprintf(out, "  %-20s  wall %9.3f ms  %7d messages  %11d bytes  (field bits match sim)\n",
			name, float64(res.Wall.Nanoseconds())/1e6, res.TotalMessages(), res.TotalBytes())
		recs = append(recs, obs.BenchRecord{
			Suite: w.Suite, Name: name,
			P: w.P, Eta: w.Eta, Steps: w.Steps, Gamma: w.Gamma,
			Messages: res.TotalMessages(), Bytes: res.TotalBytes(),
			Extra: map[string]float64{"wall_sec": res.Wall.Seconds()},
		})
	}
	return recs, nil
}

// sameBits reports the first element where two grids differ in raw float64
// bit patterns.
func sameBits(a, b *grid.Grid) error {
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
