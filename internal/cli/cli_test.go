package cli

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/xport"
)

// testCommand is a command with the shared flags and a few of its own.
func testCommand(t *testing.T, args string) (*Command, error) {
	t.Helper()
	c := New("bench", "the run", true)
	c.Int("steps", 2, "timesteps")
	c.String("procs", "", "processor counts")
	c.Bool("calibrate", false, "audit")
	_, err := c.Parse(strings.Fields(args))
	return c, err
}

func TestParseSpec(t *testing.T) {
	c := New("bench", "the run", false)
	spec, err := c.Parse(strings.Fields("-topology bus -coll ring -overlap"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Topology != "bus" || spec.Coll != xport.AlgRing || !spec.Overlap.Enabled {
		t.Errorf("spec %+v", spec)
	}
	for _, args := range []string{"-coll nosuch", "-topology torus", "-topology bus,torus"} {
		if _, err := testCommand(t, args); err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
	if _, err := testCommand(t, "-topology bus,hypercube+contention"); err != nil {
		t.Errorf("topology list rejected: %v", err)
	}
}

// TestFlagsRendering pins the source-line rendering rules: list order, bool
// flags only when true, "?" flags left out when empty or the default.
func TestFlagsRendering(t *testing.T) {
	for _, tc := range []struct{ args, list, want string }{
		{"", "steps procs? topology? coll? overlap calibrate", " -steps 2"},
		{"-topology default -coll auto", "steps topology? coll?", " -steps 2"},
		{"-procs 1,4 -topology bus -coll ring -overlap", "procs? steps topology? coll? overlap", " -procs 1,4 -steps 2 -topology bus -coll ring -overlap"},
		{"-calibrate -steps 1", "calibrate steps", " -calibrate -steps 1"},
		{"-topology crossbar", "topology", " -topology crossbar"},
	} {
		c, err := testCommand(t, tc.args)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Flags(tc.list); got != tc.want {
			t.Errorf("%q rendered %q: got %q, want %q", tc.args, tc.list, got, tc.want)
		}
	}
	c, _ := testCommand(t, "-steps 2")
	src := c.Source("steps", "eta 12×12×12", false)
	if got := src.For("-json"); got != "bench -steps 2 (eta 12×12×12) -json" {
		t.Errorf("source %q", got)
	}
	src.ModeFirst = true
	if got := src.For("-json"); got != "bench -steps 2 -json (eta 12×12×12)" {
		t.Errorf("mode-first source %q", got)
	}
}

// TestUseRejectsUnreadFlags: a flag the mode does not read is an error that
// names the flags and the mode; the telemetry flags are read everywhere.
func TestUseRejectsUnreadFlags(t *testing.T) {
	mode := Mode{Name: "table", Reads: "steps procs json"}
	c, _ := testCommand(t, "-steps 1 -procs 4 -json x -flightrec 8 -pprof-labels")
	if err := c.Use(mode); err != nil {
		t.Errorf("read flags rejected: %v", err)
	}
	c, _ = testCommand(t, "-steps 1 -trace t.json -metrics")
	err := c.Use(mode)
	if err == nil || err.Error() != "table mode does not read -metrics, -trace" {
		t.Errorf("got %v", err)
	}
}

// TestReportWritesArtifacts drives every output of one traced run and reads
// the artifacts back with their sources.
func TestReportWritesArtifacts(t *testing.T) {
	mach := nas.Origin2000Machine(2)
	mach.Trace = &sim.Trace{}
	res, err := mach.Run(func(r *sim.Rank) {
		r.BeginPhase("sweep0")
		r.ComputeFlops(1000)
		if r.ID == 0 {
			r.Send(1, 7, xport.Msg{Bytes: 64})
		} else {
			r.Recv(0, 7)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := Outputs{
		Trace: filepath.Join(dir, "t.json"), TraceJSON: filepath.Join(dir, "tj.json"),
		Profile: filepath.Join(dir, "p.json"), Metrics: true, Blame: true, Timeline: true,
	}
	if !o.Traced() || (Outputs{Plan: "x"}).Traced() {
		t.Error("Traced must hold for the event-reading outputs only")
	}
	var out strings.Builder
	src := Source{Line: "bench -p 2", Grid: "eta 4×4"}
	if err := o.Report(&out, Run{Result: res, Trace: mach.Trace, Source: src}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"(# compute", "trace written", "trace artifact written", "profile written"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	tf, err := obs.ReadTraceJSON(o.TraceJSON)
	if err != nil || tf.Source != "bench -p 2 (eta 4×4) -tracejson" || tf.P != 2 {
		t.Errorf("trace artifact: %v, source %q", err, tf.Source)
	}
	pf, err := obs.ReadProfileJSON(o.Profile)
	if err != nil || pf.Source != "bench -p 2 (eta 4×4) -profile" {
		t.Errorf("profile artifact: %v, source %q", err, pf.Source)
	}
}

// TestCheckReal: matching fields yield one record per overlap setting; a
// single flipped bit fails the check.
func TestCheckReal(t *testing.T) {
	field := func() *grid.Grid {
		g := grid.New(2, 2)
		for i := range g.Data() {
			g.Data()[i] = float64(i) / 3
		}
		return g
	}
	w := RealRun{
		Suite: "x-real", Name: "multi-p02", P: 2, Steps: 1, Eta: []int{2, 2},
		Sim: func(*sim.Machine, plan.Overlap) (*grid.Grid, sim.Result, error) {
			return field(), sim.Result{}, nil
		},
		RT: func(*rt.Machine, plan.Overlap) (*grid.Grid, rt.Result, error) {
			return field(), rt.Result{}, nil
		},
	}
	var out strings.Builder
	recs, err := CheckReal(&out, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Name != "multi-p02" || recs[1].Name != "multi-p02+overlap" || recs[1].Suite != "x-real" {
		t.Errorf("records %+v", recs)
	}
	w.RT = func(_ *rt.Machine, o plan.Overlap) (*grid.Grid, rt.Result, error) {
		g := field()
		if o.Enabled {
			g.Data()[3] = math.Float64frombits(math.Float64bits(g.Data()[3]) ^ 1)
		}
		return g, rt.Result{}, nil
	}
	if _, err := CheckReal(&out, w); err == nil || !strings.Contains(err.Error(), "overlap=true") || !strings.Contains(err.Error(), "element 3") {
		t.Errorf("flipped bit not caught: %v", err)
	}
}
