package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/exp"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/redist"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// goldenPath holds the committed Table 1 speedups, relative to bench/.
const goldenPath = "../BENCH_results.json"

// An op runs one timed operation and returns the check of its output,
// which the caller runs after the clock stops.
type op func() (check func() error)

// A workload is one set of inputs the benchmark times.
type workload struct {
	name, why string
	// setup runs the workload's plan set-up chain once, with spans in rec
	// when it is non-nil, and returns the chain's counts. The last run's
	// plans feed the ops.
	setup func(rec *recorder) (counts, error)
	// prepare computes the correctness reference and runs the untimed
	// warm-up op; it returns the per-layer values the warm-up fixes.
	prepare func() (counts, error)
	// run is the measured op; base, when non-nil, is the p=1 op each run
	// is paired with.
	run, base op
	// traced runs one op with every layer call in a span. It returns each
	// rank's spans and a finish func, run after the clock stops, that
	// returns the op's counts and the error of its check.
	traced func(epoch time.Time, id int) ([][]span, func() (counts, error))
	// probe, when non-nil, measures transport latency samples in µs.
	probe func() ([]float64, error)
	// setupLayers marks workloads whose ops take the set-up chain's plans
	// as input: the traced pass reruns the chain to time its layers.
	setupLayers bool
}

// counts holds per-layer values keyed by metric name.
type counts map[string]float64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// workloads returns the benchmark's workloads for one seed, which fixes
// the ADI diffusion number.
func workloads(seed uint64) []*workload {
	alpha := 0.1 + 0.4*rand.New(rand.NewPCG(seed, 0)).Float64()
	return []*workload{
		rtWorkload("sp-a-p2", "SP class A on rt at p=2, paired with p=1: compute- and memory-bound, a 15 MB working set beyond L2, large carries and halos",
			spApp(nas.ClassA.Eta, 2)),
		rtWorkload("adi-12-p2", "ADI 12^3 x 50 steps on rt at p=2, paired with p=1: latency- and sync-bound, L1-resident fields, tiny carries; launch and gather dominate",
			adiApp(adi.Problem{Eta: []int{12, 12, 12}, Alpha: alpha, Steps: 50})),
		table1Workload(),
		plan360Workload(),
	}
}

// objective is the partition objective of Table 1 (exp.Table1On,
// nas.Speedup).
func objective(eta []int, p int) partition.Objective {
	return partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
}

// chainOut is what one plan set-up chain builds.
type chainOut struct {
	env  *dist.Env
	plan *plan.SweepPlan
}

// chain runs the plan set-up chain for (p, η): search → mapping → verify →
// env → plan compile → validate, one span per step.
func chain(rec *recorder, p int, eta []int, compile func(*dist.Env) (*plan.SweepPlan, error), c counts) (chainOut, error) {
	var st partition.SearchStats
	var res partition.Result
	var m *core.Multipartitioning
	var out chainOut
	var err error
	steps := []struct {
		name string
		f    func()
	}{
		{"partition.search", func() { res, err = partition.OptimalCappedStats(p, len(eta), objective(eta, p), eta, &st) }},
		{"core.map", func() { m, err = core.NewGeneralized(p, res.Gamma) }},
		{"core.verify", func() { err = m.Verify() }},
		{"dist.env", func() { out.env, err = dist.NewEnv(m, eta, dist.DHPF()) }},
		{"plan.compile", func() { out.plan, err = compile(out.env) }},
		{"plan.validate", func() { err = out.plan.Validate() }},
	}
	for _, s := range steps {
		if rec.do(s.name, s.f); err != nil {
			return chainOut{}, fmt.Errorf("%s at p=%d: %w", s.name, p, err)
		}
	}
	c["partition.nodes"] += float64(st.NodesVisited)
	c["plan.phases"] += float64(phaseCount(out.plan))
	c["plan.bytes"] += float64(out.plan.TotalSendBytes())
	return out, nil
}

// phaseCount is the number of phases a plan schedules over all ranks,
// dimensions and directions.
func phaseCount(pl *plan.SweepPlan) int {
	n := 0
	for _, passes := range pl.Passes {
		for _, pass := range passes {
			n += len(pass.Phases)
		}
	}
	return n
}

// rtApp is an application the rt workloads run at p=2 and p=1.
type rtApp struct {
	eta    []int
	steps  int
	solver sweep.Solver
	halo   int // stencil halo depth; 0 exchanges no halos
	real   func(env *dist.Env, m *rt.Machine, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error)
	sim    func(env *dist.Env, m *sim.Machine) (*grid.Grid, sim.Result, error)
	serial func() *grid.Grid
	body   func(env *dist.Env, pl *plan.SweepPlan) tracedBody
}

func spApp(eta []int, steps int) rtApp {
	return rtApp{
		eta: eta, steps: steps, solver: sweep.NewPenta(), halo: spHaloDepth,
		real: func(env *dist.Env, m *rt.Machine, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
			return dmem.RunSPReal(env, m, steps, plan.Overlap{}, pl)
		},
		sim: func(env *dist.Env, m *sim.Machine) (*grid.Grid, sim.Result, error) {
			return dmem.RunSPOverlap(env, m, steps, plan.Overlap{})
		},
		serial: func() *grid.Grid {
			u := nas.InitialState(eta)
			nas.SerialSolve(u, steps)
			return u
		},
		body: func(env *dist.Env, pl *plan.SweepPlan) tracedBody { return spBody(env, pl, steps) },
	}
}

func adiApp(pb adi.Problem) rtApp {
	return rtApp{
		eta: pb.Eta, steps: pb.Steps, solver: sweep.Tridiag{},
		real: func(env *dist.Env, m *rt.Machine, pl *plan.SweepPlan) (*grid.Grid, rt.Result, error) {
			return dmem.RunADIReal(pb, env, m, plan.Overlap{}, pl)
		},
		sim: func(env *dist.Env, m *sim.Machine) (*grid.Grid, sim.Result, error) {
			return dmem.RunADIOverlap(pb, env, m, plan.Overlap{})
		},
		serial: func() *grid.Grid {
			u := pb.InitialCondition()
			pb.SerialSolve(u)
			return u
		},
		body: func(env *dist.Env, pl *plan.SweepPlan) tracedBody { return adiBody(pb, env, pl) },
	}
}

// rtConfig is one processor count of an rt workload.
type rtConfig struct {
	p    int
	out  chainOut
	mach *rt.Machine
	ref  *grid.Grid // simulator result, checked against the serial solve
}

// rtWorkload times app on the real-parallel runtime at p=2, each op paired
// with one at p=1.
func rtWorkload(name, why string, app rtApp) *workload {
	cfgs := []*rtConfig{{p: 2, mach: rt.NewMachine(2)}, {p: 1, mach: rt.NewMachine(1)}}
	p2 := cfgs[0]
	var msgs, bytes int
	runOn := func(c *rtConfig) op {
		return func() func() error {
			g, _, err := app.real(c.out.env, c.mach, c.out.plan)
			return func() error {
				if err != nil {
					return err
				}
				return sameBits(c.ref, g)
			}
		}
	}
	w := &workload{name: name, why: why, run: runOn(p2), base: runOn(cfgs[1]), setupLayers: true}
	w.setup = func(rec *recorder) (counts, error) {
		c := counts{}
		for _, cfg := range cfgs {
			out, err := chain(rec, cfg.p, app.eta, func(env *dist.Env) (*plan.SweepPlan, error) {
				return dmem.CompileSweepPlan(env, app.solver)
			}, c)
			if err != nil {
				return nil, err
			}
			cfg.out = out
		}
		return c, nil
	}
	w.prepare = func() (counts, error) {
		var err error
		if msgs, bytes, err = declaredTraffic(p2.out, app.halo, app.steps); err != nil {
			return nil, err
		}
		serial := app.serial()
		for _, cfg := range cfgs {
			ref, _, err := app.sim(cfg.out.env, nas.Origin2000Machine(cfg.p))
			if err != nil {
				return nil, fmt.Errorf("simulator reference at p=%d: %w", cfg.p, err)
			}
			if d := grid.MaxAbsDiff(ref, serial); d > 1e-9 {
				return nil, fmt.Errorf("simulator reference at p=%d differs from the serial solve by %g", cfg.p, d)
			}
			cfg.ref = ref
			g, res, err := app.real(cfg.out.env, cfg.mach, cfg.out.plan)
			if err == nil {
				err = sameBits(ref, g)
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up at p=%d: %w", cfg.p, err)
			}
			if cfg == p2 && (res.TotalMessages() != msgs || res.TotalBytes() != bytes) {
				return nil, fmt.Errorf("rt moved %d messages and %d bytes; the plans declare %d and %d",
					res.TotalMessages(), res.TotalBytes(), msgs, bytes)
			}
		}
		return counts{"rt.msgs_per_op": float64(msgs), "rt.bytes_per_op": float64(bytes)}, nil
	}
	w.traced = func(epoch time.Time, id int) ([][]span, func() (counts, error)) {
		g, spans, res, tmsgs, tbytes, err := runTraced(p2.mach, app.body(p2.out.env, p2.out.plan), epoch, id)
		return spans, func() (counts, error) {
			elems := 0
			for dim := range app.eta {
				elems += p2.out.plan.Elements(dim)
			}
			solve := int64(0)
			for _, s := range spans {
				solve += selfTimes(s)["sweep.solve"]
			}
			c := counts{"sweep.ns_per_elem": float64(solve) / float64(app.steps*elems)}
			if err != nil {
				return c, err
			}
			if tmsgs != res.TotalMessages() || tbytes != res.TotalBytes() || tmsgs != msgs || tbytes != bytes {
				return c, fmt.Errorf("traced op counted %d messages and %d bytes; rt reports %d and %d, the plans declare %d and %d",
					tmsgs, tbytes, res.TotalMessages(), res.TotalBytes(), msgs, bytes)
			}
			return c, sameBits(p2.ref, g)
		}
	}
	w.probe = func() ([]float64, error) { return pingPong(1000) }
	return w
}

// runTraced runs body on m with every rank's transport wrapped, and
// returns the gathered field, each rank's spans, rt's traffic and the
// wrappers' message and byte totals.
func runTraced(m *rt.Machine, body tracedBody, epoch time.Time, id int) (g *grid.Grid, spans [][]span, res rt.Result, msgs, bytes int, err error) {
	ts := make([]*tracedTransport, m.P)
	res, err = m.Run(func(r *rt.Rank) {
		ts[r.ID] = &tracedTransport{Transport: r, rec: newRecorder(epoch, id, r.ID)}
		body(ts[r.ID], &g)
	})
	spans = make([][]span, m.P)
	for q, t := range ts {
		if t != nil {
			spans[q] = t.rec.spans
			msgs += t.msgs
			bytes += t.bytes
		}
	}
	return g, spans, res, msgs, bytes, err
}

// declaredTraffic returns the messages and bytes one op's schedules
// declare: per step the halo exchange and every sweep carry, then the
// gather of each non-root rank's interior to rank 0.
func declaredTraffic(c chainOut, halo, steps int) (msgs, bytes int, err error) {
	pl := c.plan
	for q := 0; q < pl.P; q++ {
		for _, pass := range pl.Passes[q] {
			for _, ph := range pass.Phases {
				if ph.SendTo >= 0 && pass.CarryLen > 0 {
					msgs++
					bytes += ph.SendBytes
				}
			}
		}
	}
	if halo > 0 && pl.P > 1 {
		hp, err := redist.CompileHalo(redist.HaloSpec{M: c.env.M, Eta: c.env.Eta, Depth: halo})
		if err != nil {
			return 0, 0, err
		}
		msgs += hp.WireMessages()
		bytes += hp.WireBytes()
	}
	msgs *= steps
	bytes *= steps
	for q := 1; q < pl.P; q++ {
		msgs++
		bytes += 8 * c.env.OwnedElements(q)
	}
	return msgs, bytes, nil
}

// pingPong returns one-way latency samples in µs of a one-float message
// between two rt ranks, each over n round trips.
func pingPong(n int) ([]float64, error) {
	m := rt.NewMachine(2)
	var out []float64
	for i := 0; i < 20; i++ {
		var took time.Duration
		_, err := m.Run(func(r *rt.Rank) {
			if r.ID == 1 {
				for k := 0; k < n; k++ {
					r.Send(0, 0, r.Recv(0, 0))
				}
				return
			}
			msg := xport.Msg{Payload: []float64{0}}
			start := time.Now()
			for k := 0; k < n; k++ {
				r.Send(1, 0, msg)
				msg = r.Recv(1, 0)
			}
			took = time.Since(start)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, took.Seconds()*1e6/float64(2*n))
	}
	return out, nil
}

// sameBits reports the first element where got differs from want in its
// Float64bits.
func sameBits(want, got *grid.Grid) error {
	if got == nil {
		return errors.New("no gathered field")
	}
	a, b := want.Data(), got.Data()
	if len(a) != len(b) {
		return fmt.Errorf("field has %d elements, reference %d", len(b), len(a))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("element %d is %#x, reference %#x", i, math.Float64bits(b[i]), math.Float64bits(a[i]))
		}
	}
	return nil
}

// table1Workload regenerates the paper's Table 1 for class B in virtual
// time, model only.
func table1Workload() *workload {
	eta := nas.ClassB.Eta
	const steps = 2
	var golden map[string]float64
	check := func(rows []exp.Table1Row, err error) error {
		if err != nil {
			return err
		}
		return checkTable1(rows, golden)
	}
	w := &workload{
		name: "table1-b-model",
		why:  "Table 1 for class B in virtual time, model only: search, mapping, plan compile and the sim engine under the same plan executors, no rt",
		run: func() func() error {
			rows, err := exp.Table1(eta, steps)
			return func() error { return check(rows, err) }
		},
	}
	w.setup = func(rec *recorder) (counts, error) {
		c := counts{}
		for _, p := range exp.Table1Procs {
			if _, err := chain(rec, p, eta, nas.CompilePlan, c); err != nil {
				return nil, err
			}
		}
		return c, nil
	}
	w.prepare = func() (counts, error) {
		var err error
		if golden, err = loadTable1Golden(goldenPath); err != nil {
			return nil, err
		}
		return nil, w.run()()
	}
	w.traced = func(epoch time.Time, id int) ([][]span, func() (counts, error)) {
		rec := newRecorder(epoch, id, 0)
		rows, c, err := table1Traced(rec, eta, steps)
		return [][]span{rec.spans}, func() (counts, error) { return c, check(rows, err) }
	}
	return w
}

// loadTable1Golden reads the committed sp-table1-{hand,dhpf} speedups,
// keyed "suite/pNN".
func loadTable1Golden(path string) (map[string]float64, error) {
	bf, err := obs.ReadBenchJSON(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, r := range bf.Records {
		if r.Suite == "sp-table1-hand" || r.Suite == "sp-table1-dhpf" {
			out[r.Suite+"/"+r.Name] = r.Speedup
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s has no sp-table1 rows", path)
	}
	return out, nil
}

// checkTable1 requires every speedup to be bit-equal to its golden row and
// a blank cell exactly where no golden row exists.
func checkTable1(rows []exp.Table1Row, golden map[string]float64) error {
	if len(rows) != len(exp.Table1Procs) {
		return fmt.Errorf("%d Table 1 rows, want %d", len(rows), len(exp.Table1Procs))
	}
	for _, r := range rows {
		for _, cell := range []struct {
			suite string
			got   float64
		}{{"sp-table1-hand", r.Hand}, {"sp-table1-dhpf", r.DHPF}} {
			key := fmt.Sprintf("%s/p%02d", cell.suite, r.P)
			want, ok := golden[key]
			switch {
			case !ok && !math.IsNaN(cell.got):
				return fmt.Errorf("%s: speedup %v has no golden row", key, cell.got)
			case ok && math.Float64bits(want) != math.Float64bits(cell.got):
				return fmt.Errorf("%s: speedup %v, golden %v", key, cell.got, want)
			}
		}
	}
	return nil
}

// table1Traced is exp.Table1 unrolled into its public calls (nas.Speedup's
// steps included), one span per call.
func table1Traced(rec *recorder, eta []int, steps int) ([]exp.Table1Row, counts, error) {
	c := counts{}
	var serial float64
	var err error
	if rec.do("sim.run", func() { serial, err = nas.SerialTime(nas.Origin2000Machine(1), eta, steps) }); err != nil {
		return nil, nil, err
	}
	rows := make([]exp.Table1Row, 0, len(exp.Table1Procs))
	for _, p := range exp.Table1Procs {
		row := exp.Table1Row{P: p, Hand: math.NaN(), DHPF: math.NaN(), DiffPct: math.NaN()}
		mach, err := nas.Origin2000MachineOn("", p)
		if err != nil {
			return nil, nil, err
		}
		var m *core.Multipartitioning
		// The hand-coded variant runs on perfect squares only.
		if rec.do("core.map", func() { m, err = core.NewDiagonal(p, len(eta)) }); err == nil {
			if row.Hand, err = speedup(rec, m, dist.HandCoded(), mach, eta, steps, serial, c); err != nil {
				return nil, nil, err
			}
		}
		var st partition.SearchStats
		var res partition.Result
		if rec.do("partition.search", func() { res, err = partition.OptimalCappedStats(p, len(eta), objective(eta, p), eta, &st) }); err != nil {
			return nil, nil, err
		}
		c["partition.nodes"] += float64(st.NodesVisited)
		if rec.do("core.map", func() { m, err = core.NewGeneralized(p, res.Gamma) }); err != nil {
			return nil, nil, err
		}
		if row.DHPF, err = speedup(rec, m, dist.DHPF(), mach, eta, steps, serial, c); err != nil {
			return nil, nil, err
		}
		if !math.IsNaN(row.Hand) {
			row.DiffPct = (row.Hand - row.DHPF) / row.Hand * 100
		}
		// exp.Table1On searches again for the partitioning column.
		if rec.do("partition.search", func() { res, err = partition.OptimalCapped(p, len(eta), objective(eta, p), eta) }); err == nil {
			row.GammaStr = partition.Describe(res.Gamma)
		}
		rows = append(rows, row)
	}
	return rows, c, nil
}

// speedup is nas.Speedup after the mapping: env, plan compile and the
// model-only simulator run on a machine rebuilt for m's p.
func speedup(rec *recorder, m *core.Multipartitioning, ov dist.OverheadModel, mach *sim.Machine, eta []int, steps int, serial float64, c counts) (float64, error) {
	p := m.P()
	var env *dist.Env
	var pl *plan.SweepPlan
	var res sim.Result
	var err error
	if rec.do("dist.env", func() { env, err = dist.NewEnv(m, eta, ov) }); err != nil {
		return 0, err
	}
	if rec.do("plan.compile", func() { pl, err = nas.CompilePlan(env) }); err != nil {
		return 0, err
	}
	c["plan.phases"] += float64(phaseCount(pl))
	c["plan.bytes"] += float64(pl.TotalSendBytes())
	cpu := mach.CPU
	cpu.WorkingSetBytes = nas.WorkingSetBytes(eta, p)
	pm := sim.NewMachine(p, mach.Net, cpu)
	pm.Coll = mach.Coll
	if mach.Fabric != nil {
		if pm.Fabric, err = sim.NewFabric(mach.Fabric.Name(), mach.Net, p); err != nil {
			return 0, err
		}
	}
	if rec.do("sim.run", func() { res, err = nas.RunPlanned(env, pm, steps, nil, pl) }); err != nil {
		return 0, err
	}
	c["sim.msgs"] += float64(res.TotalMessages())
	return serial / res.Makespan, nil
}

// plan360Workload builds the class B schedule at p=360 (γ 12×30×60, 21 600
// tiles) from scratch; no solve runs.
func plan360Workload() *workload {
	const p = 360
	eta := nas.ClassB.Eta
	var ref *plan.SweepPlan
	var refFP string
	w := &workload{
		name: "plan-p360",
		why:  "class B plan set-up at p=360 (gamma 12x30x60, 21600 tiles): search, mapping, verify, compile and validate at scale, no solve",
		run: func() func() error {
			out, err := chain(nil, p, eta, nas.CompilePlan, counts{})
			return func() error {
				if err != nil {
					return err
				}
				return samePlan(ref, out.plan)
			}
		},
	}
	w.setup = func(rec *recorder) (counts, error) {
		c := counts{}
		out, err := chain(rec, p, eta, nas.CompilePlan, c)
		ref = out.plan
		return c, err
	}
	w.prepare = func() (counts, error) {
		refFP = ref.Fingerprint()
		return nil, w.run()()
	}
	w.traced = func(epoch time.Time, id int) ([][]span, func() (counts, error)) {
		rec := newRecorder(epoch, id, 0)
		c := counts{}
		out, err := chain(rec, p, eta, nas.CompilePlan, c)
		return [][]span{rec.spans}, func() (counts, error) {
			if err != nil {
				return c, err
			}
			if out.plan.Fingerprint() != refFP {
				return c, errors.New("traced plan's fingerprint differs from the reference plan's")
			}
			return c, nil
		}
	}
	return w
}

// samePlan compares every field plan.SweepPlan.Fingerprint renders, without
// building the 14 MB string it renders for p=360 on every op.
func samePlan(a, b *plan.SweepPlan) error {
	same := a.Kind == b.Kind && a.P == b.P && slices.Equal(a.Eta, b.Eta) && slices.Equal(a.Gamma, b.Gamma) &&
		a.Dim == b.Dim && a.Grain == b.Grain && a.Solver == b.Solver &&
		a.ForwardCarry == b.ForwardCarry && a.BackwardCarry == b.BackwardCarry &&
		a.Tags == b.Tags && a.Overlap == b.Overlap && len(a.Passes) == len(b.Passes)
	for q := 0; same && q < len(a.Passes); q++ {
		same = len(a.Passes[q]) == len(b.Passes[q])
		for k := 0; same && k < len(a.Passes[q]); k++ {
			pa, pb := &a.Passes[q][k], &b.Passes[q][k]
			same = pa.Dim == pb.Dim && pa.Backward == pb.Backward && pa.CarryLen == pb.CarryLen && len(pa.Phases) == len(pb.Phases)
			for i := 0; same && i < len(pa.Phases); i++ {
				ha, hb := &pa.Phases[i], &pb.Phases[i]
				ta, tb := ha.Tiles, hb.Tiles
				same = equalPhase(ha, hb) && len(ta) == len(tb)
				for t := 0; same && t < len(ta); t++ {
					same = slices.Equal(ta[t].Coord, tb[t].Coord) && slices.Equal(ta[t].Rect.Lo, tb[t].Rect.Lo) &&
						slices.Equal(ta[t].Rect.Hi, tb[t].Rect.Hi) && ta[t].LineOff == tb[t].LineOff &&
						ta[t].Lines == tb[t].Lines && ta[t].ChunkLen == tb[t].ChunkLen
				}
			}
		}
	}
	if !same {
		return errors.New("compiled plan differs from the reference plan")
	}
	return nil
}

// equalPhase compares every field of two phases except Tiles.
func equalPhase(a, b *plan.Phase) bool {
	return a.Slab == b.Slab && a.RecvFrom == b.RecvFrom && a.SendTo == b.SendTo &&
		a.RecvTag == b.RecvTag && a.SendTag == b.SendTag && a.RecvBytes == b.RecvBytes &&
		a.SendBytes == b.SendBytes && a.Lines == b.Lines && a.Boundary == b.Boundary &&
		a.InteriorRecvTag == b.InteriorRecvTag && a.InteriorSendTag == b.InteriorSendTag
}
