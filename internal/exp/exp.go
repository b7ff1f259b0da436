// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §3) and formats the rows
// the way the paper reports them. The cmd/ tools and the root bench suite
// are thin wrappers around this package, and EXPERIMENTS.md records the
// paper-vs-measured comparison produced here.
package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/numutil"
	"genmp/internal/obs"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/xport"
)

// Table1Procs is the processor-count column of the paper's Table 1.
var Table1Procs = []int{1, 2, 4, 6, 8, 9, 12, 16, 18, 20, 24, 25, 32, 36, 45, 49, 50, 64, 72, 81}

// PaperTable1 holds the published speedups (hand-coded, dHPF); a NaN
// hand-coded entry marks the processor counts the hand-coded version cannot
// run on (not perfect squares).
var PaperTable1 = map[int][2]float64{
	1:  {0.95, 0.91},
	2:  {nan, 1.43},
	4:  {2.96, 2.93},
	6:  {nan, 5.06},
	8:  {nan, 7.57},
	9:  {7.95, 8.04},
	12: {nan, 11.80},
	16: {16.64, 16.25},
	18: {nan, 18.54},
	20: {nan, 19.03},
	24: {nan, 22.25},
	25: {27.44, 24.32},
	32: {nan, 32.22},
	36: {38.46, 38.83},
	45: {nan, 39.78},
	49: {48.37, 51.49},
	50: {nan, 47.35},
	64: {76.74, 59.84},
	72: {nan, 66.96},
	81: {81.40, 70.63},
}

var nan = math.NaN()

// Table1Row is one line of the Table 1 reproduction.
type Table1Row struct {
	P        int
	Hand     float64 // NaN when the hand-coded version cannot run
	DHPF     float64
	DiffPct  float64 // (hand − dhpf)/hand·100, NaN when no hand-coded entry
	GammaStr string  // the generalized partitioning the dHPF variant used
}

// Table1 regenerates the paper's Table 1 on the virtual Origin 2000:
// NAS SP speedups for the hand-coded diagonal variant (perfect squares
// only) and the dHPF generalized variant (every processor count).
func Table1(eta []int, steps int) ([]Table1Row, error) {
	return Table1On("", eta, steps)
}

// Table1On is Table1 with the Origin interconnect replaced by the named
// topology (see sim.FabricNames; "" keeps the default crossbar model and
// reproduces Table1 exactly). The serial baseline is topology-independent.
func Table1On(topology string, eta []int, steps int) ([]Table1Row, error) {
	serial, err := nas.SerialTime(nas.Origin2000Machine(1), eta, steps)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(Table1Procs))
	for _, p := range Table1Procs {
		row := Table1Row{P: p, Hand: math.NaN(), DHPF: math.NaN(), DiffPct: math.NaN()}
		mach, err := nas.Origin2000MachineOn(topology, p)
		if err != nil {
			return nil, err
		}
		if s, err := nas.Speedup(nas.HandCodedDiagonal, p, mach, eta, steps, serial); err == nil {
			row.Hand = s
		}
		// A blank dHPF cell means no elementary partitioning fits the
		// domain extents at this p (only possible for small classes).
		if s, err := nas.Speedup(nas.DHPFGeneralized, p, mach, eta, steps, serial); err == nil {
			row.DHPF = s
		}
		if !math.IsNaN(row.Hand) && !math.IsNaN(row.DHPF) {
			row.DiffPct = (row.Hand - row.DHPF) / row.Hand * 100
		}
		obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
		if res, err := partition.OptimalCapped(p, len(eta), obj, eta); err == nil {
			row.GammaStr = partition.Describe(res.Gamma)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout, with the measured
// partitioning and the published numbers alongside.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s  %10s  %8s  %8s  %12s  %18s\n",
		"# CPUs", "hand-coded", "dHPF", "% diff.", "partitioning", "paper (hand/dHPF)")
	for _, r := range rows {
		hand := "      "
		if !math.IsNaN(r.Hand) {
			hand = fmt.Sprintf("%10.2f", r.Hand)
		}
		dhpf := "        "
		if !math.IsNaN(r.DHPF) {
			dhpf = fmt.Sprintf("%8.2f", r.DHPF)
		}
		diff := "        "
		if !math.IsNaN(r.DiffPct) {
			diff = fmt.Sprintf("%8.2f", r.DiffPct)
		}
		paper := PaperTable1[r.P]
		paperStr := fmt.Sprintf("    — /%6.2f", paper[1])
		if !math.IsNaN(paper[0]) {
			paperStr = fmt.Sprintf("%6.2f/%6.2f", paper[0], paper[1])
		}
		fmt.Fprintf(&sb, "%6d  %10s  %8s  %8s  %12s  %18s\n",
			r.P, hand, dhpf, diff, r.GammaStr, paperStr)
	}
	return sb.String()
}

// Figure1 returns the paper's Figure 1 rendering: the diagonal 3-D
// multipartitioning of 4×4×4 tiles on 16 processors, slice by slice.
func Figure1() (string, error) {
	m, err := core.NewDiagonal(16, 3)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := m.RenderSlices(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// ElementaryInventory lists the elementary partitionings of p over d
// dimensions as sorted "a×b×c" patterns with multiplicities — the paper's
// Section 3.2 examples.
func ElementaryInventory(p, d int) []string {
	seen := map[string]int{}
	for _, g := range partition.Elementary(p, d) {
		seen[partition.Describe(numutil.SortedCopy(g))]++
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s (×%d orientations)", k, seen[k]))
	}
	return out
}

// GrowthRow is one point of the enumeration-complexity study.
type GrowthRow struct {
	P      int
	Counts []int // per dimension in Dims
}

// EnumerationGrowth counts elementary partitionings for every p ≤ maxP over
// each of the given dimensions — the empirical counterpart of the paper's
// O((d(d−1)/2)^((1+o(1))·log p/log log p)) bound.
func EnumerationGrowth(maxP int, dims []int) []GrowthRow {
	rows := make([]GrowthRow, 0, maxP)
	for p := 1; p <= maxP; p++ {
		counts := make([]int, len(dims))
		for i, d := range dims {
			counts[i] = partition.CountElementary(p, d)
		}
		rows = append(rows, GrowthRow{P: p, Counts: counts})
	}
	return rows
}

// SkewedRow is one aspect-ratio point of the Section 3.1 remark experiment.
type SkewedRow struct {
	Ratio  float64 // η₁/η₃ = η₂/η₃
	Gamma  []int
	Cost2D float64 // cost of (4,4,1)
	Cost3D float64 // cost of (2,2,2)
}

// SkewedDomain sweeps the domain aspect ratio for p = 4 and reports where
// the optimal partitioning crosses from the classical 2×2×2 to 4×4×1 — the
// paper's remark says the crossover is at ratio 4.
func SkewedDomain(base int, ratios []float64) ([]SkewedRow, error) {
	rows := make([]SkewedRow, 0, len(ratios))
	for _, ratio := range ratios {
		eta := []int{int(float64(base) * ratio), int(float64(base) * ratio), base}
		obj := partition.VolumeObjective(eta)
		res, err := partition.Optimal(4, 3, obj)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SkewedRow{
			Ratio:  ratio,
			Gamma:  res.Gamma,
			Cost2D: obj.Cost([]int{4, 4, 1}),
			Cost3D: obj.Cost([]int{2, 2, 2}),
		})
	}
	return rows, nil
}

// AdvisorResult reproduces the Section 6 observation for class B.
type AdvisorResult struct {
	Time49, Time50 float64 // modeled per-round times
	Advice         cost.Advice
}

// CompactAdvisor compares 7×7×7 on 49 against 5×10×10 on 50 with the
// simulated SP and runs the advisor.
func CompactAdvisor(eta []int, steps int) (AdvisorResult, error) {
	timeOf := func(p int, gamma []int) float64 {
		m, err := core.NewGeneralized(p, gamma)
		if err != nil {
			return math.Inf(1)
		}
		env, err := distEnv(m, eta)
		if err != nil {
			return math.Inf(1)
		}
		res, err := nas.Run(env, nas.Origin2000Machine(p), steps, nil)
		if err != nil {
			return math.Inf(1)
		}
		return res.Makespan
	}
	out := AdvisorResult{
		Time49: timeOf(49, []int{7, 7, 7}),
		Time50: timeOf(50, []int{5, 10, 10}),
	}
	model := cost.Origin2000()
	adv, err := model.Advise(50, eta, timeOf)
	if err != nil {
		return out, err
	}
	out.Advice = adv
	return out, nil
}

func distEnv(m *core.Multipartitioning, eta []int) (*dist.Env, error) {
	return dist.NewEnv(m, eta, dist.DHPF())
}

// StrictParity compares the strict distributed-memory SP run against the
// shared-storage data-mode run on the same configuration: the gathered
// strict state must equal the shared-mode state elementwise, and the strict
// run must move at least the modeled bytes (it additionally gathers the
// final state to rank 0).
type StrictParity struct {
	MaxDiff     float64
	StrictBytes int
	SharedBytes int
	StrictTime  float64
	SharedTime  float64
}

// RunStrictParity executes both modes for p processors over eta.
func RunStrictParity(p int, gamma, eta []int, steps int) (StrictParity, error) {
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		return StrictParity{}, err
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		return StrictParity{}, err
	}
	u := nas.InitialState(eta)
	resShared, err := nas.Run(env, nas.Origin2000Machine(p), steps, u)
	if err != nil {
		return StrictParity{}, err
	}
	got, resStrict, err := dmem.RunSP(env, nas.Origin2000Machine(p), steps)
	if err != nil {
		return StrictParity{}, err
	}
	return StrictParity{
		MaxDiff:     grid.MaxAbsDiff(u, got),
		StrictBytes: resStrict.TotalBytes(),
		SharedBytes: resShared.TotalBytes(),
		StrictTime:  resStrict.Makespan,
		SharedTime:  resShared.Makespan,
	}, nil
}

// StrategyRow is one strategy's virtual time in the ADI comparison. Key is
// the stable machine-readable identifier (bench record name); Strategy is
// the human-readable label and may carry run parameters like the chosen
// partitioning or grain.
type StrategyRow struct {
	Key      string
	Strategy string
	Gamma    string // partitioning used, when the strategy picks one
	Time     float64
	Bytes    int
	Messages int
}

// StrategyComparison runs the van der Wijngaart-style comparison: the same
// ADI integration under multipartitioning, static block with wavefront
// sweeps, and dynamic block with transposes, on the virtual machine
// (model-only). Requires a p with a valid 3-D multipartitioning.
func StrategyComparison(p int, eta []int, steps, grain int) ([]StrategyRow, error) {
	return StrategyComparisonOn("", xport.AlgAuto, p, eta, steps, grain)
}

// StrategyComparisonOn is StrategyComparison on the named interconnect
// topology ("" keeps the default crossbar and reproduces StrategyComparison
// exactly). Each strategy run gets its own fabric instance, so contention
// state never leaks between runs.
func StrategyComparisonOn(topology string, coll xport.Alg, p int, eta []int, steps, grain int) ([]StrategyRow, error) {
	return StrategyComparisonOverlap(topology, coll, p, eta, steps, grain, plan.Overlap{})
}

// StrategyComparisonOverlap is StrategyComparisonOn with the boundary-first
// overlap annotation applied to the strategies that sweep (multipartition
// and block-wavefront; the transpose strategy has no carries to overlap).
func StrategyComparisonOverlap(topology string, coll xport.Alg, p int, eta []int, steps, grain int, o plan.Overlap) ([]StrategyRow, error) {
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: steps}
	var rows []StrategyRow

	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, len(eta), obj)
	if err != nil {
		return nil, err
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		return nil, err
	}
	machM, err := strategyMachineOn(topology, coll, p)
	if err != nil {
		return nil, err
	}
	resM, err := adi.Run(pb, nil, adi.Config{
		Machine: machM, Strategy: adi.Multipartition, Env: env, ModelOnly: true, Overlap: o})
	if err != nil {
		return nil, err
	}
	rows = append(rows, StrategyRow{
		Key:      "multipartition",
		Strategy: fmt.Sprintf("multipartition %s", partition.Describe(m.Gamma())),
		Gamma:    partition.Describe(m.Gamma()),
		Time:     resM.Makespan, Bytes: resM.TotalBytes(), Messages: resM.TotalMessages()})

	b, err := dist.NewBlock(p, eta, 0, dist.HandCoded())
	if err != nil {
		return nil, err
	}
	machW, err := strategyMachineOn(topology, coll, p)
	if err != nil {
		return nil, err
	}
	resW, err := adi.Run(pb, nil, adi.Config{
		Machine: machW, Strategy: adi.BlockWavefront, Block: b, Grain: grain, ModelOnly: true, Overlap: o})
	if err != nil {
		return nil, err
	}
	rows = append(rows, StrategyRow{
		Key:      "block-wavefront",
		Strategy: fmt.Sprintf("block-wavefront (grain %d)", grain),
		Time:     resW.Makespan, Bytes: resW.TotalBytes(), Messages: resW.TotalMessages()})

	machT, err := strategyMachineOn(topology, coll, p)
	if err != nil {
		return nil, err
	}
	resT, err := adi.Run(pb, nil, adi.Config{
		Machine: machT, Strategy: adi.BlockTranspose, Block: b, ModelOnly: true})
	if err != nil {
		return nil, err
	}
	rows = append(rows, StrategyRow{
		Key:      "block-transpose",
		Strategy: "block-transpose",
		Time:     resT.Makespan, Bytes: resT.TotalBytes(), Messages: resT.TotalMessages()})
	return rows, nil
}

// StrategyBenchRecords runs the strategy comparison and converts it into
// BENCH_*.json records (suite "adi-strategy", one record per strategy key)
// so sweepbench can contribute to the committed bench trajectory and the
// CI perf gate.
func StrategyBenchRecords(p int, eta []int, steps, grain int) ([]obs.BenchRecord, error) {
	return StrategyBenchRecordsOn("", xport.AlgAuto, p, eta, steps, grain)
}

// StrategyBenchRecordsOn produces the strategy bench records on the named
// topology. Non-default topologies get their own suite, "adi-strategy@<t>",
// so their records sit alongside the default ones without colliding in the
// zero-tolerance perf gate.
func StrategyBenchRecordsOn(topology string, coll xport.Alg, p int, eta []int, steps, grain int) ([]obs.BenchRecord, error) {
	return StrategyBenchRecordsOverlap(topology, coll, p, eta, steps, grain, plan.Overlap{})
}

// StrategyBenchRecordsOverlap is StrategyBenchRecordsOn with the overlap
// annotation; overlap-on records get their own suite ("adi-strategy+overlap")
// so they never collide with the committed overlap-off baselines in the
// zero-tolerance perf gate.
func StrategyBenchRecordsOverlap(topology string, coll xport.Alg, p int, eta []int, steps, grain int, o plan.Overlap) ([]obs.BenchRecord, error) {
	rows, err := StrategyComparisonOverlap(topology, coll, p, eta, steps, grain, o)
	if err != nil {
		return nil, err
	}
	suite := "adi-strategy"
	if topology != "" && topology != "default" {
		suite += "@" + topology
	}
	if o.Enabled {
		suite += "+overlap"
	}
	recs := make([]obs.BenchRecord, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, obs.BenchRecord{
			Suite: suite, Name: r.Key,
			P: p, Eta: eta, Steps: steps, Gamma: r.Gamma,
			Makespan: r.Time, Messages: r.Messages, Bytes: r.Bytes,
		})
	}
	return recs, nil
}

// TopologyRow is one (topology, strategy) cell of the topology comparison.
type TopologyRow struct {
	Topology string
	Rows     []StrategyRow
}

// TopologyComparison runs the ADI strategy comparison on every named
// topology — the experiment behind the EXPERIMENTS.md table asking which
// distribution strategy wins on a crossbar, a bus, and a hypercube with
// link contention.
func TopologyComparison(topologies []string, coll xport.Alg, p int, eta []int, steps, grain int) ([]TopologyRow, error) {
	out := make([]TopologyRow, 0, len(topologies))
	for _, topo := range topologies {
		rows, err := StrategyComparisonOn(topo, coll, p, eta, steps, grain)
		if err != nil {
			return nil, fmt.Errorf("exp: topology %q: %w", topo, err)
		}
		out = append(out, TopologyRow{Topology: topo, Rows: rows})
	}
	return out, nil
}

// FormatTopologyComparison renders the topology × strategy grid with the
// per-topology winner marked.
func FormatTopologyComparison(rows []TopologyRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s  %-22s  %12s  %12s  %10s\n",
		"topology", "strategy", "time", "bytes", "messages")
	for _, tr := range rows {
		best := 0
		for i, r := range tr.Rows {
			if r.Time < tr.Rows[best].Time {
				best = i
			}
		}
		name := tr.Topology
		if name == "" {
			name = "crossbar (default)"
		}
		for i, r := range tr.Rows {
			mark := "  "
			if i == best {
				mark = " *"
			}
			fmt.Fprintf(&sb, "%-22s  %-22s  %11.4fs%s  %12d  %10d\n",
				name, r.Key, r.Time, mark, r.Bytes, r.Messages)
			name = ""
		}
	}
	return sb.String()
}

// machine for strategy comparisons.
func strategyMachine(p int) *sim.Machine { return nas.Origin2000Machine(p) }

// strategyMachineOn builds the comparison machine on the named topology
// with the given default collective algorithm.
func strategyMachineOn(topology string, coll xport.Alg, p int) (*sim.Machine, error) {
	mach, err := nas.Origin2000MachineOn(topology, p)
	if err != nil {
		return nil, err
	}
	mach.Coll = coll
	return mach, nil
}

// BTvsSPRow compares the two NAS-style pseudo-applications on the same
// multipartitioning: BT's block tridiagonal sweeps ship fatter carries and
// do more flops per point, changing the compute/communication balance
// without changing the partitioning theory at all.
type BTvsSPRow struct {
	App      string
	Time     float64
	Bytes    int
	Messages int
}

// BTvsSP runs both applications (model-only) on the optimal generalized
// multipartitioning for p over eta.
func BTvsSP(p int, eta []int, steps int) ([]BTvsSPRow, error) {
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, len(eta), obj)
	if err != nil {
		return nil, err
	}
	env, err := distEnv(m, eta)
	if err != nil {
		return nil, err
	}
	resSP, err := nas.Run(env, strategyMachine(p), steps, nil)
	if err != nil {
		return nil, err
	}
	resBT, err := nas.BTRun(env, strategyMachine(p), steps, nil)
	if err != nil {
		return nil, err
	}
	return []BTvsSPRow{
		{App: "SP (scalar pentadiagonal)", Time: resSP.Makespan, Bytes: resSP.TotalBytes(), Messages: resSP.TotalMessages()},
		{App: "BT (5×5 block tridiagonal)", Time: resBT.Makespan, Bytes: resBT.TotalBytes(), Messages: resBT.TotalMessages()},
	}, nil
}
