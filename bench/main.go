// Command bench is the repository's benchmark. It times four workloads —
// SP and ADI on the real-parallel runtime, the virtual-time Table 1, and
// the class B plan set-up at p=360 — in interleaved slices, checks every
// op's output, and in a separate traced pass times each layer call from
// outside the program. See README.md for the metrics and workloads.
//
// Run it from the repository root with
//
//	bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file]
//
// which builds it and runs it from bench/. The last line of standard output
// is a JSON summary; -out receives the full results, and the traced pass
// writes a Chrome trace per workload beside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef describes one metric. BENCHMARK.json lists the end-to-end and
// per-layer ones with the same fields.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"solve_ms_p50", "ms", "lower", 0.25},
	{"solve_ms_p90", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// reported are end-to-end metrics the command prints but BENCHMARK.json
// does not gate: the op times' interquartile range, speedup_p1, which
// exists only on the rt workloads, and failed_frac, which is 0 on a correct
// run (the summary line carries the counts).
var reported = []metricDef{
	{"solve_ms_iqr", "ms", "lower", 0},
	{"speedup_p1", "ratio", "higher", 0},
	{"failed_frac", "ratio", "lower", 0},
}

var perLayer = []metricDef{
	{"sweep.solve_ms", "ms", "lower", 0},
	{"sweep.ns_per_elem", "ns", "lower", 0},
	{"dmem.rhs_ms", "ms", "lower", 0},
	{"dmem.lhs_ms", "ms", "lower", 0},
	{"dmem.add_ms", "ms", "lower", 0},
	{"dmem.fill_ms", "ms", "lower", 0},
	{"dmem.copy_ms", "ms", "lower", 0},
	{"dmem.fields_ms", "ms", "lower", 0},
	{"dmem.gather_ms", "ms", "lower", 0},
	{"redist.halo_ms", "ms", "lower", 0},
	{"rt.wait_ms", "ms", "lower", 0},
	{"rt.pingpong_us", "us", "lower", 0},
	{"rt.imbalance", "ratio", "lower", 0},
	{"rt.msgs_per_op", "count", "lower", 0},
	{"rt.bytes_per_op", "B", "lower", 0},
	{"partition.search_ms", "ms", "lower", 0},
	{"partition.nodes", "count", "lower", 0},
	{"core.map_ms", "ms", "lower", 0},
	{"core.verify_ms", "ms", "lower", 0},
	{"plan.compile_ms", "ms", "lower", 0},
	{"plan.validate_ms", "ms", "lower", 0},
	{"plan.phases", "count", "lower", 0},
	{"plan.bytes", "B", "lower", 0},
	{"sim.run_ms", "ms", "lower", 0},
	{"sim.msgs", "count", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// sliceLen is the length of one interleaved slice.
const sliceLen = time.Second

// keptOps is how many traced ops per workload the Chrome trace keeps.
const keptOps = 3

// metric is one measured value with its sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// state accumulates one workload's measurements.
type state struct {
	w *workload

	setup []float64 // seconds per set-up chain
	fixed counts    // per-layer values the warm-up fixes

	// End-to-end pass.
	ms, ratio []float64
	alloc     uint64

	// Traced pass.
	plainMs, tracedMs []float64
	layers            map[string][]float64
	kept              []span
	tracedN           int

	attempted, failed int
	errs              []string
}

func (s *state) fail(err error) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, err.Error())
	}
}

func (s *state) addLayers(c counts) {
	for k, v := range c {
		s.layers[k] = append(s.layers[k], v)
	}
}

// layerSample turns one op's spans into per-layer milliseconds, each the
// mean over ranks of the layer's self time: rt calls count as rt.wait_ms,
// every other span as <name>_ms. With several ranks it adds rt.imbalance,
// the busiest rank's time outside rt over the mean rank's, minus 1.
func layerSample(ranks [][]span) counts {
	c := counts{}
	n := float64(len(ranks))
	busy := make([]float64, len(ranks))
	for q, spans := range ranks {
		for name, ns := range selfTimes(spans) {
			if strings.HasPrefix(name, rtPrefix) {
				c["rt.wait_ms"] += float64(ns) / 1e6 / n
				continue
			}
			c[name+"_ms"] += float64(ns) / 1e6 / n
			busy[q] += float64(ns)
		}
	}
	if len(ranks) > 1 {
		max, sum := 0.0, 0.0
		for _, b := range busy {
			max = math.Max(max, b)
			sum += b
		}
		c["rt.imbalance"] = max/(sum/n) - 1
	}
	return c
}

// timeOp runs o and returns its wall time in milliseconds, the bytes it
// allocated and the error of its check, which runs after the clock stops.
func timeOp(o op) (float64, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	check := o()
	ms := float64(time.Since(start)) / 1e6
	runtime.ReadMemStats(&after)
	return ms, after.TotalAlloc - before.TotalAlloc, check()
}

// e2eStep runs one timed op and, for rt workloads, its p=1 pair in an order
// rng draws.
func (s *state) e2eStep(rng *rand.Rand) {
	baseFirst := rng.IntN(2) == 0
	var baseMs float64
	runBase := func() {
		s.attempted++
		ms, _, err := timeOp(s.w.base)
		if err != nil {
			s.fail(fmt.Errorf("p=1 op: %w", err))
		}
		baseMs = ms
	}
	if s.w.base != nil && baseFirst {
		runBase()
	}
	s.attempted++
	ms, alloc, err := timeOp(s.w.run)
	if err != nil {
		s.fail(err)
	}
	s.ms = append(s.ms, ms)
	s.alloc += alloc
	if s.w.base != nil {
		if !baseFirst {
			runBase()
		}
		s.ratio = append(s.ratio, baseMs/ms)
	}
}

// tracedStep runs one untraced and one traced op in an order rng draws.
func (s *state) tracedStep(rng *rand.Rand, epoch time.Time) {
	plain := func() {
		s.attempted++
		ms, _, err := timeOp(s.w.run)
		if err != nil {
			s.fail(err)
		}
		s.plainMs = append(s.plainMs, ms)
	}
	tracedFirst := rng.IntN(2) == 0
	if !tracedFirst {
		plain()
	}
	s.attempted++
	start := time.Now()
	spans, finish := s.w.traced(epoch, s.tracedN)
	s.tracedMs = append(s.tracedMs, float64(time.Since(start))/1e6)
	c, err := finish()
	if err != nil {
		s.fail(fmt.Errorf("traced op: %w", err))
	}
	sample := layerSample(spans)
	sample.add(c)
	s.addLayers(sample)
	if s.tracedN < keptOps {
		for _, r := range spans {
			s.kept = append(s.kept, r...)
		}
	}
	s.tracedN++
	if tracedFirst {
		plain()
	}
}

// traceSetup samples the set-up layers of workloads whose ops start from
// the set-up chain's plans, and the transport latency probe.
func (s *state) traceSetup(epoch time.Time) error {
	if s.w.probe != nil {
		us, err := s.w.probe()
		if err != nil {
			return err
		}
		s.layers["rt.pingpong_us"] = us
	}
	if !s.w.setupLayers {
		return nil
	}
	first := true
	_, err := repeat(func() error {
		rec := newRecorder(epoch, -1, 0)
		c, err := s.w.setup(rec)
		if err != nil {
			return err
		}
		sample := layerSample([][]span{rec.spans})
		sample.add(c)
		s.addLayers(sample)
		if first {
			s.kept = append(s.kept, rec.spans...)
			first = false
		}
		return nil
	})
	return err
}

// endToEnd returns the pass's end-to-end and reported metrics.
func (s *state) endToEnd() map[string]metric {
	m := map[string]metric{}
	n := len(s.ms)
	if n > 0 {
		m["solve_ms_p50"] = metric{quantile(s.ms, 0.5), "ms", n}
		m["solve_ms_p90"] = metric{quantile(s.ms, 0.9), "ms", n}
		m["solve_ms_iqr"] = metric{iqr(s.ms), "ms", n}
		m["alloc_mb_per_op"] = metric{float64(s.alloc) / float64(n) / 1e6, "MB", n}
	}
	if len(s.ratio) > 0 {
		m["speedup_p1"] = metric{quantile(s.ratio, 0.5), "ratio", len(s.ratio)}
	}
	m["setup_s"] = metric{quantile(s.setup, 0.5), "s", len(s.setup)}
	if s.attempted > 0 {
		m["failed_frac"] = metric{float64(s.failed) / float64(s.attempted), "ratio", s.attempted}
	}
	return m
}

// perLayer returns the traced pass's per-layer metrics: the median of each
// layer's samples, 0 with n=0 for a layer the workload does not exercise.
func (s *state) perLayer() map[string]metric {
	m := map[string]metric{}
	for _, d := range perLayer {
		xs := s.layers[d.Name]
		if v, ok := s.fixed[d.Name]; ok {
			xs = []float64{v}
		}
		mt := metric{Unit: d.Unit, N: len(xs)}
		if len(xs) > 0 {
			mt.Value = quantile(xs, 0.5)
		}
		m[d.Name] = mt
	}
	if len(s.tracedMs) > 0 && len(s.plainMs) > 0 {
		m["trace.overhead"] = metric{quantile(s.tracedMs, 0.5)/quantile(s.plainMs, 0.5) - 1, "ratio", len(s.tracedMs)}
	}
	return m
}

// header describes the run and the host it ran on.
type header struct {
	Nproc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	CPU        string   `json:"cpu"`
	Caches     []string `json:"caches"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds_per_workload_per_pass"`
	Workloads  []string `json:"workloads"`
	Warning    string   `json:"warning,omitempty"`
}

func newHeader(seed uint64, seconds float64, names []string) header {
	h := header{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Seed: seed, Seconds: seconds, Workloads: names,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range dirs {
		var f [3]string
		for i, name := range []string{"level", "type", "size"} {
			data, _ := os.ReadFile(filepath.Join(dir, name))
			f[i] = strings.TrimSpace(string(data))
		}
		h.Caches = append(h.Caches, fmt.Sprintf("L%s %s %s", f[0], f[1], f[2]))
	}
	if h.Nproc < 2 {
		h.Warning = fmt.Sprintf("nproc = %d: the p=2 runs are oversubscribed", h.Nproc)
	}
	return h
}

// results is the -out file.
type results struct {
	Header     header                  `json:"header"`
	Schedule   map[string][]slice      `json:"schedule"`
	Workloads  map[string]workloadJSON `json:"workloads"`
	TotalWallS float64                 `json:"total_wall_s"`
}

type workloadJSON struct {
	Why       string            `json:"why"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

func main() {
	name := flag.String("workload", "", "run only this workload (default: all, interleaved)")
	seed := flag.Uint64("seed", 1, "seed of the ADI diffusion number and of the slice and pair order")
	seconds := flag.Float64("seconds", 20, "timed seconds per workload in each pass")
	trace := flag.Int("trace", -1, "0: end-to-end pass only; 1: traced pass only; -1: both")
	out := flag.String("out", "out/results.json", "results file; the Chrome traces go beside it")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, out string) error {
	start := time.Now()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if trace < -1 || trace > 1 || seconds <= 0 {
		return fmt.Errorf("need -trace in {-1, 0, 1} and -seconds > 0")
	}
	var states []*state
	var names []string
	for _, w := range workloads(seed) {
		if name == "" || name == w.name {
			states = append(states, &state{w: w, layers: map[string][]float64{}})
			names = append(names, w.name)
		}
	}
	if len(states) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	h := newHeader(seed, seconds, names)
	printHeader(h)

	for _, s := range states {
		var err error
		if s.setup, err = repeat(func() error { _, err := s.w.setup(nil); return err }); err != nil {
			return fmt.Errorf("%s set-up: %w", s.w.name, err)
		}
		if s.fixed, err = s.w.prepare(); err != nil {
			return fmt.Errorf("%s reference or warm-up: %w", s.w.name, err)
		}
	}

	rng := rand.New(rand.NewPCG(seed, 1))
	budget := time.Duration(seconds * float64(time.Second))
	sched := map[string][]slice{}
	if trace != 1 {
		sched["end_to_end"] = interleave(rng, names, budget, sliceLen, func(i int) { states[i].e2eStep(rng) })
	}
	epoch := time.Now()
	if trace != 0 {
		for _, s := range states {
			if err := s.traceSetup(epoch); err != nil {
				return fmt.Errorf("%s traced set-up: %w", s.w.name, err)
			}
		}
		sched["traced"] = interleave(rng, names, budget, sliceLen, func(i int) { states[i].tracedStep(rng, epoch) })
	}
	for _, pass := range []string{"end_to_end", "traced"} {
		if sl, ok := sched[pass]; ok {
			fmt.Printf("%s pass: %d slices, first round %s\n", pass, len(sl), firstRound(sl, len(names)))
		}
	}

	res := results{Header: h, Schedule: sched, Workloads: map[string]workloadJSON{}}
	summary := map[string]any{}
	attempted, failed := 0, 0
	for _, s := range states {
		wj := workloadJSON{Why: s.w.why, Attempted: s.attempted, Failed: s.failed, Errors: s.errs}
		fmt.Printf("\n== %s: %d ops, %d failed — %s\n", s.w.name, s.attempted, s.failed, s.w.why)
		for _, e := range s.errs {
			fmt.Printf("   failure: %s\n", e)
		}
		// The summary line names metrics plainly for one workload and one
		// pass, as BENCHMARK.json lists them, and workload/metric otherwise.
		prefix := ""
		if len(states) > 1 || trace == -1 {
			prefix = s.w.name + "/"
		}
		summarize := func(defs []metricDef, values map[string]metric) {
			for _, d := range defs {
				summary[prefix+d.Name] = map[string]any{"value": values[d.Name].Value, "unit": d.Unit}
			}
		}
		if trace != 1 {
			wj.EndToEnd = s.endToEnd()
			printMetrics("end to end", append(append([]metricDef(nil), endToEnd...), reported...), wj.EndToEnd)
			summarize(endToEnd, wj.EndToEnd)
		}
		if trace != 0 {
			wj.PerLayer = s.perLayer()
			printMetrics("per layer (0 with n=0: layer not exercised)", perLayer, wj.PerLayer)
			summarize(perLayer, wj.PerLayer)
			if len(s.kept) > 0 {
				path := strings.TrimSuffix(out, ".json") + "." + s.w.name + ".trace.json"
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					return err
				}
				if err := writeChromeTrace(path, s.kept); err != nil {
					return err
				}
			}
		}
		res.Workloads[s.w.name] = wj
		attempted += s.attempted
		failed += s.failed
	}
	res.TotalWallS = time.Since(start).Seconds()
	fmt.Printf("\ntotal wall time %.1f s\n", res.TotalWallS)
	if err := writeJSON(out, res); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d ops failed their check", failed, attempted)
	}
	return nil
}

func printHeader(h header) {
	fmt.Printf("genmp bench: seed %d, %.0f s per workload per pass, workloads %s\n", h.Seed, h.Seconds, strings.Join(h.Workloads, " "))
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, cpu %q, caches %s\n", h.Nproc, h.GOMAXPROCS, h.GoVersion, h.CPU, strings.Join(h.Caches, ", "))
	if h.Warning != "" {
		fmt.Println("warning:", h.Warning)
	}
}

// firstRound renders the workload order of a schedule's first round.
func firstRound(sl []slice, n int) string {
	var ws []string
	for i := 0; i < n && i < len(sl); i++ {
		ws = append(ws, sl[i].Workload)
	}
	return strings.Join(ws, " → ")
}

func printMetrics(title string, defs []metricDef, values map[string]metric) {
	fmt.Printf("   %s:\n", title)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf(", bound %.2f", d.Bound)
		}
		fmt.Printf("     %-20s %14.6g %-6s n=%-6d (%s is better%s)\n", d.Name, v.Value, d.Unit, v.N, d.Better, bound)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
