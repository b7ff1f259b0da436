// Command kernelbench measures the line-batched sweep kernels and emits the
// BENCH_kernels.json artifact consumed by the CI perf gate.
//
// Two suites:
//
//   - kernels-sim: virtual-machine results (makespan, messages, bytes) of
//     the strict distributed SP driver and of a data-mode multipartitioned
//     pentadiagonal sweep (dist.SweepRunner over each rank's private
//     fields) in both scalar and batched mode. Everything here
//     is bit-reproducible, so the CI gate diffs it at zero tolerance; the
//     scalar and batched rows must stay identical to each other (batching
//     is a kernel-level change, invisible to the cost model), and the tool
//     itself verifies the two runs produce bitwise-identical grid data.
//
//   - kernels-wall: wall-clock ns/element and allocations per run for the
//     scalar and batched paths, plus the batched-over-scalar speedup.
//     These are host-dependent; the CI gate diffs them with wide relative
//     tolerance (-tol 'kernels-wall=1.0') to catch only gross regressions
//     (e.g. the batched path silently falling back to scalar).
//
// Usage:
//
//	kernelbench                 # print the table
//	kernelbench -json out.json  # also write the bench artifact
//	kernelbench -iters 9        # more wall-clock repetitions (median)
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/grid"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kernelbench: ")
	jsonPath := flag.String("json", "", "write machine-readable results (BENCH_*.json schema)")
	iters := flag.Int("iters", 5, "wall-clock repetitions per configuration (median is reported)")
	flag.Parse()

	var records []obs.BenchRecord
	records = append(records, simSuite()...)
	records = append(records, wallSuite(*iters)...)

	printTable(records)

	if *jsonPath != "" {
		bf := obs.BenchFile{
			Source:  "kernelbench -json (kernels-sim is bit-reproducible; kernels-wall is host wall-clock, gated at wide tolerance)",
			Records: records,
		}
		if err := obs.WriteBenchJSON(*jsonPath, bf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d records)\n", *jsonPath, len(records))
	}
}

// spCase runs the strict distributed-memory SP driver and records its
// virtual results.
func spCase(p int, gamma, eta []int, steps int) obs.BenchRecord {
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		log.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		log.Fatal(err)
	}
	_, res, err := dmem.RunSP(env, nas.Origin2000Machine(p), steps, plan.Overlap{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return obs.BenchRecord{
		Suite:    "kernels-sim",
		Name:     fmt.Sprintf("strict-sp-%d", eta[0]),
		P:        p,
		Eta:      eta,
		Steps:    steps,
		Gamma:    gammaString(gamma),
		Makespan: res.Makespan,
		Messages: res.TotalMessages(),
		Bytes:    res.TotalBytes(),
	}
}

func gammaString(gamma []int) string {
	s := ""
	for i, g := range gamma {
		if i > 0 {
			s += "×"
		}
		s += fmt.Sprint(g)
	}
	return s
}

// pentaSystem builds the shared random pentadiagonal test system (band
// entries that would reach outside a line along dim 0 zeroed).
func pentaSystem(eta []int) []*grid.Grid {
	rng := rand.New(rand.NewSource(17))
	sv := sweep.NewPenta()
	gs := make([]*grid.Grid, sv.NumVecs())
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	n := eta[0]
	for k := 1; k <= sv.KL; k++ {
		k := k
		gs[k-1].FillFunc(func(idx []int) float64 {
			if idx[0] < k {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[sv.KL].FillFunc(func([]int) float64 { return 8 + rng.Float64() })
	for u := 1; u <= sv.KU; u++ {
		u := u
		gs[sv.KL+u].FillFunc(func(idx []int) float64 {
			if idx[0] >= n-u {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[sv.KL+sv.KU+1].FillFunc(func([]int) float64 { return rng.Float64()*10 - 5 })
	return gs
}

// pentaSweep is one measurable configuration: a data-mode multipartitioned
// pentadiagonal sweep along dim 0 with a fixed batch setting, run by every
// rank's SweepRunner over private fields loaded from one shared system.
type pentaSweep struct {
	eta     []int
	runners []*dist.SweepRunner
	mach    *sim.Machine
	// gs is the shared system; each run loads every rank's fields from it.
	gs []*grid.Grid
}

func newPentaSweep(p int, gamma, eta []int, batch int) *pentaSweep {
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		log.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		log.Fatal(err)
	}
	sv := sweep.NewPenta()
	pl, err := dist.CompileSweepPlan(env, sv)
	if err != nil {
		log.Fatal(err)
	}
	gs := pentaSystem(eta)
	ps := &pentaSweep{eta: eta, runners: make([]*dist.SweepRunner, p),
		mach: nas.Origin2000Machine(p), gs: gs}
	for q := range ps.runners {
		fields := make([]*dist.Field, len(gs))
		for v := range gs {
			fields[v] = dist.NewField(env, q, 0)
		}
		ps.runners[q] = dist.NewSweepRunner(sv, fields)
		ps.runners[q].Plan, ps.runners[q].Batch = pl, batch
	}
	return ps
}

func (ps *pentaSweep) run() sim.Result {
	res, err := ps.mach.Run(func(r *sim.Rank) {
		sr := ps.runners[r.ID]
		for v, f := range sr.Fields {
			f.Load(ps.gs[v])
		}
		sr.Run(r, 0)
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// solution assembles every rank's fields into grids over the whole array.
func (ps *pentaSweep) solution() []*grid.Grid {
	out := make([]*grid.Grid, len(ps.runners[0].Fields))
	for v := range out {
		out[v] = grid.New(ps.eta...)
		for _, sr := range ps.runners {
			sr.Fields[v].Store(out[v])
		}
	}
	return out
}

func (ps *pentaSweep) elements() int {
	n := 1
	for _, e := range ps.eta {
		n *= e
	}
	return n
}

func simSuite() []obs.BenchRecord {
	records := []obs.BenchRecord{
		spCase(8, []int{4, 4, 2}, []int{24, 24, 24}, 1),
		spCase(16, []int{4, 4, 4}, []int{32, 32, 32}, 1),
	}
	// Batched vs scalar must be invisible to the virtual machine: identical
	// makespans, identical traffic, bitwise-identical grid data.
	p, gamma, eta := 8, []int{4, 4, 2}, []int{32, 32, 32}
	scalar := newPentaSweep(p, gamma, eta, -1)
	batched := newPentaSweep(p, gamma, eta, 0)
	sres := scalar.run()
	bres := batched.run()
	sgs, bgs := scalar.solution(), batched.solution()
	for v := range sgs {
		sd, bd := sgs[v].Data(), bgs[v].Data()
		for i := range sd {
			if math.Float64bits(sd[i]) != math.Float64bits(bd[i]) {
				log.Fatalf("batched sweep diverges from scalar: vec %d element %d: %v vs %v", v, i, sd[i], bd[i])
			}
		}
	}
	if sres.Makespan != bres.Makespan {
		log.Fatalf("batched sweep changed the virtual makespan: scalar %g vs batched %g", sres.Makespan, bres.Makespan)
	}
	for _, c := range []struct {
		name string
		res  sim.Result
	}{{"penta-scalar", sres}, {"penta-batched", bres}} {
		records = append(records, obs.BenchRecord{
			Suite:    "kernels-sim",
			Name:     c.name,
			P:        p,
			Eta:      eta,
			Gamma:    gammaString(gamma),
			Makespan: c.res.Makespan,
			Messages: c.res.TotalMessages(),
			Bytes:    c.res.TotalBytes(),
		})
	}
	return records
}

// wallTime returns the median wall-clock duration and mean allocations of
// iters runs of f (after one warm-up run).
func wallTime(iters int, f func()) (time.Duration, float64) {
	f() // warm arenas, geometry caches, and pools
	times := make([]time.Duration, iters)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	runtime.ReadMemStats(&ms1)
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
	return times[iters/2], allocs
}

func wallSuite(iters int) []obs.BenchRecord {
	p, gamma, eta := 8, []int{4, 4, 2}, []int{32, 32, 32}
	scalar := newPentaSweep(p, gamma, eta, -1)
	batched := newPentaSweep(p, gamma, eta, 0)
	elems := float64(scalar.elements())

	st, sa := wallTime(iters, func() { scalar.run() })
	bt, ba := wallTime(iters, func() { batched.run() })

	rec := func(name string, t time.Duration, allocs float64) obs.BenchRecord {
		return obs.BenchRecord{
			Suite: "kernels-wall",
			Name:  name,
			P:     p,
			Eta:   eta,
			Gamma: gammaString(gamma),
			Extra: map[string]float64{
				"wall_ns_per_element": float64(t.Nanoseconds()) / elems,
				"allocs_per_run":      allocs,
			},
		}
	}
	sRec := rec("penta-scalar", st, sa)
	bRec := rec("penta-batched", bt, ba)
	bRec.Speedup = float64(st) / float64(bt)
	return []obs.BenchRecord{sRec, bRec}
}

func printTable(records []obs.BenchRecord) {
	w := os.Stdout
	fmt.Fprintf(w, "%-14s %-16s %4s  %12s %9s %12s %8s %14s %12s\n",
		"suite", "name", "p", "makespan", "msgs", "bytes", "speedup", "ns/element", "allocs/run")
	for _, r := range records {
		mk := ""
		if r.Makespan != 0 {
			mk = fmt.Sprintf("%.6gs", r.Makespan)
		}
		sp := ""
		if r.Speedup != 0 {
			sp = fmt.Sprintf("%.2f×", r.Speedup)
		}
		nsPer, allocs := "", ""
		if v, ok := r.Extra["wall_ns_per_element"]; ok {
			nsPer = fmt.Sprintf("%.1f", v)
		}
		if v, ok := r.Extra["allocs_per_run"]; ok {
			allocs = fmt.Sprintf("%.0f", v)
		}
		fmt.Fprintf(w, "%-14s %-16s %4d  %12s %9d %12d %8s %14s %12s\n",
			r.Suite, r.Name, r.P, mk, r.Messages, r.Bytes, sp, nsPer, allocs)
	}
}
