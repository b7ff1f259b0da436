// Benchmarks regenerating every table and figure of the paper's evaluation
// plus the ablations of DESIGN.md §4. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark exercises the code path that produces the corresponding
// artifact; the cmd/ tools print the full tables.
package genmp

import (
	"fmt"
	"math/rand"
	"testing"

	"genmp/internal/adi"
	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/dist"
	"genmp/internal/dmem"
	"genmp/internal/exp"
	"genmp/internal/grid"
	"genmp/internal/modmap"
	"genmp/internal/nas"
	"genmp/internal/numutil"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

// BenchmarkFigure1Mapping regenerates Figure 1: the diagonal 3-D
// multipartitioning of 4×4×4 tiles on 16 processors, including the
// exhaustive property verification.
func BenchmarkFigure1Mapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := core.NewDiagonal(16, 3)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Partitions runs the paper's Figure 2 generator: all
// Lemma-1 distributions of r factor instances into d bins.
func BenchmarkFigure2Partitions(b *testing.B) {
	for _, cfg := range []struct{ r, d int }{{6, 3}, {10, 4}, {12, 5}} {
		b.Run(fmt.Sprintf("r=%d,d=%d", cfg.r, cfg.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n := 0
				partition.EachDistribution(cfg.r, cfg.d, func([]int) bool { n++; return true })
				if n == 0 {
					b.Fatal("no distributions")
				}
			}
		})
	}
}

// BenchmarkFigure3ModularMapping runs the paper's Figure 3 construction
// (moduli, kernel, reduction) for representative partitionings.
func BenchmarkFigure3ModularMapping(b *testing.B) {
	cases := []struct {
		p     int
		gamma []int
	}{
		{16, []int{4, 4, 4}},
		{50, []int{5, 10, 10}},
		{72, []int{6, 12, 12}},
		{720, []int{12, 60, 60}},
	}
	for _, c := range cases {
		b.Run(partition.Describe(c.gamma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := modmap.New(c.p, c.gamma); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1SP runs one Table 1 cell: the dHPF generalized variant of
// NAS SP class B on the virtual Origin 2000 (model-only, one timestep).
func BenchmarkTable1SP(b *testing.B) {
	eta := nas.ClassB.Eta
	serial, err := nas.SerialTime(nas.Origin2000Machine(1), eta, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{16, 49, 50, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, _, err := nas.Speedup(nas.DHPFGeneralized, p, nas.Origin2000Machine(p), eta, 1, serial)
				if err != nil {
					b.Fatal(err)
				}
				if s <= 0 {
					b.Fatal("non-positive speedup")
				}
			}
		})
	}
}

// BenchmarkSkewedDomain reproduces the Section 3.1 remark experiment: the
// optimal-partitioning search across domain aspect ratios.
func BenchmarkSkewedDomain(b *testing.B) {
	ratios := []float64{1, 2, 3, 4, 5, 6, 8}
	for i := 0; i < b.N; i++ {
		rows, err := exp.SkewedDomain(100, ratios)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(ratios) {
			b.Fatal("short result")
		}
	}
}

// BenchmarkEnumerationP1000 measures the Section 3.3 search-space
// enumeration at the paper's "p up to 1000" scale.
func BenchmarkEnumerationP1000(b *testing.B) {
	for _, d := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			obj := partition.UniformObjective(d)
			for i := 0; i < b.N; i++ {
				if _, err := partition.Optimal(1000, d, obj); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackgroundMappings covers the Section 2 prior-art
// constructions.
func BenchmarkBackgroundMappings(b *testing.B) {
	b.Run("johnsson-p=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := core.NewJohnsson2D(64)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.TilesOf(0)
		}
	})
	b.Run("graycode-k=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := core.NewGrayCode3D(3)
			if err != nil {
				b.Fatal(err)
			}
			_ = m.TilesOf(0)
		}
	})
}

// BenchmarkStrategyComparison runs the ADI strategy shoot-out
// (multipartitioning vs wavefront vs transpose), model-only.
func BenchmarkStrategyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.StrategyComparison(exp.Spec{P: 16, Eta: []int{64, 64, 64}, Steps: 1, Grain: 64})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Time >= rows[1].Time {
			b.Fatal("multipartitioning should win")
		}
	}
}

// BenchmarkAblationAggregation compares vectorized (one message per phase)
// against per-tile carry communication.
func BenchmarkAblationAggregation(b *testing.B) {
	m, err := core.NewGeneralized(8, []int{8, 8, 4})
	if err != nil {
		b.Fatal(err)
	}
	env, err := dist.NewEnv(m, []int{64, 64, 16}, dist.HandCoded())
	if err != nil {
		b.Fatal(err)
	}
	solver := sweep.Tridiag{}
	for _, perTile := range []bool{false, true} {
		name := "aggregated"
		if perTile {
			name = "per-tile"
		}
		b.Run(name, func(b *testing.B) {
			makespan := 0.0
			for i := 0; i < b.N; i++ {
				pl, err := dist.CompileSweepPlan(env, solver)
				if err != nil {
					b.Fatal(err)
				}
				res, err := nasMachine(8).Run(func(r *sim.Rank) {
					// A model field holds no storage, so one serves every vector.
					f := dist.NewModelField(env, r.ID, 0)
					sr := dist.NewSweepRunner(solver, []*dist.Field{f, f, f, f})
					sr.Plan, sr.PerTileMessages = pl, perTile
					sr.Run(r, 0)
				})
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(makespan*1e6, "virtual-µs")
		})
	}
}

// BenchmarkAblationPruning compares the branch-and-bound elementary search
// against the brute-force divisor scan.
func BenchmarkAblationPruning(b *testing.B) {
	obj := partition.VolumeObjective([]int{512, 256, 128})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.Optimal(720, 3, obj); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.BruteForceOptimal(720, 3, obj)
		}
	})
}

// BenchmarkAblationWavefrontGrain sweeps the wavefront message granularity
// (the Section 1 fill/drain-vs-overhead tension).
func BenchmarkAblationWavefrontGrain(b *testing.B) {
	blk, err := dist.NewBlock(8, []int{64, 24, 24}, 0, dist.HandCoded())
	if err != nil {
		b.Fatal(err)
	}
	for _, grain := range []int{1, 8, 36, 576} {
		b.Run(fmt.Sprintf("grain=%d", grain), func(b *testing.B) {
			makespan := 0.0
			for i := 0; i < b.N; i++ {
				res, err := nasMachine(8).Run(func(r *sim.Rank) {
					blk.WavefrontSweep(r, sweep.Tridiag{}, nil, grain)
				})
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(makespan*1e6, "virtual-µs")
		})
	}
}

// BenchmarkAblationCoefficientReduction compares tile→processor evaluation
// with the reduced matrix against the raw Figure 3 kernel output.
func BenchmarkAblationCoefficientReduction(b *testing.B) {
	mm, err := modmap.New(72, []int{6, 12, 12})
	if err != nil {
		b.Fatal(err)
	}
	raw := mm.RawMatrix()
	tiles := make([][]int, 0, 6*12*12)
	numutil.EachCoord(mm.B, func(t []int) { tiles = append(tiles, numutil.CopyInts(t)) })
	b.Run("reduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := 0
			for _, t := range tiles {
				s += mm.Proc(t)
			}
			if s == 0 {
				b.Fatal("degenerate")
			}
		}
	})
	b.Run("raw", func(b *testing.B) {
		vec := make([]int, 3)
		for i := 0; i < b.N; i++ {
			s := 0
			for _, t := range tiles {
				for r := 0; r < 3; r++ {
					acc := 0
					for k := 0; k < 3; k++ {
						acc += raw[r][k] * t[k]
					}
					vec[r] = numutil.EMod(acc, mm.Mod[r])
				}
				s += numutil.RankOf(vec, mm.Mod)
			}
			if s == 0 {
				b.Fatal("degenerate")
			}
		}
	})
}

// BenchmarkAblationNetworkModel contrasts the scalable interconnect with a
// fixed-bandwidth bus (the Section 3.1 footnote) on an SP step.
func BenchmarkAblationNetworkModel(b *testing.B) {
	eta := nas.ClassA.Eta
	for _, scaling := range []sim.BandwidthScaling{sim.ScalePerProcessor, sim.FixedBus} {
		name := "scalable"
		if scaling == sim.FixedBus {
			name = "bus"
		}
		b.Run(name, func(b *testing.B) {
			m, err := core.NewGeneralized(16, []int{4, 4, 4})
			if err != nil {
				b.Fatal(err)
			}
			env, err := dist.NewEnv(m, eta, dist.HandCoded())
			if err != nil {
				b.Fatal(err)
			}
			makespan := 0.0
			for i := 0; i < b.N; i++ {
				base := nas.Origin2000Machine(16)
				net := base.Net
				net.Scaling = scaling
				mach := sim.NewMachine(16, net, base.CPU)
				res, err := nas.Run(env, mach, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(makespan*1e3, "virtual-ms")
		})
	}
}

// nasMachine is a small Origin-like machine for the ablations.
func nasMachine(p int) *sim.Machine { return nas.Origin2000Machine(p) }

// BenchmarkExtensionBTvsSP runs the BT-vs-SP comparison (the extension
// workload with 5×5 block carries).
func BenchmarkExtensionBTvsSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.BTvsSP(9, []int{36, 36, 36}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].Bytes <= rows[0].Bytes {
			b.Fatal("BT should move more bytes")
		}
	}
}

// BenchmarkMappingAlternatives generates the distinct legal mappings of one
// partitioning (the paper's "one particular assignment, out of a set of
// legal mappings").
func BenchmarkMappingAlternatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alts, err := modmap.Alternatives(16, []int{4, 4, 4}, 6)
		if err != nil {
			b.Fatal(err)
		}
		if len(alts) < 2 {
			b.Fatal("expected multiple alternatives")
		}
	}
}

// BenchmarkOptimalSearchScaling tracks the optimizer cost as p grows (the
// "complexity in p grows slowly" claim).
func BenchmarkOptimalSearchScaling(b *testing.B) {
	for _, p := range []int{64, 256, 720, 1000} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			obj := partition.UniformObjective(4)
			for i := 0; i < b.N; i++ {
				if _, err := partition.Optimal(p, 4, obj); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrictDistributedSP runs the strict distributed-memory SP (real
// halo and carry payloads, private tile storage) — the fully MPI-faithful
// execution path.
func BenchmarkStrictDistributedSP(b *testing.B) {
	m, err := core.NewGeneralized(8, []int{4, 4, 2})
	if err != nil {
		b.Fatal(err)
	}
	env, err := dist.NewEnv(m, []int{24, 24, 24}, dist.HandCoded())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := dmem.RunSP(env, nasMachine(8), 1, plan.Overlap{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealParallelADI measures WALL-CLOCK time of data-mode
// distributed ADI: the simulated ranks are goroutines doing real numeric
// work concurrently, so on a multicore host multipartitioning yields
// genuine wall-clock speedup here, not just virtual-time speedup (compare
// the p=1 and p=16 rows; on a single-core host the rows are flat).
func BenchmarkRealParallelADI(b *testing.B) {
	eta := []int{96, 96, 96}
	pb := adi.Problem{Eta: eta, Alpha: 0.3, Steps: 1}
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var gamma []int
			switch p {
			case 1:
				gamma = []int{1, 1, 1}
			case 4:
				gamma = []int{2, 2, 2}
			default:
				gamma = []int{4, 4, 4}
			}
			m, err := core.NewGeneralized(p, gamma)
			if err != nil {
				b.Fatal(err)
			}
			env, err := dist.NewEnv(m, eta, dist.HandCoded())
			if err != nil {
				b.Fatal(err)
			}
			cfg := adi.Config{Machine: nasMachine(p), Strategy: adi.Multipartition, Env: env}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u := pb.InitialCondition()
				b.StartTimer()
				if _, err := adi.Run(pb, u, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// kernelBenchGrids builds a diagonally dominant random system in the
// solver's vec layout over an eta-shaped domain (band entries reaching
// outside a line along dim zeroed), or [a, x] for the recurrence.
func kernelBenchGrids(sv sweep.Solver, eta []int, dim int, rng *rand.Rand) []*grid.Grid {
	if _, ok := sv.(sweep.Recurrence); ok {
		a := grid.New(eta...)
		x := grid.New(eta...)
		a.FillFunc(func([]int) float64 { return rng.Float64()*1.6 - 0.8 })
		x.FillFunc(func([]int) float64 { return rng.Float64()*4 - 2 })
		return []*grid.Grid{a, x}
	}
	kl, ku := 1, 1
	if b, ok := sv.(sweep.Banded); ok {
		kl, ku = b.KL, b.KU
	}
	gs := make([]*grid.Grid, kl+ku+2)
	for i := range gs {
		gs[i] = grid.New(eta...)
	}
	n := eta[dim]
	for k := 1; k <= kl; k++ {
		k := k
		gs[k-1].FillFunc(func(idx []int) float64 {
			if idx[dim] < k {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[kl].FillFunc(func([]int) float64 { return 4 + float64(kl+ku) + rng.Float64() })
	for u := 1; u <= ku; u++ {
		u := u
		gs[kl+u].FillFunc(func(idx []int) float64 {
			if idx[dim] >= n-u {
				return 0
			}
			return rng.Float64() - 0.5
		})
	}
	gs[kl+ku+1].FillFunc(func([]int) float64 { return rng.Float64()*10 - 5 })
	return gs
}

// BenchmarkKernelPanels measures one full forward+backward sweep over every
// line of a 48³ domain for each kernel family: the scalar per-line oracle
// against the batched kernels on packed SoA panels at several batch widths
// (batch=N: gather, solve, scatter) and on views straight into the grids
// (view: DefaultBatchLines lines per batch, solved in place, no copies).
// The packed rows are the microbenchmark behind BENCH_kernels.json's
// kernels-wall suite.
func BenchmarkKernelPanels(b *testing.B) {
	eta := []int{48, 48, 48}
	dim := 0
	n := eta[dim]
	for _, sv := range []sweep.BatchSolver{sweep.Recurrence{}, sweep.Tridiag{}, sweep.NewPenta()} {
		rng := rand.New(rand.NewSource(17))
		gs := kernelBenchGrids(sv, eta, dim, rng)
		nv := len(gs)
		pristine := make([][]float64, nv)
		for v := range gs {
			pristine[v] = append([]float64(nil), gs[v].Data()...)
		}
		restore := func() {
			for v := range gs {
				copy(gs[v].Data(), pristine[v])
			}
		}
		lines := gs[0].AppendLines(gs[0].Bounds(), dim, nil)
		elements := int64(len(lines) * n)

		b.Run(fmt.Sprintf("%s/scalar", sv.Name()), func(b *testing.B) {
			var pan, hdr sweep.Workspace
			chunk := pan.Panels(nv, n)
			views := hdr.Views(nv)
			b.SetBytes(elements * 8 * int64(nv))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore()
				b.StartTimer()
				for _, l := range lines {
					for v := range gs {
						gs[v].Gather(l, chunk[v][:n])
						views[v] = chunk[v][:n]
					}
					sv.Forward(views, nil, nil)
					sv.Backward(views, nil, nil)
					for v := range gs {
						gs[v].Scatter(l, chunk[v][:n])
					}
				}
			}
		})
		for _, batch := range []int{1, 8, 32, 64} {
			b.Run(fmt.Sprintf("%s/batch=%d", sv.Name(), batch), func(b *testing.B) {
				var ws sweep.Workspace
				b.SetBytes(elements * 8 * int64(nv))
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					restore()
					b.StartTimer()
					for s0 := 0; s0 < len(lines); s0 += batch {
						nb := min(batch, len(lines)-s0)
						panels := ws.Panels(nv, nb*n)
						blk := lines[s0 : s0+nb]
						for v := range gs {
							gs[v].GatherLines(blk, panels[v])
						}
						pv := sweep.Packed(nb, n)
						sv.ForwardBatch(panels, pv, nil, nil)
						sv.BackwardBatch(panels, pv, nil, nil)
						for v := range gs {
							gs[v].ScatterLines(blk, panels[v])
						}
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%s/view", sv.Name()), func(b *testing.B) {
			batch := sweep.DefaultBatchLines
			heads := make([][]float64, nv)
			b.SetBytes(elements * 8 * int64(nv))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore()
				b.StartTimer()
				for s0 := 0; s0 < len(lines); s0 += batch {
					blk := lines[s0:min(s0+batch, len(lines))]
					step, ok := grid.Progression(blk)
					if !ok {
						b.Fatalf("lines %d… along dim %d are no arithmetic progression", s0, dim)
					}
					for v := range gs {
						heads[v] = gs[v].Data()[blk[0].Base:]
					}
					pv := sweep.View{Lines: len(blk), Len: n, RowStride: blk[0].Stride, LineStride: step}
					sv.ForwardBatch(heads, pv, nil, nil)
					sv.BackwardBatch(heads, pv, nil, nil)
				}
			}
		})
	}
}

// BenchmarkSweepRunnerSteadyState measures a warmed data-mode
// multipartitioned pentadiagonal sweep (along the dimension the system is
// built for), every rank's SweepRunner over private fields — the
// allocation figure is the executor's true steady state (pooled payloads,
// reused arenas, cached geometry; what remains is Machine.Run's fixed
// per-run bookkeeping).
func BenchmarkSweepRunnerSteadyState(b *testing.B) {
	p, gamma, eta := 8, []int{4, 4, 2}, []int{32, 32, 32}
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		b.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	sv := sweep.NewPenta()
	gs := kernelBenchGrids(sv, eta, 0, rng)
	pl, err := dist.CompileSweepPlan(env, sv)
	if err != nil {
		b.Fatal(err)
	}
	runners := make([]*dist.SweepRunner, p)
	for q := range runners {
		fields := make([]*dist.Field, len(gs))
		for v := range gs {
			fields[v] = dist.NewField(env, q, 0)
		}
		runners[q] = dist.NewSweepRunner(sv, fields)
		runners[q].Plan = pl
	}
	mach := nasMachine(p)
	run := func() {
		if _, err := mach.Run(func(r *sim.Rank) {
			sr := runners[r.ID]
			for v, f := range sr.Fields {
				f.Load(gs[v])
			}
			sr.Run(r, 0)
		}); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm arenas, geometry caches, and pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkVerifyProperties measures the exhaustive balance+neighbor check
// used throughout the test suite.
func BenchmarkVerifyProperties(b *testing.B) {
	m, err := core.NewGeneralized(30, []int{10, 15, 6})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := m.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanSetupP360 measures the plan set-up chain for NAS class B at
// p=360 (γ 12×30×60, 21 600 tiles, 73 440 phases): partition search →
// modular mapping → Verify → plan compile → Validate.
func BenchmarkPlanSetupP360(b *testing.B) {
	const p = 360
	eta := nas.ClassB.Eta
	model := cost.Origin2000()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := model.BestPartitioning(p, eta, nil)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.NewGeneralized(p, res.Gamma)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			b.Fatal(err)
		}
		env, err := dist.NewEnv(m, eta, dist.DHPF())
		if err != nil {
			b.Fatal(err)
		}
		pl, err := nas.CompilePlan(env)
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ClassB regenerates Table 1 for NAS SP class B in virtual
// time, model only, with two timesteps: the `table1-b-model` operation of
// the repository benchmark. In CPU profiles a quarter to a third of its
// time is the message store's hand-offs (mbox Put and Get), about a sixth
// the per-run halo schedule compile (redist.CompileHalo), and the rest the
// plan executors, the simulator's accounting, rank-goroutine stack growth
// and the garbage collector. Table1 runs its 40 cells (two speedups per
// processor count) on GOMAXPROCS goroutines, so ns/op is the wall time of
// one table at the -cpu value, and -cpu 1 times the cells one after
// another.
func BenchmarkTable1ClassB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(nas.ClassB.Eta, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(exp.Table1Procs) {
			b.Fatal("short table")
		}
	}
}

// BenchmarkSPClassAReal runs NAS SP class A for two timesteps on the
// real-parallel runtime, the `sp-a-p2` operation of the repository
// benchmark: γ from Table 1's partition objective (1×2×2 at p=2), the
// sweep plan compiled once outside the timer. Most of its time is the
// batched pentadiagonal sweeps, solved in place in the tile grids, and the
// SP step loops (rhs stencil, band build, add).
func BenchmarkSPClassAReal(b *testing.B) {
	eta := nas.ClassA.Eta
	for _, p := range []int{2, 1} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			res, err := cost.Origin2000().BestPartitioning(p, eta, nil)
			if err != nil {
				b.Fatal(err)
			}
			m, err := core.NewGeneralized(p, res.Gamma)
			if err != nil {
				b.Fatal(err)
			}
			env, err := dist.NewEnv(m, eta, dist.DHPF())
			if err != nil {
				b.Fatal(err)
			}
			pl, err := dist.CompileSweepPlan(env, sweep.NewPenta())
			if err != nil {
				b.Fatal(err)
			}
			mach := rt.NewMachine(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := dmem.RunSP(env, mach, 2, plan.Overlap{}, pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
