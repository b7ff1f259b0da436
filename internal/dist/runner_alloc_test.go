package dist

import (
	"math/rand"
	"testing"

	"genmp/internal/plan"
	"genmp/internal/sim"
	"genmp/internal/sweep"
)

// TestSweepRunnerSteadyStateAllocFree pins the warmed per-run allocation
// count of the strict runner, the executor the rt benchmarks time: once
// every rank's runner has bound its tiles and warmed its arena, repeated
// sweeps along every dimension must not allocate per line, panel or
// message (carries cycle through the machine's payload pool), with overlap
// off and on. The baseline is the same machine replaying the same schedule
// model-only: the simulator's own per-run bookkeeping grows with the
// traffic (an overlapped schedule posts many nonblocking requests), so an
// empty Machine.Run is no baseline for it.
func TestSweepRunnerSteadyStateAllocFree(t *testing.T) {
	p, gamma, eta := 4, []int{2, 2, 2}, []int{16, 16, 8}
	env := mustTestEnv(t, p, gamma, eta)
	solver := sweep.Tridiag{}
	for _, ov := range []plan.Overlap{{}, {Enabled: true}} {
		pl, err := CompileSweepPlanOverlap(env, solver, ov)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		runners := make([]*SweepRunner, p)
		initial := make([][][]float64, p) // [rank][field*tiles+tile] data
		for q := range runners {
			fields := make([]*Field, solver.NumVecs())
			for v := range fields {
				fields[v] = NewField(env, q, 0)
				fields[v].FillFunc(func([]int) float64 {
					if v == 1 {
						return 4 + rng.Float64() // diagonally dominant
					}
					return rng.Float64()
				})
				for i := 0; i < fields[v].NumTiles(); i++ {
					initial[q] = append(initial[q], append([]float64(nil), fields[v].TileGrid(i).Data()...))
				}
			}
			runners[q] = NewSweepRunner(solver, fields)
			runners[q].Plan = pl
		}
		// The model-only executor replays the same schedule, so the
		// machine's own per-run bookkeeping (fresh ranks' request lists,
		// channel maps, phase buckets) is the same in both runs.
		model, err := NewMultiSweep(env, solver, nil)
		if err != nil {
			t.Fatal(err)
		}
		model.Plan = pl
		mach := testMachine(p)
		strict := func(r *sim.Rank) {
			sr := runners[r.ID]
			k := 0
			for _, f := range sr.Fields {
				for i := 0; i < f.NumTiles(); i++ {
					copy(f.TileGrid(i).Data(), initial[r.ID][k])
					k++
				}
			}
			for dim := range eta {
				sr.Run(r, dim)
			}
		}
		replay := func(r *sim.Rank) {
			for dim := range eta {
				model.Run(r, dim)
			}
		}
		run := func(body func(*sim.Rank)) func() {
			return func() {
				if _, err := mach.Run(body); err != nil {
					t.Fatal(err)
				}
			}
		}
		run(strict)() // bind tiles, warm arenas and pools
		run(replay)()
		baseline := testing.AllocsPerRun(5, run(replay))
		wsBefore := runnersWorkspace(runners)
		pool := mach.PayloadPoolStats()
		allocs := testing.AllocsPerRun(5, run(strict))
		t.Logf("overlap %v: allocs per run: strict sweeps %v, model-only replay %v", ov.Enabled, allocs, baseline)
		if allocs > baseline+8 {
			t.Errorf("overlap %v: warmed strict sweeps allocate %v per run vs %v for the model-only replay of the same schedule: the runner is allocating", ov.Enabled, allocs, baseline)
		}
		ws := runnersWorkspace(runners)
		ws.Gets -= wsBefore.Gets
		ws.Hits -= wsBefore.Hits
		if ws.Gets == 0 || ws.HitRate() != 1 {
			t.Errorf("overlap %v: steady-state workspace hit rate = %v (%+v), want 1", ov.Enabled, ws.HitRate(), ws)
		}
		post := mach.PayloadPoolStats()
		gets, hits := post.Gets-pool.Gets, post.Hits-pool.Hits
		// A rank may request a payload before a peer has returned one, so a
		// warmed pool may still miss now and then.
		if gets == 0 || float64(hits) < 0.9*float64(gets) {
			t.Errorf("overlap %v: steady-state payload pool recycled %d of %d gets, want ≥ 90%%", ov.Enabled, hits, gets)
		}
	}
}

// runnersWorkspace sums the arena counters of every rank's runner.
func runnersWorkspace(runners []*SweepRunner) sweep.WorkspaceStats {
	var out sweep.WorkspaceStats
	for _, sr := range runners {
		s := sr.WorkspaceStats()
		out.Gets += s.Gets
		out.Hits += s.Hits
	}
	return out
}
