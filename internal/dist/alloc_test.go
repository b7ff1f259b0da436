package dist

import (
	"math/rand"
	"testing"

	"genmp/internal/core"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport/mbox"
)

// TestWavefrontPerBlockAllocFree verifies the wavefront inner loop no longer
// allocates per block: carries travel in pooled payloads and line data moves
// through the per-rank arena. Machine.Run has fixed bookkeeping allocations,
// so the test is differential — a warmed run with one block per slab versus
// a warmed run with one-line blocks (144 blocks per slab). If the per-block
// path allocated, the many-block run would exceed the one-block run by
// hundreds of allocations; messaging itself reuses pooled buffers.
func TestWavefrontPerBlockAllocFree(t *testing.T) {
	p := 4
	eta := []int{40, 12, 12}
	rng := rand.New(rand.NewSource(9))
	gs := makeBandedGrids(rng, eta, 1, 1, 0)
	work := cloneAll(gs)
	restore := func() {
		for v := range work {
			copy(work[v].Data(), gs[v].Data())
		}
	}
	measure := func(grain int) float64 {
		b, err := NewBlock(p, eta, 0, HandCoded())
		if err != nil {
			t.Fatal(err)
		}
		mach := testMachine(p)
		run := func() {
			restore()
			if _, err := mach.Run(func(r *sim.Rank) {
				b.WavefrontSweep(r, sweep.Tridiag{}, work, grain)
			}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the per-rank arenas and the machine's payload pool
		resetScratchStats(b.scratchBuf)
		pool := mach.PayloadPoolStats()
		allocs := testing.AllocsPerRun(5, run)
		// Warmed arenas must serve every acquisition from existing capacity,
		// and the payload pool must recycle (scheduling can make a rank
		// request a buffer before a peer returns one, so allow a small slack).
		if ws := b.WorkspaceStats(); ws.Gets == 0 || ws.HitRate() != 1 {
			t.Errorf("grain %d: steady-state workspace hit rate = %v (%+v), want 1", grain, ws.HitRate(), ws)
		}
		assertPoolSteadyState(t, mach, pool)
		return allocs
	}
	many := measure(1)   // 12×12 = 144 single-line blocks per slab
	one := measure(1000) // whole slab in one block
	t.Logf("allocs per run: many-block %v, one-block %v", many, one)
	if many > one+64 {
		t.Errorf("many-block wavefront allocates %v per run vs %v for one block: per-block path is allocating", many, one)
	}
}

// TestMultiSweepSteadyStateAllocFree pins the warmed per-run allocation
// count of the strictest executor path the benchmarks gate: repeated batched
// multipartitioned sweeps on one machine must not grow the heap per line,
// per block, or per message (payloads cycle through the machine pool).
func TestMultiSweepSteadyStateAllocFree(t *testing.T) {
	p, gamma, eta := 4, []int{2, 2, 2}, []int{16, 16, 8}
	env := mustTestEnv(t, p, gamma, eta)
	rng := rand.New(rand.NewSource(10))
	gs := makeBandedGrids(rng, eta, 1, 1, 0)
	work := cloneAll(gs)
	ms, err := NewMultiSweep(env, sweep.Tridiag{}, work)
	if err != nil {
		t.Fatal(err)
	}
	mach := testMachine(p)
	run := func() {
		for v := range work {
			copy(work[v].Data(), gs[v].Data())
		}
		if _, err := mach.Run(func(r *sim.Rank) { ms.Run(r, 0) }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm arenas and pools
	baseline := runOverhead(mach, p)
	resetScratchStats(ms.scratchBuf)
	pool := mach.PayloadPoolStats()
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("allocs per run: sweep %v, bare machine %v", allocs, baseline)
	if allocs > baseline+32 {
		t.Errorf("warmed multipartitioned sweep allocates %v per run vs %v for an empty run: executor path is allocating", allocs, baseline)
	}
	if ws := ms.WorkspaceStats(); ws.Gets == 0 || ws.HitRate() != 1 {
		t.Errorf("steady-state workspace hit rate = %v (%+v), want 1", ws.HitRate(), ws)
	}
	assertPoolSteadyState(t, mach, pool)
}

// resetScratchStats zeroes the arena counters of warmed per-rank scratch so
// hit rates are measured from a steady-state baseline.
func resetScratchStats(buf []Scratch) {
	for q := range buf {
		buf[q].pan.ResetStats()
		buf[q].chunk.ResetStats()
	}
}

// assertPoolSteadyState checks that the payload pool recycled nearly every
// buffer requested since the pre snapshot. Goroutine interleaving can make
// a rank request a payload before a peer has returned one, so a warmed pool
// may still miss occasionally; ≥ 90% recycled means the hot path is served
// by the pool, not the heap.
func assertPoolSteadyState(t *testing.T, mach *sim.Machine, pre mbox.PoolStats) {
	t.Helper()
	post := mach.PayloadPoolStats()
	gets, hits := post.Gets-pre.Gets, post.Hits-pre.Hits
	if gets == 0 {
		t.Error("steady-state runs requested no pooled payloads")
		return
	}
	if rate := float64(hits) / float64(gets); rate < 0.9 {
		t.Errorf("steady-state payload pool hit rate = %v (%d/%d gets), want ≈ 1", rate, hits, gets)
	}
}

// runOverhead measures Machine.Run's own fixed allocation cost (goroutines,
// per-rank stats) with an empty body on an already-warmed machine.
func runOverhead(mach *sim.Machine, p int) float64 {
	body := func(r *sim.Rank) {}
	mach.Run(body)
	return testing.AllocsPerRun(5, func() { mach.Run(body) })
}

func mustTestEnv(t *testing.T, p int, gamma, eta []int) *Env {
	t.Helper()
	m, err := core.NewGeneralized(p, gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(m, eta, HandCoded())
	if err != nil {
		t.Fatal(err)
	}
	return env
}
