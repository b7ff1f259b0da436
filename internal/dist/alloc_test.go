package dist

import (
	"math/rand"
	"testing"

	"genmp/internal/core"
	"genmp/internal/sim"
	"genmp/internal/sweep"
	"genmp/internal/xport/mbox"
)

// TestWavefrontPerBlockAllocFree verifies the wavefront inner loop does not
// allocate per block: carries travel in pooled payloads, a batch whose
// lines form an arithmetic progression in storage is solved in place, and
// any other batch moves through the per-rank arena. Machine.Run has fixed
// bookkeeping allocations, so the test is differential — a warmed run with
// one block per slab versus a warmed run with small blocks. If the
// per-block path allocated, the many-block run would exceed the one-block
// run by hundreds of allocations; messaging itself reuses pooled buffers.
// Along dim 0 of 40×12×12 every block is one progression, so the arena is
// never acquired; along dim 1 of 12×40×6 the lines come in runs of 6, so
// every block of 7 or more lines packs, and the warmed arena must serve
// every acquisition from existing capacity.
func TestWavefrontPerBlockAllocFree(t *testing.T) {
	p := 4
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		eta       []int
		dim       int
		many, one int // grains
		packs     bool
	}{
		{[]int{40, 12, 12}, 0, 1, 1000, false}, // 12×12 = 144 single-line blocks per slab
		{[]int{12, 40, 6}, 1, 7, 1000, true},   // 72 lines per slab, in blocks of 7
	}
	for _, c := range cases {
		gs := makeBandedGrids(rng, c.eta, 1, 1, c.dim)
		work := cloneAll(gs)
		restore := func() {
			for v := range work {
				copy(work[v].Data(), gs[v].Data())
			}
		}
		measure := func(grain int) float64 {
			b, err := NewBlock(p, c.eta, c.dim, HandCoded())
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
			// In place, the arena is never acquired. Packed, warmed arenas
			// must serve every acquisition from existing capacity. The
			// payload pool must recycle (scheduling can make a rank request
			// a buffer before a peer returns one, so allow a small slack).
			ws := b.WorkspaceStats()
			switch {
			case !c.packs && ws.Gets != 0:
				t.Errorf("η %v dim %d grain %d: in-place batches acquired the arena (%+v), want no acquisition", c.eta, c.dim, grain, ws)
			case c.packs && (ws.Gets == 0 || ws.HitRate() != 1):
				t.Errorf("η %v dim %d grain %d: steady-state workspace hit rate = %v (%+v), want 1", c.eta, c.dim, grain, ws.HitRate(), ws)
			}
			assertPoolSteadyState(t, mach, pool)
			return allocs
		}
		many := measure(c.many)
		one := measure(c.one) // whole slab in one block
		t.Logf("η %v dim %d: allocs per run: many-block %v, one-block %v", c.eta, c.dim, many, one)
		if many > one+64 {
			t.Errorf("η %v dim %d: many-block wavefront allocates %v per run vs %v for one block: per-block path is allocating", c.eta, c.dim, many, one)
		}
	}
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
