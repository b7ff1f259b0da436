package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"genmp/internal/xport"
)

func collMachine(p int) *Machine {
	return NewMachine(p,
		Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6},
		CPU{FlopsPerSec: 1e9})
}

// TestAllToAllPairwiseMatchesLegacyLoop pins the default AllToAll to the
// hand-rolled transpose loop it replaced: same peer order, same
// per-message compute bracketing, bit-identical clocks.
func TestAllToAllPairwiseMatchesLegacyLoop(t *testing.T) {
	const p, pm = 6, 2e-6
	sizes := func(q int) []int {
		s := make([]int, p)
		for i := range s {
			if i != q {
				s[i] = 1000 + 37*q + 11*i
			}
		}
		return s
	}
	legacy, err := collMachine(p).Run(func(r *Rank) {
		q, sz := r.ID, sizes(r.ID)
		tag := 424242
		for off := 1; off < p; off++ {
			dst := (q + off) % p
			r.Compute(pm)
			r.Send(dst, tag, xport.Msg{Bytes: sz[dst]})
		}
		for off := 1; off < p; off++ {
			src := (q + off) % p
			r.Recv(src, tag)
			r.Compute(pm)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := collMachine(p).Run(func(r *Rank) {
		r.AllToAll(sizes(r.ID), nil, xport.CollOpts{PerMessage: pm})
	})
	if err != nil {
		t.Fatal(err)
	}
	if coll.Makespan != legacy.Makespan {
		t.Errorf("AllToAll makespan %g != legacy loop %g", coll.Makespan, legacy.Makespan)
	}
	for id := range coll.Ranks {
		if coll.Ranks[id].FinalClock != legacy.Ranks[id].FinalClock {
			t.Errorf("rank %d clock %g != legacy %g",
				id, coll.Ranks[id].FinalClock, legacy.Ranks[id].FinalClock)
		}
	}
	if coll.TotalBytes() != legacy.TotalBytes() || coll.TotalMessages() != legacy.TotalMessages() {
		t.Errorf("traffic %d/%d != legacy %d/%d",
			coll.TotalBytes(), coll.TotalMessages(), legacy.TotalBytes(), legacy.TotalMessages())
	}
}

// TestGatherToLinearMatchesLegacyLoop pins the default GatherTo to the old
// dmem.GatherToRoot pattern: non-roots send, root receives in rank order,
// no per-message compute.
func TestGatherToLinearMatchesLegacyLoop(t *testing.T) {
	const p, bytes = 5, 4096
	legacy, err := collMachine(p).Run(func(r *Rank) {
		if r.ID != 0 {
			r.Send(0, 777, xport.Msg{Bytes: bytes})
			return
		}
		for q := 1; q < p; q++ {
			r.Recv(q, 777)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := collMachine(p).Run(func(r *Rank) {
		r.GatherTo(0, bytes, nil, xport.CollOpts{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if coll.Makespan != legacy.Makespan {
		t.Errorf("GatherTo makespan %g != legacy loop %g", coll.Makespan, legacy.Makespan)
	}
}

func TestAllToAllDeliversPayloads(t *testing.T) {
	for _, alg := range []xport.Alg{xport.AlgPairwise, xport.AlgRing, xport.AlgBruck, xport.AlgDoubling} {
		for _, p := range []int{1, 2, 4, 5, 8} {
			name := fmt.Sprintf("%s/p%d", alg, p)
			_, err := collMachine(p).Run(func(r *Rank) {
				data := make([][]float64, p)
				sizes := make([]int, p)
				for i := range data {
					data[i] = []float64{float64(100*r.ID + i)}
					sizes[i] = 8
				}
				out := r.AllToAll(sizes, data, xport.CollOpts{Alg: alg, PerMessage: 1e-6})
				for src := 0; src < p; src++ {
					if len(out[src]) != 1 || out[src][0] != float64(100*src+r.ID) {
						panic(fmt.Sprintf("%s: block from %d corrupted: %v", name, src, out[src]))
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestAllToAllModelOnly(t *testing.T) {
	for _, alg := range []xport.Alg{xport.AlgPairwise, xport.AlgRing, xport.AlgBruck} {
		const p = 5
		res, err := collMachine(p).Run(func(r *Rank) {
			sizes := make([]int, p)
			for i := range sizes {
				if i != r.ID {
					sizes[i] = 1 << 10
				}
			}
			r.AllToAll(sizes, nil, xport.CollOpts{Alg: alg})
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		// Every modeled byte must be charged at least once regardless of
		// how the algorithm stages the blocks.
		if min := p * (p - 1) << 10; res.TotalBytes() < min {
			t.Errorf("%s: %d bytes < direct-exchange volume %d", alg, res.TotalBytes(), min)
		}
	}
}

func TestAllGatherDeliversPayloads(t *testing.T) {
	for _, alg := range []xport.Alg{xport.AlgPairwise, xport.AlgRing, xport.AlgDoubling} {
		for _, p := range []int{1, 2, 4, 5, 8} {
			name := fmt.Sprintf("%s/p%d", alg, p)
			_, err := collMachine(p).Run(func(r *Rank) {
				out := r.AllGather(8, []float64{float64(r.ID) * 3}, xport.CollOpts{Alg: alg})
				for src := 0; src < p; src++ {
					if len(out[src]) != 1 || out[src][0] != float64(src)*3 {
						panic(fmt.Sprintf("%s: origin %d block corrupted: %v", name, src, out[src]))
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestGatherToDeliversPayloads(t *testing.T) {
	for _, alg := range []xport.Alg{xport.AlgPairwise, xport.AlgRing, xport.AlgDoubling} {
		for _, root := range []int{0, 2} {
			const p = 5
			name := fmt.Sprintf("%s/root%d", alg, root)
			_, err := collMachine(p).Run(func(r *Rank) {
				out := r.GatherTo(root, 8, []float64{float64(r.ID) + 0.5}, xport.CollOpts{Alg: alg})
				if r.ID != root {
					if out != nil {
						panic(name + ": non-root got data")
					}
					return
				}
				for src := 0; src < p; src++ {
					if len(out[src]) != 1 || out[src][0] != float64(src)+0.5 {
						panic(fmt.Sprintf("%s: origin %d corrupted: %v", name, src, out[src]))
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

func TestBcastDeliversPayload(t *testing.T) {
	for _, alg := range []xport.Alg{xport.AlgPairwise, xport.AlgRing, xport.AlgDoubling} {
		for _, root := range []int{0, 2} {
			const p = 6
			name := fmt.Sprintf("%s/root%d", alg, root)
			_, err := collMachine(p).Run(func(r *Rank) {
				var mine []float64
				if r.ID == root {
					mine = []float64{42, 43}
				}
				got := r.Bcast(root, 16, mine, xport.CollOpts{Alg: alg})
				if len(got) != 2 || got[0] != 42 || got[1] != 43 {
					panic(fmt.Sprintf("%s: rank %d got %v", name, r.ID, got))
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestCollectiveEventEmission checks that a collective appears as exactly
// one labeled EvCollective per rank with its constituent sends, receives
// and per-message computes suppressed from the trace (stats still accrue).
func TestCollectiveEventEmission(t *testing.T) {
	const p = 4
	m := collMachine(p)
	m.Trace = &Trace{}
	res, err := m.Run(func(r *Rank) {
		r.AllToAll([]int{100, 100, 100, 100}, nil, xport.CollOpts{PerMessage: 1e-6})
	})
	if err != nil {
		t.Fatal(err)
	}
	var colls, others int
	for _, e := range m.Trace.Events() {
		switch e.Kind {
		case EvCollective:
			colls++
			if e.Label != "alltoall/pairwise" {
				t.Errorf("collective label = %q", e.Label)
			}
			if e.Bytes != 300 {
				t.Errorf("collective bytes = %d, want 300 sent inside", e.Bytes)
			}
		default:
			others++
		}
	}
	if colls != p {
		t.Errorf("%d collective events, want %d", colls, p)
	}
	if others != 0 {
		t.Errorf("%d constituent events leaked into the trace", others)
	}
	if res.TotalMessages() != p*(p-1) {
		t.Errorf("stats lost inner messages: %d", res.TotalMessages())
	}
}

// TestCollectivesUnderPhaseLabelReconcile is the satellite edge-case suite:
// collectives under an active phase label must bucket all their time so
// that per-phase totals reconcile exactly with each rank's final clock.
func TestCollectivesUnderPhaseLabelReconcile(t *testing.T) {
	const p = 5
	res, err := collMachine(p).Run(func(r *Rank) {
		r.BeginPhase("setup")
		r.Compute(5e-6)
		r.Barrier()
		r.BeginPhase("exchange")
		sizes := make([]int, p)
		for i := range sizes {
			sizes[i] = 512
		}
		r.AllToAll(sizes, nil, xport.CollOpts{Alg: xport.AlgRing, PerMessage: 1e-6})
		r.AllReduce([]float64{float64(r.ID)}, math.Max)
		r.BeginPhase("drain")
		r.GatherTo(0, 256, nil, xport.CollOpts{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range res.Ranks {
		sum := 0.0
		for _, ps := range s.Phases {
			sum += ps.Total()
		}
		if math.Abs(sum-s.FinalClock) > 1e-12 {
			t.Errorf("rank %d: phase totals %g != final clock %g", id, sum, s.FinalClock)
		}
		for _, label := range []string{"setup", "exchange", "drain"} {
			if _, ok := s.Phases[label]; !ok {
				t.Errorf("rank %d: phase %q has no bucket", id, label)
			}
		}
	}
}

func TestCollectivePrimitivesP1(t *testing.T) {
	res, err := collMachine(1).Run(func(r *Rank) {
		out := r.AllToAll([]int{0}, [][]float64{{7}}, xport.CollOpts{})
		if out[0][0] != 7 {
			panic("p=1 alltoall lost own block")
		}
		ag := r.AllGather(8, []float64{9}, xport.CollOpts{})
		if ag[0][0] != 9 {
			panic("p=1 allgather lost own block")
		}
		g := r.GatherTo(0, 8, []float64{4}, xport.CollOpts{})
		if g[0][0] != 4 {
			panic("p=1 gather lost own block")
		}
		if b := r.Bcast(0, 8, []float64{5}, xport.CollOpts{}); b[0] != 5 {
			panic("p=1 bcast lost data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.TotalMessages() != 0 {
		t.Errorf("p=1 collectives cost time or messages: %g, %d", res.Makespan, res.TotalMessages())
	}
}

// TestCollectivesDeterministicUnderShuffledScheduling perturbs goroutine
// interleaving with yields and checks the virtual-time results are
// bit-identical across runs — the determinism contract the simulator
// promises (run under -race in CI).
func TestCollectivesDeterministicUnderShuffledScheduling(t *testing.T) {
	const p = 8
	body := func(seed int) func(r *Rank) {
		return func(r *Rank) {
			sizes := make([]int, p)
			for i := range sizes {
				sizes[i] = 256 * (1 + (r.ID+i)%3)
			}
			for y := 0; y < (r.ID*7+seed)%5; y++ {
				runtime.Gosched()
			}
			r.AllToAll(sizes, nil, xport.CollOpts{Alg: xport.AlgBruck, PerMessage: 1e-6})
			runtime.Gosched()
			r.Barrier()
			r.AllReduce([]float64{float64(r.ID)}, func(a, b float64) float64 { return a + b })
			r.AllGather(128, nil, xport.CollOpts{Alg: xport.AlgRing})
		}
	}
	first, err := collMachine(p).Run(body(0))
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed < 5; seed++ {
		again, err := collMachine(p).Run(body(seed))
		if err != nil {
			t.Fatal(err)
		}
		if again.Makespan != first.Makespan {
			t.Fatalf("seed %d: makespan %g != %g", seed, again.Makespan, first.Makespan)
		}
		for id := range again.Ranks {
			a, b := again.Ranks[id], first.Ranks[id]
			if a.FinalClock != b.FinalClock || a.WaitTime != b.WaitTime ||
				a.ComputeTime != b.ComputeTime || a.CommTime != b.CommTime ||
				a.BytesSent != b.BytesSent || a.MsgsSent != b.MsgsSent {
				t.Fatalf("seed %d: rank %d stats differ", seed, id)
			}
		}
	}
}

func TestExchangePrimitiveMatchesLegacyBracketing(t *testing.T) {
	const p, pm = 4, 2e-6
	legacy, err := collMachine(p).Run(func(r *Rank) {
		next, prev := (r.ID+1)%p, (r.ID+p-1)%p
		r.Compute(pm)
		r.SendRecv(next, 3, xport.Msg{Bytes: 800}, prev, 3)
		r.Compute(pm)
	})
	if err != nil {
		t.Fatal(err)
	}
	prim, err := collMachine(p).Run(func(r *Rank) {
		next, prev := (r.ID+1)%p, (r.ID+p-1)%p
		r.Exchange(next, prev, 3, xport.Msg{Bytes: 800}, pm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if prim.Makespan != legacy.Makespan {
		t.Errorf("Exchange makespan %g != legacy %g", prim.Makespan, legacy.Makespan)
	}
}
