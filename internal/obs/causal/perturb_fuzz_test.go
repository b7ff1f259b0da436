package causal_test

import (
	"math"
	"testing"

	"genmp/internal/obs/causal"
	"genmp/internal/sim"
	"genmp/internal/xport"
)

// FuzzParsePerturbations feeds arbitrary text through the `critpath
// -whatif` path: ParsePerturbations either fails or returns perturbations
// with a finite factor ≥ 0 and a frac in [0, 1], and replaying what parses
// on a small 3-rank trace never panics and, when it succeeds, yields a
// finite makespan. The seeds are the TestParsePerturbations* cases.
//
//	go test ./internal/obs/causal -run '^$' -fuzz FuzzParsePerturbations -fuzztime 60s
func FuzzParsePerturbations(f *testing.F) {
	for _, c := range parseCases {
		f.Add(c.expr)
	}
	for _, c := range parseErrorCases {
		f.Add(c.expr)
	}
	d, err := causal.Build(ringTrace(f), 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		perts, err := causal.ParsePerturbations(expr)
		if err != nil {
			return
		}
		for _, p := range perts {
			if math.IsNaN(p.Factor) || math.IsInf(p.Factor, 0) || p.Factor < 0 || !(p.Frac >= 0 && p.Frac <= 1) {
				t.Fatalf("%q: accepted %+v", expr, p)
			}
		}
		s, err := d.Replay(perts...)
		if err != nil {
			return
		}
		if math.IsNaN(s.Makespan) || math.IsInf(s.Makespan, 0) {
			t.Fatalf("%q: replayed makespan %g", expr, s.Makespan)
		}
	})
}

// ringTrace records two steps of a 3-rank ring on the simulator: uneven
// compute, blocking and nonblocking sends in two phases, and a barrier.
func ringTrace(tb testing.TB) *sim.Trace {
	m := sim.NewMachine(3, sim.Network{Latency: 1e-6, Bandwidth: 1e9}, sim.CPU{FlopsPerSec: 1e9})
	m.Trace = &sim.Trace{}
	_, err := m.Run(func(r *sim.Rank) {
		next, prev := (r.ID+1)%3, (r.ID+2)%3
		for step := 0; step < 2; step++ {
			r.BeginPhase("solve0")
			r.Compute(1e-4 * float64(1+r.ID))
			r.Send(next, 1, xport.Msg{Bytes: 800})
			r.Recv(prev, 1)
			r.BeginPhase("halo")
			q := r.Irecv(prev, 2)
			r.Compute(5e-5)
			r.WaitAll(r.Isend(next, 2, xport.Msg{Bytes: 80}), q)
			r.Barrier()
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m.Trace
}
