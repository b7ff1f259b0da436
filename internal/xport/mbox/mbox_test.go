package mbox_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"genmp/internal/rt"
	"genmp/internal/sim"
	"genmp/internal/xport"
)

// backend runs one transport body on p ranks of one backend.
type backend struct {
	name string
	run  func(p int, body func(xport.Transport)) error
}

// backends returns the virtual-time simulator (with a flight recorder, so
// its error carries the post-mortem) and the goroutine runtime.
func backends() []backend {
	return []backend{
		{"sim", func(p int, body func(xport.Transport)) error {
			m := sim.NewMachine(p, sim.Network{Latency: 10e-6, Bandwidth: 100e6}, sim.CPU{FlopsPerSec: 1e9})
			m.Flight = sim.NewFlightRecorder(8)
			_, err := m.Run(func(r *sim.Rank) { body(r) })
			return err
		}},
		{"rt", func(p int, body func(xport.Transport)) error {
			_, err := rt.NewMachine(p).Run(func(r *rt.Rank) { body(r) })
			return err
		}},
	}
}

// runWatched runs body and turns a hang into a test failure after 5 s.
func runWatched(t *testing.T, be backend, p int, body func(xport.Transport)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- be.run(p, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: run hung instead of failing", be.name)
		return nil
	}
}

// Every deadlock shape fails fast on both backends with an error naming each
// blocked rank's receive (src, tag) or collective, and on rt its phase. A
// rank that panics simply exits; the peers it strands fail the same way.
func TestDeadlockShapesFailFast(t *testing.T) {
	sum := func(a, b float64) float64 { return a + b }
	cases := []struct {
		name string
		p    int
		body func(r xport.Transport)
		// blocked maps each stranded rank to where it must be named; a
		// panicking rank maps to its panic value.
		blocked map[int]string
		// undelivered is a sent-but-never-received line both backends list.
		undelivered string
	}{
		{
			name: "recv cycle, third rank exited",
			p:    3,
			body: func(r xport.Transport) {
				switch r.Rank() {
				case 0:
					r.Recv(1, 7)
				case 1:
					r.Recv(0, 7)
				case 2:
					r.Send(0, 9, xport.Msg{Bytes: 8})
				}
			},
			blocked:     map[int]string{0: "Recv(src=1, tag=7)", 1: "Recv(src=0, tag=7)"},
			undelivered: "sent but never received:\n  rank 2 -> rank 0 tag 9: 1 message(s), 8 bytes\n",
		},
		{
			name: "recv cycle, third rank in Barrier",
			p:    3,
			body: func(r xport.Transport) {
				switch r.Rank() {
				case 0:
					r.Recv(1, 7)
				case 1:
					r.Recv(0, 7)
				case 2:
					r.Barrier()
				}
			},
			blocked: map[int]string{0: "Recv(src=1, tag=7)", 1: "Recv(src=0, tag=7)", 2: "barrier"},
		},
		{
			name: "cycle through Irecv and Wait",
			p:    2,
			body: func(r xport.Transport) {
				peer := 1 - r.Rank()
				q := r.Irecv(peer, 3)
				q.Wait()
			},
			blocked: map[int]string{0: "Recv(src=1, tag=3)", 1: "Recv(src=0, tag=3)"},
		},
		{
			name: "Barrier against Recv",
			p:    2,
			body: func(r xport.Transport) {
				if r.Rank() == 0 {
					r.Barrier()
				} else {
					r.Recv(0, 4)
				}
			},
			blocked: map[int]string{0: "barrier", 1: "Recv(src=0, tag=4)"},
		},
		{
			name: "AllReduce after a rank exited",
			p:    3,
			body: func(r xport.Transport) {
				if r.Rank() != 2 {
					r.AllReduce([]float64{1}, sum)
				}
			},
			blocked: map[int]string{0: "allreduce", 1: "allreduce"},
		},
		{
			name: "panic while peers wait in AllReduce",
			p:    3,
			body: func(r xport.Transport) {
				if r.Rank() == 0 {
					r.Recv(1, 5)
					r.Recv(2, 5)
					panic("boom")
				}
				r.Send(0, 5, xport.Msg{Bytes: 8})
				r.AllReduce([]float64{1}, sum)
			},
			blocked: map[int]string{0: "boom", 1: "allreduce", 2: "allreduce"},
		},
		{
			// Rank 0 spins while rank 1 runs (when each rank has a CPU of
			// its own); rank 1's exit must end the spin.
			name: "Recv from a rank that computes and exits",
			p:    2,
			body: func(r xport.Transport) {
				if r.Rank() == 0 {
					r.Recv(1, 2)
					return
				}
				for start := time.Now(); time.Since(start) < time.Millisecond; {
				}
			},
			blocked: map[int]string{0: "Recv(src=1, tag=2)"},
		},
		{
			name: "panic while a peer waits in WaitAll",
			p:    2,
			body: func(r xport.Transport) {
				if r.Rank() == 0 {
					r.Recv(1, 6)
					panic("boom")
				}
				rq := r.Irecv(0, 5)
				sq := r.Isend(0, 6, xport.Msg{Bytes: 8})
				r.WaitAll(sq, rq)
			},
			blocked: map[int]string{0: "boom", 1: "Recv(src=0, tag=5)"},
		},
	}
	for _, tc := range cases {
		for _, be := range backends() {
			t.Run(be.name+"/"+tc.name, func(t *testing.T) {
				err := runWatched(t, be, tc.p, func(r xport.Transport) {
					r.BeginPhase("shape")
					tc.body(r)
				})
				if err == nil {
					t.Fatal("deadlocked program returned nil error")
				}
				msg := err.Error()
				lines := strings.Split(msg, "\n")
				for q, where := range tc.blocked {
					prefix := fmt.Sprintf("%s: rank %d: ", be.name, q)
					found := false
					for _, l := range lines {
						if strings.HasPrefix(l, prefix) && strings.Contains(l, where) &&
							(be.name != "rt" || where == "boom" || strings.HasSuffix(l, "[phase shape]")) {
							found = true
						}
					}
					if !found {
						t.Errorf("no %q line names %q (with the phase on rt):\n%s", prefix, where, msg)
					}
				}
				if !strings.Contains(msg, tc.undelivered) {
					t.Errorf("error does not list %q:\n%s", tc.undelivered, msg)
				}
			})
		}
	}
}

// The rendezvous calls combine without holding its lock, so a panicking
// combine ends only its own rank: the ranks waiting in the AllReduce fail
// instead of hanging.
func TestPanickingCombineFailsWaiters(t *testing.T) {
	for _, be := range backends() {
		err := runWatched(t, be, 3, func(r xport.Transport) {
			r.AllReduce([]float64{1}, func(a, b float64) float64 { panic("bad combine") })
		})
		if err == nil || !strings.Contains(err.Error(), "bad combine") {
			t.Fatalf("%s: want the combine panic in the error, got %v", be.name, err)
		}
		if n := strings.Count(err.Error(), "blocked in allreduce"); n != 2 {
			t.Errorf("%s: %d ranks named as blocked in allreduce, want 2:\n%v", be.name, n, err)
		}
	}
}

// AllReduce folds in ascending rank order whatever the arrival order, so
// every rank on every run gets the Float64bits of the rank-order left fold,
// and each rank gets its own copy.
func TestAllReduceRankOrder(t *testing.T) {
	const p, runs = 8, 200
	vals := []float64{1e16, 1, -1e16, 1, 0.1, 0.2, 0.3, 1e-3}
	want := vals[0]
	for _, v := range vals[1:] {
		want += v
	}
	for _, be := range backends() {
		rng := rand.New(rand.NewSource(1))
		for run := 0; run < runs; run++ {
			delay := rng.Perm(p) // perturbs the arrival order
			got := make([]float64, p)
			err := runWatched(t, be, p, func(r xport.Transport) {
				for i := 0; i < 4*delay[r.Rank()]; i++ {
					runtime.Gosched()
				}
				out := r.AllReduce([]float64{vals[r.Rank()]}, func(a, b float64) float64 { return a + b })
				got[r.Rank()] = out[0]
				out[0] = float64(r.Rank()) // must not reach any other rank
				r.Barrier()
			})
			if err != nil {
				t.Fatalf("%s run %d: %v", be.name, run, err)
			}
			for q, g := range got {
				if math.Float64bits(g) != math.Float64bits(want) {
					t.Fatalf("%s run %d: rank %d got %v (bits %#x), want the rank-order fold %v (bits %#x)",
						be.name, run, q, g, math.Float64bits(g), want, math.Float64bits(want))
				}
			}
		}
	}
}
