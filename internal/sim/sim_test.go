package sim

import (
	"math"
	"strings"
	"testing"

	"genmp/internal/xport"
)

func testMachine(p int) *Machine {
	return NewMachine(p,
		Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6},
		CPU{FlopsPerSec: 1e9})
}

func TestPingPongTiming(t *testing.T) {
	m := testMachine(2)
	res, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 7, xport.Msg{Bytes: 1000})
		} else {
			msg := r.Recv(0, 7)
			if msg.Bytes != 1000 || msg.Src != 0 || msg.Tag != 7 {
				panic("bad message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 clock: arrival (1µs send overhead + 10µs latency + 10µs
	// transfer) + 1µs recv overhead = 22µs.
	want := 22e-6
	if math.Abs(res.Makespan-want) > 1e-12 {
		t.Errorf("makespan = %g, want %g", res.Makespan, want)
	}
	if res.TotalBytes() != 1000 || res.TotalMessages() != 1 {
		t.Errorf("totals: %d bytes, %d msgs", res.TotalBytes(), res.TotalMessages())
	}
}

func TestPayloadDelivery(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, xport.Msg{Payload: []float64{1, 2, 3}})
		} else {
			msg := r.Recv(0, 0)
			if len(msg.Payload) != 3 || msg.Payload[2] != 3 {
				panic("payload corrupted")
			}
			if msg.Bytes != 24 {
				panic("payload byte count not inferred")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderPerChannel(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < 20; i++ {
				r.Send(1, 3, xport.Msg{Payload: []float64{float64(i)}})
			}
		} else {
			for i := 0; i < 20; i++ {
				msg := r.Recv(0, 3)
				if msg.Payload[0] != float64(i) {
					panic("out of order delivery")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsAreIndependent(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, xport.Msg{Payload: []float64{1}})
			r.Send(1, 2, xport.Msg{Payload: []float64{2}})
		} else {
			// Receive in reverse tag order.
			if r.Recv(0, 2).Payload[0] != 2 {
				panic("tag 2 wrong")
			}
			if r.Recv(0, 1).Payload[0] != 1 {
				panic("tag 1 wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := testMachine(1)
	res, err := m.Run(func(r *Rank) {
		r.Compute(0.5)
		r.ComputeFlops(1e9) // 1 more second at 1 Gflop/s
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-1.5) > 1e-12 {
		t.Errorf("makespan = %g, want 1.5", res.Makespan)
	}
	if math.Abs(res.Ranks[0].ComputeTime-1.5) > 1e-12 {
		t.Errorf("compute time = %g", res.Ranks[0].ComputeTime)
	}
}

func TestWaitTimeAccounting(t *testing.T) {
	m := testMachine(2)
	res, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Compute(1.0)
			r.Send(1, 0, xport.Msg{Bytes: 8})
		} else {
			r.Recv(0, 0) // idles ~1 second
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[1].WaitTime < 0.99 {
		t.Errorf("rank 1 wait time = %g, want ≈ 1", res.Ranks[1].WaitTime)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	// A ring shift with staggered compute: rerun many times, the virtual
	// makespan must be bit-identical (scheduling independence).
	run := func() float64 {
		m := testMachine(8)
		res, err := m.Run(func(r *Rank) {
			for round := 0; round < 5; round++ {
				r.Compute(float64(r.ID+1) * 1e-4)
				next := (r.ID + 1) % r.P()
				prev := (r.ID + r.P() - 1) % r.P()
				r.SendRecv(next, round, xport.Msg{Bytes: 4096}, prev, round)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: makespan %g ≠ %g", i, got, first)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := testMachine(4)
	res, err := m.Run(func(r *Rank) {
		r.Compute(float64(r.ID) * 0.1) // rank 3 reaches 0.3
		r.Barrier()
		if r.Clock() < 0.3 {
			panic("barrier did not advance clock to the latest rank")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 0.3 {
		t.Errorf("makespan = %g", res.Makespan)
	}
}

func TestAllReduce(t *testing.T) {
	m := testMachine(4)
	_, err := m.Run(func(r *Rank) {
		sum := r.AllReduce([]float64{float64(r.ID), 1}, func(a, b float64) float64 { return a + b })
		if sum[0] != 6 || sum[1] != 4 {
			panic("allreduce sum wrong")
		}
		max := r.AllReduce([]float64{float64(r.ID)}, math.Max)
		if max[0] != 3 {
			panic("allreduce max wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		// Both ranks wait for a message that is never sent.
		r.Recv((r.ID+1)%2, 9)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestRecvAfterPeerExitsIsDeadlock(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 1 {
			r.Recv(0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestPanicInBodyIsReturned(t *testing.T) {
	m := testMachine(1)
	_, err := m.Run(func(r *Rank) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestFixedBusScaling(t *testing.T) {
	// On a bus, the same message takes p× longer to transfer.
	scal := NewMachine(8, Network{Latency: 0, Bandwidth: 1e6, Scaling: ScalePerProcessor}, CPU{FlopsPerSec: 1})
	bus := NewMachine(8, Network{Latency: 0, Bandwidth: 1e6, Scaling: FixedBus}, CPU{FlopsPerSec: 1})
	if got := scal.Net.Transit(1e6); math.Abs(got-1) > 1e-12 {
		t.Errorf("scalable transit = %g, want 1", got)
	}
	if got := bus.Net.Transit(1e6); math.Abs(got-8) > 1e-12 {
		t.Errorf("bus transit = %g, want 8", got)
	}
}

func TestSendRecvRingDoesNotDeadlock(t *testing.T) {
	m := testMachine(16)
	_, err := m.Run(func(r *Rank) {
		next := (r.ID + 1) % r.P()
		prev := (r.ID + r.P() - 1) % r.P()
		got := r.SendRecv(next, 0, xport.Msg{Payload: []float64{float64(r.ID)}}, prev, 0)
		if got.Payload[0] != float64(prev) {
			panic("ring value wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRankPanics(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(5, 0, xport.Msg{})
		}
	})
	if err == nil {
		t.Fatal("send to invalid rank should error")
	}
}

func TestStatsTotals(t *testing.T) {
	m := testMachine(2)
	res, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 0, xport.Msg{Bytes: 100})
			r.Send(1, 0, xport.Msg{Bytes: 200})
		} else {
			r.Recv(0, 0)
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].MsgsSent != 2 || res.Ranks[0].BytesSent != 300 {
		t.Errorf("sender stats: %+v", res.Ranks[0])
	}
	if res.Ranks[1].MsgsRecv != 2 || res.Ranks[1].BytesRecv != 300 {
		t.Errorf("receiver stats: %+v", res.Ranks[1])
	}
}

func TestP1Collectives(t *testing.T) {
	m := testMachine(1)
	res, err := m.Run(func(r *Rank) {
		r.Barrier()
		v := r.AllReduce([]float64{42}, math.Max)
		if v[0] != 42 {
			panic("p=1 allreduce")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Errorf("p=1 collectives should be free, makespan = %g", res.Makespan)
	}
}

// The per-phase buckets must tile the whole-run counters exactly, and the
// accounting identity compute+comm+wait = FinalClock must hold per rank.
func TestPhaseStatsPartitionTotals(t *testing.T) {
	m := testMachine(2)
	res, err := m.Run(func(r *Rank) {
		r.Compute(1e-3) // lands in the unlabeled phase
		r.BeginPhase("exchange")
		if r.ID == 0 {
			r.Send(1, 3, xport.Msg{Bytes: 1 << 12})
			r.Recv(1, 4)
		} else {
			r.Send(0, 4, xport.Msg{Bytes: 256})
			r.Recv(0, 3)
		}
		r.BeginPhase("reduce")
		r.AllReduce([]float64{float64(r.ID)}, func(a, b float64) float64 { return a + b })
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range res.Ranks {
		var comp, comm, wait float64
		var msgsSent, bytesSent, msgsRecv, bytesRecv int
		for _, ps := range s.Phases {
			comp += ps.ComputeTime
			comm += ps.CommTime
			wait += ps.WaitTime
			msgsSent += ps.MsgsSent
			bytesSent += ps.BytesSent
			msgsRecv += ps.MsgsRecv
			bytesRecv += ps.BytesRecv
		}
		if math.Abs(comp-s.ComputeTime) > 1e-12 || math.Abs(comm-s.CommTime) > 1e-12 || math.Abs(wait-s.WaitTime) > 1e-12 {
			t.Errorf("rank %d: phase buckets (%g,%g,%g) do not tile totals (%g,%g,%g)",
				id, comp, comm, wait, s.ComputeTime, s.CommTime, s.WaitTime)
		}
		if msgsSent != s.MsgsSent || bytesSent != s.BytesSent || msgsRecv != s.MsgsRecv || bytesRecv != s.BytesRecv {
			t.Errorf("rank %d: phase traffic does not tile totals", id)
		}
		if got := s.ComputeTime + s.CommTime + s.WaitTime; math.Abs(got-s.FinalClock) > 1e-12 {
			t.Errorf("rank %d: compute+comm+wait = %g, FinalClock = %g", id, got, s.FinalClock)
		}
		if math.Abs(s.FinalClock+s.IdleTime-res.Makespan) > 1e-12 {
			t.Errorf("rank %d: FinalClock+IdleTime = %g, makespan = %g", id, s.FinalClock+s.IdleTime, res.Makespan)
		}
		if len(s.Phases) != 3 {
			t.Errorf("rank %d: want 3 phase buckets (unlabeled, exchange, reduce), got %v", id, len(s.Phases))
		}
		if s.Phases["exchange"].MsgsSent != 1 || s.Phases["exchange"].MsgsRecv != 1 {
			t.Errorf("rank %d: exchange bucket traffic %+v", id, s.Phases["exchange"])
		}
	}
	// Peer buckets: rank 0 sent 4096 bytes to peer 1 and received 256 back.
	p0 := res.Ranks[0].Peers[1]
	if p0.BytesSent != 1<<12 || p0.BytesRecv != 256 || p0.MsgsSent != 1 || p0.MsgsRecv != 1 {
		t.Errorf("rank 0 peer-1 IO %+v", p0)
	}
}

func TestBeginPhaseRestores(t *testing.T) {
	m := testMachine(1)
	if _, err := m.Run(func(r *Rank) {
		if prev := r.BeginPhase("outer"); prev != "" {
			t.Errorf("first BeginPhase returned %q", prev)
		}
		if prev := r.BeginPhase("inner"); prev != "outer" {
			t.Errorf("nested BeginPhase returned %q", prev)
		}
		r.BeginPhase("outer")
		if r.Phase() != "outer" {
			t.Errorf("Phase() = %q", r.Phase())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A phase with no activity leaves no bucket, any activity — even a
// zero-length Compute — creates one, and returning to a label keeps
// accumulating into its bucket.
func TestPhaseBucketsOnlyForActivePhases(t *testing.T) {
	m := testMachine(1)
	res, err := m.Run(func(r *Rank) {
		r.BeginPhase("idle")
		r.BeginPhase("zero")
		r.Compute(0)
		r.BeginPhase("a")
		r.Compute(1e-3)
		r.BeginPhase("idle")
		r.BeginPhase("a")
		r.Compute(2e-3)
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Ranks[0].Phases
	if len(ph) != 2 {
		t.Fatalf("phases %v, want exactly zero and a", res.Ranks[0].PhaseLabels())
	}
	if _, ok := ph["zero"]; !ok {
		t.Error("Compute(0) created no bucket")
	}
	if got := ph["a"].ComputeTime; got != 1e-3+2e-3 {
		t.Errorf("phase a compute = %g, want %g", got, 1e-3+2e-3)
	}
}

// Rank.Stats called mid-run returns the per-phase and per-peer totals so
// far, as a snapshot later activity does not change.
func TestRankStatsMidRun(t *testing.T) {
	m := testMachine(2)
	_, err := m.Run(func(r *Rank) {
		peer := 1 - r.ID
		r.BeginPhase("x")
		if r.ID == 0 {
			r.Send(peer, 1, xport.Msg{Bytes: 100})
		} else {
			r.Recv(peer, 1)
		}
		s := r.Stats()
		x, io := s.Phases["x"], s.Peers[peer]
		if r.ID == 0 && (x.MsgsSent != 1 || x.BytesSent != 100 || io.MsgsSent != 1 || io.BytesSent != 100) {
			t.Errorf("rank 0 mid-run: phase %+v, peer %+v", x, io)
		}
		if r.ID == 1 && (x.MsgsRecv != 1 || x.BytesRecv != 100 || io.MsgsRecv != 1 || io.BytesRecv != 100) {
			t.Errorf("rank 1 mid-run: phase %+v, peer %+v", x, io)
		}
		if x.Total() != s.ComputeTime+s.CommTime+s.WaitTime {
			t.Errorf("rank %d: phase x total %g, run totals %g", r.ID, x.Total(), s.ComputeTime+s.CommTime+s.WaitTime)
		}
		r.BeginPhase("y")
		r.Compute(1e-3)
		r.Send(peer, 2, xport.Msg{Bytes: 8})
		if later := r.Stats(); later.Phases["y"].ComputeTime != 1e-3 || later.Peers[peer].MsgsSent != io.MsgsSent+1 {
			t.Errorf("rank %d: later snapshot %+v", r.ID, later)
		}
		if len(s.Phases) != 1 || s.Peers[peer] != io {
			t.Errorf("rank %d: earlier snapshot changed: %+v", r.ID, s)
		}
		r.Recv(peer, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
}
