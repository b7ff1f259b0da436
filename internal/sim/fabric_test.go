package sim

import (
	"math"
	"testing"

	"genmp/internal/xport"
)

// mixedWorkload exercises point-to-point traffic of varied sizes plus both
// modeled collectives — the paths whose timing the fabric refactor must
// not move.
func mixedWorkload(r *Rank) {
	p := r.P()
	if p == 1 {
		return
	}
	next, prev := (r.ID+1)%p, (r.ID+p-1)%p
	r.Compute(3e-6 * float64(r.ID+1))
	r.SendRecv(next, 1, xport.Msg{Bytes: 1000 + 13*r.ID}, prev, 1)
	r.Barrier()
	r.SendRecv(prev, 2, xport.Msg{Bytes: 77}, next, 2)
	r.AllReduce([]float64{float64(r.ID)}, math.Max)
}

func TestDefaultFabricBitIdentical(t *testing.T) {
	for _, scaling := range []BandwidthScaling{ScalePerProcessor, FixedBus} {
		net := Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6, Scaling: scaling}
		cpu := CPU{FlopsPerSec: 1e9}
		base, err := NewMachine(7, net, cpu).Run(mixedWorkload)
		if err != nil {
			t.Fatal(err)
		}
		explicit := NewMachine(7, net, cpu)
		explicit.Fabric = DefaultFabric(explicit.Net, 7)
		got, err := explicit.Run(mixedWorkload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != base.Makespan {
			t.Errorf("scaling %v: explicit default fabric makespan %g != nil-fabric %g",
				scaling, got.Makespan, base.Makespan)
		}
		for id := range got.Ranks {
			if got.Ranks[id].FinalClock != base.Ranks[id].FinalClock {
				t.Errorf("scaling %v: rank %d clock %g != %g",
					scaling, id, got.Ranks[id].FinalClock, base.Ranks[id].FinalClock)
			}
		}
	}
}

func TestDefaultFabricNames(t *testing.T) {
	net := Network{Latency: 1e-6, Bandwidth: 1e8}
	if n := DefaultFabric(net, 4).Name(); n != "crossbar" {
		t.Errorf("scalable default = %q, want crossbar", n)
	}
	net.Scaling = FixedBus
	if n := DefaultFabric(net, 4).Name(); n != "bus" {
		t.Errorf("bus default = %q, want bus", n)
	}
}

func TestNewFabric(t *testing.T) {
	net := Network{Latency: 1e-6, Bandwidth: 1e8}
	for _, name := range FabricNames() {
		f, err := NewFabric(name, net, 8)
		if err != nil {
			t.Fatalf("NewFabric(%q): %v", name, err)
		}
		if f.Name() != name {
			t.Errorf("NewFabric(%q).Name() = %q", name, f.Name())
		}
	}
	if f, err := NewFabric("bus+contention", net, 8); err != nil || f.Name() != "bus+contention" {
		t.Errorf("bus+contention: %v, %v", f, err)
	}
	if _, err := NewFabric("torus", net, 8); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestHypercubeHopLatency(t *testing.T) {
	net := Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6}
	m := NewMachine(4, net, CPU{FlopsPerSec: 1e9})
	m.Fabric = NewHypercube(m.Net, 4)
	res, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(3, 9, xport.Msg{Bytes: 1000})
		} else if r.ID == 3 {
			r.Recv(0, 9)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 0→3 is 2 hops: 1µs send overhead + 2·10µs head + 10µs body + 1µs
	// recv overhead.
	want := 1e-6 + 2*10e-6 + 10e-6 + 1e-6
	if math.Abs(res.Makespan-want) > 1e-15 {
		t.Errorf("2-hop makespan = %g, want %g", res.Makespan, want)
	}
}

func TestHypercubeMeanHeadLatency(t *testing.T) {
	net := Network{Latency: 10e-6, Bandwidth: 100e6}
	if got := NewHypercube(net, 2).MeanHeadLatency(); got != 10e-6 {
		t.Errorf("p=2 mean head = %g, want latency", got)
	}
	// p=4: xor distances over ordered pairs are 1,1,2 per rank (×4 ranks),
	// mean hops = 16/12 = 4/3.
	want := 10e-6 * 4 / 3
	if got := NewHypercube(net, 4).MeanHeadLatency(); math.Abs(got-want) > 1e-18 {
		t.Errorf("p=4 mean head = %g, want %g", got, want)
	}
}

func TestContentionSerializesEgress(t *testing.T) {
	net := Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6}
	body := func(r *Rank) {
		switch r.ID {
		case 0:
			r.Send(1, 1, xport.Msg{Bytes: 1000})
			r.Send(2, 2, xport.Msg{Bytes: 1000})
		case 1:
			r.Recv(0, 1)
		case 2:
			r.Recv(0, 2)
		}
	}
	plain, err := NewMachine(3, net, CPU{FlopsPerSec: 1e9}).Run(body)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(3, net, CPU{FlopsPerSec: 1e9})
	m.Fabric = WithContention(NewCrossbar(m.Net, 3), 3)
	queued, err := m.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	// Plain crossbar: the second message departs at 2µs, arrives 2+10+10,
	// +1 recv = 23µs. With egress contention it cannot depart before the
	// first body clears the link at 1+10 = 11µs: 11+10+10+1 = 32µs.
	if math.Abs(plain.Makespan-23e-6) > 1e-15 {
		t.Errorf("plain makespan = %g, want 23µs", plain.Makespan)
	}
	if math.Abs(queued.Makespan-32e-6) > 1e-15 {
		t.Errorf("contended makespan = %g, want 32µs", queued.Makespan)
	}
}

// TestContentionDeterministic reruns an all-to-all burst on a contended
// fabric: timing must be bit-identical across runs (the occupancy state is
// per-sender and reset by Run), regardless of goroutine scheduling.
func TestContentionDeterministic(t *testing.T) {
	net := Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6}
	m := NewMachine(8, net, CPU{FlopsPerSec: 1e9})
	m.Fabric = WithContention(NewHypercube(m.Net, 8), 8)
	body := func(r *Rank) {
		p := r.P()
		for off := 1; off < p; off++ {
			r.Send((r.ID+off)%p, 5, xport.Msg{Bytes: 4096})
		}
		for off := 1; off < p; off++ {
			r.Recv((r.ID+off)%p, 5)
		}
	}
	first, err := m.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, err := m.Run(body)
		if err != nil {
			t.Fatal(err)
		}
		if again.Makespan != first.Makespan {
			t.Fatalf("run %d: makespan %g != %g", i, again.Makespan, first.Makespan)
		}
		for id := range again.Ranks {
			if again.Ranks[id].FinalClock != first.Ranks[id].FinalClock {
				t.Fatalf("run %d: rank %d clock differs", i, id)
			}
		}
	}
}

func TestCollectiveCostRingAlgorithm(t *testing.T) {
	net := Network{Latency: 10e-6, Bandwidth: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6}
	barrier := func(r *Rank) { r.Barrier() }
	tree, err := NewMachine(8, net, CPU{FlopsPerSec: 1e9}).Run(barrier)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewMachine(8, net, CPU{FlopsPerSec: 1e9})
	ring.Coll = xport.AlgRing
	rres, err := ring.Run(barrier)
	if err != nil {
		t.Fatal(err)
	}
	per := 1e-6 + 1e-6 + 10e-6
	if math.Abs(tree.Makespan-3*per) > 1e-15 {
		t.Errorf("tree barrier = %g, want 3 rounds", tree.Makespan)
	}
	if math.Abs(rres.Makespan-7*per) > 1e-15 {
		t.Errorf("ring barrier = %g, want 7 rounds", rres.Makespan)
	}
}
