package causal_test

import (
	"testing"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/nas"
	"genmp/internal/obs"
	"genmp/internal/obs/causal"
	"genmp/internal/obs/metrics"
	"genmp/internal/partition"
	"genmp/internal/sim"
)

// runSP executes a traced NAS SP run (class S grid) on p processors with
// the optimal multipartitioning, returning the trace and result.
func runSP(t *testing.T, p, steps int) (*sim.Trace, sim.Result) {
	t.Helper()
	eta := nas.ClassS.Eta
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, len(eta), obj)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.DHPF())
	if err != nil {
		t.Fatal(err)
	}
	mach := nas.Origin2000Machine(p)
	mach.Trace = &sim.Trace{}
	res, err := nas.Run(env, mach, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mach.Trace, res
}

func TestMatcherFIFOPairing(t *testing.T) {
	m := causal.NewMatcher()
	ch := causal.Channel{Src: 0, Dst: 1, Tag: 7}
	other := causal.Channel{Src: 1, Dst: 0, Tag: 7}
	m.AddSend(ch, 10)
	m.AddSend(ch, 11)
	m.AddSend(other, 12)
	m.AddRecv(ch, 20)
	m.AddRecv(ch, 21)

	pairs := map[int]int{}
	m.Pairs(func(s, r int) { pairs[s] = r })
	if len(pairs) != 2 || pairs[10] != 20 || pairs[11] != 21 {
		t.Errorf("pairs = %v, want 10→20, 11→21 (k-th send with k-th recv)", pairs)
	}
	if s, r := m.Unmatched(); s != 1 || r != 0 {
		t.Errorf("unmatched = (%d, %d), want (1, 0): the send on the reverse channel", s, r)
	}
}

func TestMatcherTakeSendStreams(t *testing.T) {
	m := causal.NewMatcher()
	ch := causal.Channel{Src: 2, Dst: 3, Tag: 0}
	if _, ok := m.TakeSend(ch); ok {
		t.Fatal("TakeSend on an empty channel succeeded")
	}
	m.AddSend(ch, 1)
	m.AddSend(ch, 2)
	if id, ok := m.TakeSend(ch); !ok || id != 1 {
		t.Errorf("first TakeSend = (%d, %v), want (1, true)", id, ok)
	}
	if id, ok := m.TakeSend(ch); !ok || id != 2 {
		t.Errorf("second TakeSend = (%d, %v), want (2, true)", id, ok)
	}
	if _, ok := m.TakeSend(ch); ok {
		t.Error("third TakeSend succeeded on a drained channel")
	}
}

// TestBuildSynthetic checks the DAG's structural edges on a hand-written
// two-rank trace: compute → send on rank 0, recv → compute on rank 1, one
// collective joining both.
func TestBuildSynthetic(t *testing.T) {
	tr := &sim.Trace{}
	tr.Append(
		sim.Event{Rank: 0, Kind: sim.EvCompute, Start: 0, End: 1, Peer: -1, Phase: "a"},
		sim.Event{Rank: 0, Kind: sim.EvSend, Start: 1, End: 1.1, Peer: 1, Tag: 3, Bytes: 8, Phase: "a"},
		sim.Event{Rank: 1, Kind: sim.EvRecv, Start: 0, End: 1.3, Peer: 0, Tag: 3, Bytes: 8, Wait: 1.2, Phase: "a"},
		sim.Event{Rank: 1, Kind: sim.EvCompute, Start: 1.3, End: 2.3, Peer: -1, Phase: "a"},
		sim.Event{Rank: 0, Kind: sim.EvCollective, Start: 1.1, End: 2.5, Peer: -1, Wait: 1.3, Label: "barrier"},
		sim.Event{Rank: 1, Kind: sim.EvCollective, Start: 2.3, End: 2.5, Peer: -1, Wait: 0.1, Label: "barrier"},
		// A flight-recorder marker that must be skipped entirely.
		sim.Event{Rank: 0, Kind: sim.EvBlocked, Start: 0, End: 99, Peer: 1},
	)
	d, err := causal.Build(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 6 {
		t.Fatalf("built %d nodes, want 6 (EvBlocked skipped)", len(d.Nodes))
	}
	if d.Makespan != 2.5 {
		t.Errorf("makespan = %g, want 2.5 (blocked event must not extend it)", d.Makespan)
	}
	// The marker carries End > Start but is pure waiting: the busy chain
	// must not count it either.
	var busy []sim.Event
	for _, e := range tr.Events() {
		if e.Kind != sim.EvBlocked {
			busy = append(busy, e)
		}
	}
	if got, want := causal.BusyCriticalPath(tr.Events(), 2), causal.BusyCriticalPath(busy, 2); got != want || want <= 0 {
		t.Errorf("busy critical path with EvBlocked = %g, without %g (blocked time counted as busy)", got, want)
	}
	if d.MsgEdges != 1 {
		t.Errorf("message edges = %d, want 1", d.MsgEdges)
	}
	var send, recv *causal.Node
	for i := range d.Nodes {
		switch d.Nodes[i].Ev.Kind {
		case sim.EvSend:
			send = &d.Nodes[i]
		case sim.EvRecv:
			recv = &d.Nodes[i]
		}
	}
	if send == nil || recv == nil || send.Match != recv.ID || recv.Match != send.ID {
		t.Fatalf("send/recv not cross-matched: send %+v recv %+v", send, recv)
	}
	if send.Prev < 0 || d.Nodes[send.Prev].Ev.Kind != sim.EvCompute {
		t.Errorf("send's program-order predecessor is not the compute event")
	}
	if len(d.Groups) != 1 || len(d.Groups[0]) != 2 {
		t.Errorf("groups = %v, want one group of 2", d.Groups)
	}
	for _, r := range []int{0, 1} {
		ids := d.Rank(r)
		for k := 1; k < len(ids); k++ {
			if d.Nodes[ids[k]].Prev != ids[k-1] {
				t.Errorf("rank %d program order broken at %d", r, k)
			}
		}
	}
}

// TestBusyCriticalPathMatchesObs pins the delegation: the DAG's busy-chain
// scalar and the profile's CriticalPath are the same computation.
func TestBusyCriticalPathMatchesObs(t *testing.T) {
	tr, res := runSP(t, 4, 2)
	d, err := causal.Build(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.BusyCriticalPath(), obs.NewProfile(res, tr).CriticalPath; got != want {
		t.Errorf("DAG busy critical path %.17g != profile CriticalPath %.17g", got, want)
	}
}

// TestMsgEdgesMatchMetricsCounter cross-checks two independent message
// counts on the same run: the DAG's matched send→recv edges and the live
// metrics registry's sim_messages_total counter.
func TestMsgEdgesMatchMetricsCounter(t *testing.T) {
	eta := nas.ClassS.Eta
	p := 4
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, len(eta), obj)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.DHPF())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	mach := nas.Origin2000Machine(p)
	mach.Trace = &sim.Trace{}
	mach.Metrics = reg
	res, err := nas.Run(env, mach, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := causal.Build(mach.Trace, p)
	if err != nil {
		t.Fatal(err)
	}
	counted, _ := reg.Snapshot().Value("sim_messages_total")
	if float64(d.MsgEdges) != counted {
		t.Errorf("DAG matched %d message edges, metrics counted %g", d.MsgEdges, counted)
	}
	if d.MsgEdges != res.TotalMessages() {
		t.Errorf("DAG matched %d message edges, result reports %d", d.MsgEdges, res.TotalMessages())
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := causal.Build(nil, 4); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := causal.Build(&sim.Trace{}, 0); err == nil {
		t.Error("p=0 accepted")
	}
}
