package sim

import (
	"testing"

	"genmp/internal/obs/metrics"
	"genmp/internal/xport"
	"genmp/internal/xport/mbox"
)

// ringBody is a small program exercising sends, receives, computes, a
// collective and the payload pool.
func ringBody(m *Machine) func(r *Rank) {
	return func(r *Rank) {
		next := (r.ID + 1) % m.P
		prev := (r.ID + m.P - 1) % m.P
		buf := r.GetPayload(16)
		for i := range buf {
			buf[i] = float64(r.ID)
		}
		got := r.SendRecv(next, 5, xport.Msg{Payload: buf}, prev, 5)
		r.PutPayload(got.Payload)
		r.Compute(1e-6)
		r.Barrier()
	}
}

func TestMachineMetricsCounters(t *testing.T) {
	reg := metrics.New()
	m := testMachine(4)
	m.Metrics = reg
	res, err := m.Run(ringBody(m))
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if v, _ := s.Value("sim_messages_total"); v != 4 {
		t.Errorf("sim_messages_total = %g, want 4", v)
	}
	if v, _ := s.Value("sim_bytes_total"); v != 4*16*8 {
		t.Errorf("sim_bytes_total = %g, want %d", v, 4*16*8)
	}
	if v, _ := s.Value("sim_link_bytes_total", metrics.L("link", "0->1")); v != 128 {
		t.Errorf("link 0->1 bytes = %g, want 128", v)
	}
	if _, ok := s.Value("sim_link_bytes_total", metrics.L("link", "0->2")); ok {
		t.Error("idle link 0->2 was registered")
	}
	if v, _ := s.Value("sim_collectives_total", metrics.L("op", "barrier")); v != 4 {
		t.Errorf("barrier invocations = %g, want 4", v)
	}
	if v, _ := s.Value("sim_runs_total"); v != 1 {
		t.Errorf("sim_runs_total = %g, want 1", v)
	}
	if v, _ := s.Value("sim_deadlocks_total"); v != 0 {
		t.Errorf("sim_deadlocks_total = %g, want 0", v)
	}
	if v, _ := s.Value("sim_makespan_seconds"); v != res.Makespan {
		t.Errorf("sim_makespan_seconds = %g, want %g", v, res.Makespan)
	}
	if v, _ := s.Value("sim_payload_pool_gets_total"); v != 4 {
		t.Errorf("pool gets = %g, want 4", v)
	}
	if v, _ := s.Value("sim_payload_pool_puts_total"); v != 4 {
		t.Errorf("pool puts = %g, want 4", v)
	}
	p, ok := s.Point("sim_message_bytes")
	if !ok || p.Count != 4 {
		t.Errorf("sim_message_bytes count = %d, want 4", p.Count)
	}
	// Second run on the same machine: counters accumulate, pool now hits.
	if _, err := m.Run(ringBody(m)); err != nil {
		t.Fatal(err)
	}
	s = reg.Snapshot()
	if v, _ := s.Value("sim_runs_total"); v != 2 {
		t.Errorf("sim_runs_total after 2nd run = %g, want 2", v)
	}
	// Hit counts depend on goroutine interleaving (a rank may return its
	// buffer before a peer requests one), but the second run recycles at
	// least its own four buffers.
	if v, _ := s.Value("sim_payload_pool_hits_total"); v < 4 {
		t.Errorf("pool hits after 2nd run = %g, want ≥ 4", v)
	}
	if v, _ := s.Value("sim_mailbox_envelopes_total", metrics.L("source", "reused")); v == 0 {
		t.Error("no envelope reuse recorded on the 2nd run")
	}
}

func TestMachineMetricsDeadlockAndStalls(t *testing.T) {
	reg := metrics.New()
	m := testMachine(2)
	m.Metrics = reg
	m.Fabric = WithContention(DefaultFabric(m.Net, m.P), m.P)
	if _, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			// Back-to-back sends from one rank: the second stalls behind the
			// first body on the egress link.
			r.Send(1, 1, xport.Msg{Bytes: 1 << 20})
			r.Send(1, 2, xport.Msg{Bytes: 1 << 20})
		} else {
			r.Recv(0, 1)
			r.Recv(0, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if v, _ := s.Value("sim_contention_stall_seconds_total"); v <= 0 {
		t.Errorf("contention stalls = %g, want > 0", v)
	}
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Recv(1, 1)
		}
	})
	if err == nil {
		t.Fatal("mismatched program did not deadlock")
	}
	s = reg.Snapshot()
	if v, _ := s.Value("sim_deadlocks_total"); v != 1 {
		t.Errorf("sim_deadlocks_total = %g, want 1", v)
	}
}

func TestDefaultMetricsFallback(t *testing.T) {
	reg := metrics.New()
	SetDefaultMetrics(reg)
	defer SetDefaultMetrics(nil)
	m := testMachine(2)
	if _, err := m.Run(ringBody(m)); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Snapshot().Value("sim_messages_total"); v != 2 {
		t.Errorf("default-registry sim_messages_total = %g, want 2", v)
	}
	if got := (&Rank{machine: m}).MetricsRegistry(); got != reg {
		t.Error("MetricsRegistry did not return the attached default registry")
	}
	// Detaching stops further reporting without touching old counts.
	SetDefaultMetrics(nil)
	if _, err := m.Run(ringBody(m)); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Snapshot().Value("sim_messages_total"); v != 2 {
		t.Errorf("detached registry still advanced: %g", v)
	}
}

// Metrics must not change virtual timing: makespans with and without a
// registry attached are bit-identical, including under contention.
func TestMetricsDoNotPerturbTiming(t *testing.T) {
	build := func(withReg bool) *Machine {
		m := testMachine(4)
		m.Fabric = WithContention(DefaultFabric(m.Net, m.P), m.P)
		if withReg {
			m.Metrics = metrics.New()
		}
		return m
	}
	body := func(m *Machine) func(r *Rank) {
		return func(r *Rank) {
			r.AllToAll([]int{512, 512, 512, 512}, nil, xport.CollOpts{})
			r.Compute(float64(r.ID) * 1e-6)
			r.Barrier()
		}
	}
	mp, mm := build(false), build(true)
	rp, err := mp.Run(body(mp))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := mm.Run(body(mm))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Makespan != rm.Makespan {
		t.Errorf("metrics changed makespan: %g != %g", rm.Makespan, rp.Makespan)
	}
}

func TestPoolAndMailboxStatsAccessors(t *testing.T) {
	m := testMachine(2)
	if s := m.PayloadPoolStats(); s != (mbox.PoolStats{}) {
		t.Errorf("fresh machine pool stats = %+v", s)
	}
	if s := m.MailboxStats(); s != (MailboxStats{}) {
		t.Errorf("fresh machine mailbox stats = %+v", s)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Run(ringBody(m)); err != nil {
			t.Fatal(err)
		}
	}
	ps := m.PayloadPoolStats()
	if ps.Gets != 6 || ps.Puts != 6 {
		t.Errorf("pool gets/puts = %d/%d, want 6/6", ps.Gets, ps.Puts)
	}
	// Warm-up allocates at most one buffer per rank; later runs recycle.
	if ps.Hits < 4 {
		t.Errorf("pool hits = %d, want ≥ 4 (steady state recycles)", ps.Hits)
	}
	if got := ps.HitRate(); got != float64(ps.Hits)/float64(ps.Gets) {
		t.Errorf("HitRate = %g", got)
	}
	if (mbox.PoolStats{}).HitRate() != 0 {
		t.Error("zero-traffic HitRate should be 0")
	}
	ms := m.MailboxStats()
	if ms.EnvelopesNew == 0 || ms.EnvelopesReused == 0 {
		t.Errorf("mailbox stats %+v: want both provenance counters nonzero", ms)
	}
}

// Per-message metric updates add no allocations on the send path. The
// differential form mirrors the repo's other alloc tests: measure the same
// program with metrics off and on; the delta must be zero.
func TestMetricsAddNoSendPathAllocs(t *testing.T) {
	run := func(withReg bool) float64 {
		m := testMachine(2)
		if withReg {
			m.Metrics = metrics.New()
		}
		// Warm up: resolve instruments, fill pools, register links.
		if _, err := m.Run(ringBody(m)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := m.Run(ringBody(m)); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := run(false)
	instrumented := run(true)
	if instrumented > base {
		t.Errorf("metrics add %v allocs/run over baseline %v", instrumented-base, base)
	}
}

func BenchmarkSendPathWithMetrics(b *testing.B) {
	m := testMachine(2)
	m.Metrics = metrics.New()
	body := ringBody(m)
	if _, err := m.Run(body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(body); err != nil {
			b.Fatal(err)
		}
	}
}
