package sim

import (
	"strings"
	"testing"

	"genmp/internal/xport"
)

// A deliberately deadlocked 2-rank program: rank 0 sends to rank 1 on tag
// 7 and then waits for a reply on tag 8 that rank 1 never sends (it waits
// on tag 9 instead). The flight report must name the blocked send/recv
// pair on both sides.
func TestFlightReportNamesDeadlockedPair(t *testing.T) {
	m := testMachine(2)
	m.Flight = NewFlightRecorder(16)
	_, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 7, xport.Msg{Bytes: 64})
			r.Recv(1, 8) // never satisfied
		} else {
			r.Recv(0, 9) // wrong tag: rank 0 sent tag 7
		}
	})
	if err == nil {
		t.Fatal("deadlocked program returned nil error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlock") {
		t.Fatalf("error does not mention deadlock:\n%s", msg)
	}
	for _, want := range []string{
		"flight recorder",
		"rank 0  BLOCKED in Recv(src=1, tag=8)",
		"rank 1  BLOCKED in Recv(src=0, tag=9)",
		"-> rank 1 tag 7",                   // rank 0's completed send
		"<- rank 1 tag 8 (never completed)", // rank 0's blocked recv
		"<- rank 0 tag 9 (never completed)", // rank 1's blocked recv
		"sent but never received:",
		"rank 0 -> rank 1 tag 7: 1 message(s), 64 bytes",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("flight report missing %q:\n%s", want, msg)
		}
	}
	// One side timed out blocked: the deadlock counter path and report must
	// also be reachable directly.
	if rep := m.FlightReport(); !strings.Contains(rep, "BLOCKED") {
		t.Errorf("direct FlightReport lost the blocked state:\n%s", rep)
	}
}

func TestFlightRingKeepsLastEvents(t *testing.T) {
	m := testMachine(1)
	m.Flight = NewFlightRecorder(4)
	if m.Flight.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", m.Flight.Depth())
	}
	if _, err := m.Run(func(r *Rank) {
		for i := 0; i < 10; i++ {
			r.Compute(1e-6)
		}
	}); err != nil {
		t.Fatal(err)
	}
	events, total := m.Flight.RankEvents(0)
	if total != 10 {
		t.Errorf("total = %d, want 10", total)
	}
	if len(events) != 4 {
		t.Fatalf("kept %d events, want 4", len(events))
	}
	// Oldest-first: the last 4 of 10 computes start at 6e-6 .. 9e-6.
	for i, e := range events {
		if e.Kind != EvCompute {
			t.Errorf("event %d kind %v, want compute", i, e.Kind)
		}
		want := float64(6+i) * 1e-6
		if diff := e.Start - want; diff > 1e-18 || diff < -1e-18 {
			t.Errorf("event %d start %g, want %g", i, e.Start, want)
		}
	}
	if ev, total := m.Flight.RankEvents(99); ev != nil || total != 0 {
		t.Error("out-of-range rank should report no events")
	}
	report := m.FlightReport()
	if !strings.Contains(report, "... 6 earlier event(s) overwritten") {
		t.Errorf("report missing overwrite note:\n%s", report)
	}
}

// The recorder sees events inside collectives (where the trace is quiet),
// and its Trace() renders the retained window for Perfetto export.
func TestFlightRecorderSeesInsideCollectives(t *testing.T) {
	m := testMachine(4)
	m.Flight = NewFlightRecorder(64)
	m.Trace = &Trace{}
	if _, err := m.Run(func(r *Rank) {
		r.AllToAll([]int{8, 8, 8, 8}, nil, xport.CollOpts{})
	}); err != nil {
		t.Fatal(err)
	}
	countKind := func(events []Event, k EventKind) int {
		n := 0
		for _, e := range events {
			if e.Kind == k {
				n++
			}
		}
		return n
	}
	events, _ := m.Flight.RankEvents(0)
	if countKind(events, EvSend) == 0 {
		t.Error("flight ring missing the sends inside the collective")
	}
	if countKind(events, EvCollective) != 1 {
		t.Errorf("flight ring has %d collective events, want 1", countKind(events, EvCollective))
	}
	// The timeline trace stays collective-only — no leaked inner events.
	for _, e := range m.Trace.Events() {
		if e.Kind == EvSend || e.Kind == EvRecv {
			t.Fatalf("trace leaked inner %v event from collective", e.Kind)
		}
	}
	if m.Flight.Trace().Len() != len(events)*m.P {
		t.Errorf("Flight.Trace() has %d events, want %d", m.Flight.Trace().Len(), len(events)*m.P)
	}
	if m.FlightReport() == "" {
		t.Error("healthy-run FlightReport empty")
	}
	if (&Machine{}).FlightReport() == "" {
		t.Error("recorder-less FlightReport empty")
	}
}

// Flight recording must not change timing: makespans with and without the
// recorder (and with a panicking rank) are bit-identical.
func TestFlightRecorderDoesNotPerturbTiming(t *testing.T) {
	run := func(m *Machine) float64 {
		res, err := m.Run(func(r *Rank) {
			next := (r.ID + 1) % m.P
			prev := (r.ID + m.P - 1) % m.P
			r.Compute(float64(r.ID+1) * 1e-6)
			r.SendRecv(next, 3, xport.Msg{Bytes: 256}, prev, 3)
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	plain := run(testMachine(4))
	mf := testMachine(4)
	mf.Flight = NewFlightRecorder(8)
	if got := run(mf); got != plain {
		t.Errorf("flight recorder changed makespan: %g != %g", got, plain)
	}
}
