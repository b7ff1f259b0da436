package sim

import (
	"strings"
	"testing"

	"genmp/internal/xport"
)

func TestTraceCollectsEvents(t *testing.T) {
	m := testMachine(2)
	m.Trace = &Trace{}
	res, err := m.Run(func(r *Rank) {
		r.Compute(1e-3)
		if r.ID == 0 {
			r.Send(1, 0, xport.Msg{Bytes: 100})
		} else {
			r.Recv(0, 0)
		}
		r.Mark("done")
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	events := m.Trace.Events()
	kinds := map[EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.End < e.Start {
			t.Errorf("event %+v ends before it starts", e)
		}
		if e.End > res.Makespan+1e-12 {
			t.Errorf("event %+v extends beyond the makespan %g", e, res.Makespan)
		}
	}
	if kinds[EvCompute] != 2 || kinds[EvSend] != 1 || kinds[EvRecv] != 1 || kinds[EvCollective] != 2 || kinds[EvMark] != 2 {
		t.Errorf("event counts %v", kinds)
	}
	// Sorted by start time.
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			t.Fatal("events not sorted")
		}
	}
}

func TestTraceSendRecvPeersAndBytes(t *testing.T) {
	m := testMachine(2)
	m.Trace = &Trace{}
	if _, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 5, xport.Msg{Bytes: 4096})
		} else {
			r.Recv(0, 5)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Trace.Events() {
		switch e.Kind {
		case EvSend:
			if e.Rank != 0 || e.Peer != 1 || e.Bytes != 4096 {
				t.Errorf("send event %+v", e)
			}
		case EvRecv:
			if e.Rank != 1 || e.Peer != 0 || e.Bytes != 4096 {
				t.Errorf("recv event %+v", e)
			}
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	m := testMachine(3)
	m.Trace = &Trace{}
	res, err := m.Run(func(r *Rank) {
		r.Compute(float64(r.ID+1) * 1e-3)
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.Trace.RenderTimeline(&sb, 3, res.Makespan, 60); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "rank   0") || !strings.Contains(out, "rank   2") {
		t.Errorf("timeline missing rank rows:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "|") {
		t.Errorf("timeline missing compute/collective glyphs:\n%s", out)
	}
	// Rank 2 computes ~3× longer: its compute bar should be the longest.
	lines := strings.Split(out, "\n")
	count := func(s string) int { return strings.Count(s, "#") }
	if count(lines[2]) <= count(lines[0]) {
		t.Errorf("rank 2 bar (%d) not longer than rank 0 (%d):\n%s", count(lines[2]), count(lines[0]), out)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := testMachine(2)
	if _, err := m.Run(func(r *Rank) {
		r.Compute(1e-3)
		r.Mark("x")
	}); err != nil {
		t.Fatal(err)
	}
	if m.Trace != nil {
		t.Fatal("trace should stay nil unless set")
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvCompute: "compute", EvSend: "send", EvRecv: "recv", EvCollective: "collective", EvMark: "mark",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// Regression: width values in [10, 18) used to panic in the footer's
// strings.Repeat(" ", width-18) with a negative count.
func TestRenderTimelineNarrowWidthNoPanic(t *testing.T) {
	m := testMachine(2)
	m.Trace = &Trace{}
	res, err := m.Run(func(r *Rank) { r.Compute(1e-3) })
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{0, 5, 10, 11, 17, 18, 19} {
		var sb strings.Builder
		if err := m.Trace.RenderTimeline(&sb, 2, res.Makespan, width); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !strings.Contains(sb.String(), "makespan") {
			t.Fatalf("width %d: footer missing:\n%s", width, sb.String())
		}
	}
}

// Regression: a non-positive makespan used to silently render an all-idle
// chart (and, before that, feed a division by zero into colOf); it must be
// an explicit error now.
func TestRenderTimelineNonPositiveMakespan(t *testing.T) {
	m := testMachine(2)
	m.Trace = &Trace{}
	if _, err := m.Run(func(r *Rank) { r.Compute(1e-3) }); err != nil {
		t.Fatal(err)
	}
	for _, makespan := range []float64{0, -1} {
		var sb strings.Builder
		if err := m.Trace.RenderTimeline(&sb, 2, makespan, 60); err == nil {
			t.Fatalf("makespan %g: want error, got output:\n%s", makespan, sb.String())
		}
	}
}

func TestEventPhaseAndWait(t *testing.T) {
	m := testMachine(2)
	m.Trace = &Trace{}
	if _, err := m.Run(func(r *Rank) {
		r.BeginPhase("p0")
		if r.ID == 0 {
			r.Compute(5e-3) // make rank 1 wait on the recv
			r.Send(1, 7, xport.Msg{Bytes: 64})
		} else {
			r.Recv(0, 7)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sawRecvWait := false
	for _, e := range m.Trace.Events() {
		if e.Phase != "p0" {
			t.Errorf("event %+v missing phase label", e)
		}
		if e.Kind == EvRecv {
			if e.Tag != 7 {
				t.Errorf("recv event tag = %d, want 7", e.Tag)
			}
			if e.Wait > 0 {
				sawRecvWait = true
			}
			if e.Busy() < 0 {
				t.Errorf("recv busy %g < 0", e.Busy())
			}
		}
	}
	if !sawRecvWait {
		t.Error("recv event did not record its wait portion")
	}
}

// TestTraceEventsOrdering pins the Events() contract consumers rely on
// (the causal DAG builder, the Perfetto exporter, the profile): sorted by
// start time with rank breaking ties, stable for identical keys, and
// independent of insertion order.
func TestTraceEventsOrdering(t *testing.T) {
	tr := &Trace{}
	tr.Append(
		Event{Rank: 1, Kind: EvCompute, Start: 2, End: 3, Peer: -1},
		Event{Rank: 0, Kind: EvCompute, Start: 2, End: 2.5, Peer: -1},
		Event{Rank: 0, Kind: EvSend, Start: 0, End: 0.1, Peer: 1, Label: "first"},
		Event{Rank: 0, Kind: EvMark, Start: 0, End: 0, Peer: -1, Label: "second"},
	)
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Start < ev[i-1].Start {
			t.Fatalf("events not sorted by start: %g after %g", ev[i].Start, ev[i-1].Start)
		}
		if ev[i].Start == ev[i-1].Start && ev[i].Rank < ev[i-1].Rank {
			t.Fatalf("rank tie-break broken at %d", i)
		}
	}
	// Stability: the two rank-0 events at Start 0 keep insertion order.
	if ev[0].Label != "first" || ev[1].Label != "second" {
		t.Errorf("equal-key events reordered: %q before %q", ev[0].Label, ev[1].Label)
	}
	// Events returns a copy: mutating it must not corrupt the trace.
	ev[0].Rank = 99
	if tr.Events()[0].Rank == 99 {
		t.Error("Events() exposed internal storage")
	}
}

// TestEventBusyWithWait pins Busy() = End − Start − Wait for a synthetic
// event and for every traced event of a run with real blocking.
func TestEventBusyWithWait(t *testing.T) {
	e := Event{Start: 1, End: 4, Wait: 2.5}
	if got := e.Busy(); got != 0.5 {
		t.Errorf("Busy() = %g, want 0.5", got)
	}
	m := testMachine(2)
	m.Trace = &Trace{}
	if _, err := m.Run(func(r *Rank) {
		if r.ID == 0 {
			r.Compute(3e-3)
			r.Send(1, 0, xport.Msg{Bytes: 64})
		} else {
			r.Recv(0, 0)
		}
		r.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	sawWait := false
	for _, e := range m.Trace.Events() {
		if e.Wait < 0 {
			t.Errorf("event %+v has negative wait", e)
		}
		if e.Wait > 0 {
			sawWait = true
		}
		if b := e.Busy(); b < 0 || b > e.End-e.Start {
			t.Errorf("event %+v busy %g outside [0, duration]", e, b)
		}
	}
	if !sawWait {
		t.Error("run recorded no waiting event (rank 1 should block on the recv)")
	}
}

func TestParseEventKindRoundTrip(t *testing.T) {
	for _, k := range []EventKind{EvCompute, EvSend, EvRecv, EvCollective, EvMark, EvBlocked} {
		got, err := ParseEventKind(k.String())
		if err != nil {
			t.Errorf("%v: %v", k, err)
			continue
		}
		if got != k {
			t.Errorf("ParseEventKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseEventKind("warp"); err == nil {
		t.Error("unknown kind accepted")
	}
}
