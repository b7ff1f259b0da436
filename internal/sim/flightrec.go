// The flight recorder is the machine's black box: a fixed-size ring of the
// most recent events per rank, recorded unconditionally (even inside
// collectives, where the timeline trace is suppressed) and without
// allocation, so it can stay on during long runs. When a run fails — a
// deadlock, a panic in a rank body — the recorder turns the one-line error
// into a post-mortem: each rank's last N events, what each blocked rank
// was waiting for, and which sent messages were never received. The rings
// can also be rendered as a Trace for Perfetto export of the final
// moments.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultFlightDepth is the per-rank ring size NewFlightRecorder uses for
// depth ≤ 0.
const DefaultFlightDepth = 64

// FlightRecorder is a bounded per-rank ring of recent events. Attach one
// to Machine.Flight before Run; it is reset (not grown) on every run.
// Recording is single-writer per ring — each rank records only its own
// events — and readers (the failure report, Trace) run only after the rank
// has blocked or exited, so no per-event locking is needed.
type FlightRecorder struct {
	depth int
	rings []flightRing
}

type flightRing struct {
	buf []Event
	n   int // total events recorded; buf[(n-1)%depth] is the newest
}

// NewFlightRecorder returns a recorder keeping the last depth events per
// rank (DefaultFlightDepth if depth ≤ 0).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{depth: depth}
}

// Depth returns the per-rank ring capacity.
func (f *FlightRecorder) Depth() int { return f.depth }

// attach sizes the rings for p ranks and clears the previous run's events;
// ring buffers are reused so repeated runs allocate nothing new.
func (f *FlightRecorder) attach(p int) {
	if len(f.rings) != p {
		f.rings = make([]flightRing, p)
	}
	for i := range f.rings {
		if f.rings[i].buf == nil {
			f.rings[i].buf = make([]Event, f.depth)
		}
		f.rings[i].n = 0
	}
}

// record stores one event in rank's ring, overwriting the oldest.
func (f *FlightRecorder) record(rank int, e Event) {
	rg := &f.rings[rank]
	rg.buf[rg.n%f.depth] = e
	rg.n++
}

// RankEvents returns rank's retained events, oldest first, and the total
// number the rank recorded (≥ len of the returned slice once the ring has
// wrapped).
func (f *FlightRecorder) RankEvents(rank int) (events []Event, total int) {
	if rank < 0 || rank >= len(f.rings) {
		return nil, 0
	}
	rg := &f.rings[rank]
	kept := rg.n
	if kept > f.depth {
		kept = f.depth
	}
	out := make([]Event, 0, kept)
	for i := rg.n - kept; i < rg.n; i++ {
		out = append(out, rg.buf[i%f.depth])
	}
	return out, rg.n
}

// Trace assembles the retained events of every rank into a Trace, suitable
// for obs.WriteTraceFile — a Perfetto fragment of the run's final moments.
func (f *FlightRecorder) Trace() *Trace {
	tr := &Trace{}
	for rank := range f.rings {
		events, _ := f.RankEvents(rank)
		for _, e := range events {
			tr.add(e)
		}
	}
	return tr
}

// formatFlightEvent renders one ring entry for the report.
func formatFlightEvent(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-12.6g %-10s", e.Start, e.Kind)
	switch e.Kind {
	case EvCompute:
		fmt.Fprintf(&b, " %.6gs", e.End-e.Start)
	case EvSend, EvIsend:
		fmt.Fprintf(&b, " -> rank %d tag %d (%d B)", e.Peer, e.Tag, e.Bytes)
	case EvRecv, EvWait:
		fmt.Fprintf(&b, " <- rank %d tag %d (%d B", e.Peer, e.Tag, e.Bytes)
		if e.Wait > 0 {
			fmt.Fprintf(&b, ", waited %.6gs", e.Wait)
		}
		b.WriteString(")")
	case EvIrecv:
		fmt.Fprintf(&b, " <- rank %d tag %d (posted)", e.Peer, e.Tag)
	case EvBlocked:
		fmt.Fprintf(&b, " <- rank %d tag %d (never completed)", e.Peer, e.Tag)
	case EvCollective:
		fmt.Fprintf(&b, " %s", e.Label)
		if e.Wait > 0 {
			fmt.Fprintf(&b, " (waited %.6gs)", e.Wait)
		}
	case EvMark:
		fmt.Fprintf(&b, " %q", e.Label)
	}
	if e.Phase != "" {
		fmt.Fprintf(&b, "  [phase %s]", e.Phase)
	}
	return b.String()
}

// FlightReport renders the post-mortem of the machine's most recent run:
// per rank, the receive or collective it failed blocked in (if any) and
// the last events in its ring, followed by the sent-but-never-received
// messages still queued in the mailbox. It is what Run appends to the error when a flight recorder is
// attached; callers can also invoke it directly after a failed run.
func (m *Machine) FlightReport() string {
	f := m.Flight
	if f == nil {
		return "sim: no flight recorder attached"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder (last %d events per rank):\n", f.depth)
	for rank := range f.rings {
		events, total := f.RankEvents(rank)
		fmt.Fprintf(&b, "rank %d", rank)
		if where := m.store.Stuck(rank); where != "" {
			fmt.Fprintf(&b, "  BLOCKED in %s", where)
		}
		fmt.Fprintf(&b, ":\n")
		if total > len(events) {
			fmt.Fprintf(&b, "  ... %d earlier event(s) overwritten\n", total-len(events))
		}
		for _, e := range events {
			fmt.Fprintf(&b, "  %s\n", formatFlightEvent(e))
		}
		if len(events) == 0 {
			fmt.Fprintf(&b, "  (no events recorded)\n")
		}
		if rank < len(m.ranks) && m.ranks[rank] != nil {
			if reqs := m.ranks[rank].PendingRequests(); len(reqs) > 0 {
				sort.Slice(reqs, func(a, b int) bool { return reqs[a].posted < reqs[b].posted })
				fmt.Fprintf(&b, "  un-Waited requests:\n")
				for _, q := range reqs {
					op, arrow := "irecv", "<-"
					if q.isSend {
						op, arrow = "isend", "->"
					}
					fmt.Fprintf(&b, "    %s %s rank %d tag %d, posted t=%.6g", op, arrow, q.peer, q.tag, q.posted)
					if q.phase != "" {
						fmt.Fprintf(&b, " [phase %s]", q.phase)
					}
					b.WriteString("\n")
				}
			}
		}
	}
	b.WriteString(m.store.Undelivered())
	return b.String()
}
