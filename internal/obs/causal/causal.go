// Package causal materializes the happens-before DAG of a traced run and
// answers scheduling questions about it: which events sit on the makespan's
// critical path, how much each phase, link and event kind is to blame for
// the final time, how much slack every off-path event has, and — via a
// what-if replayer — what the makespan would become under a perturbation
// (a faster or slower link, a wait overlapped away, a carry message posted
// before its phase's interior compute finishes) without rerunning the
// simulator.
//
// The DAG has one node per trace event and three edge families:
//
//   - program order: consecutive events of one rank,
//   - messages: each send paired with the receive that consumed it, k-th
//     send with k-th recv per (src, dst, tag) channel — the machine's FIFO
//     delivery order,
//   - collectives: hyperedges joining the g-th collective event of every
//     rank into one rendezvous group (every rank participates in every
//     collective, in the same order).
//
// Replay is observational: every quantity is reconstructed from the trace
// alone, and the identity perturbation reproduces the recorded makespan
// bit-exactly (the arithmetic is organized as shifts against observed
// values, so an unperturbed node's replayed end is the observed float, not
// a recomputation of it).
package causal

import (
	"fmt"
	"sort"

	"genmp/internal/sim"
)

// Channel identifies one FIFO point-to-point channel.
type Channel struct{ Src, Dst, Tag int }

// Matcher pairs sends with receives on per-(src, dst, tag) FIFO channels.
// It is the one channel-matching implementation shared by the busy-time
// critical-path estimate (BusyCriticalPath) and the DAG builder: both sides
// push event indices in the order encountered, and the k-th send on a
// channel pairs with the k-th recv.
type Matcher struct {
	ch map[Channel]*chanQueue
}

type chanQueue struct {
	sends, recvs []int
	taken        int // sends consumed by TakeSend
}

// NewMatcher returns an empty matcher.
func NewMatcher() *Matcher { return &Matcher{ch: make(map[Channel]*chanQueue)} }

func (m *Matcher) queue(c Channel) *chanQueue {
	q := m.ch[c]
	if q == nil {
		q = &chanQueue{}
		m.ch[c] = q
	}
	return q
}

// AddSend records the next send on the channel.
func (m *Matcher) AddSend(c Channel, id int) { q := m.queue(c); q.sends = append(q.sends, id) }

// AddRecv records the next receive on the channel.
func (m *Matcher) AddRecv(c Channel, id int) { q := m.queue(c); q.recvs = append(q.recvs, id) }

// TakeSend consumes and returns the oldest not-yet-taken send on the
// channel (streaming FIFO semantics, for consumers that walk events in an
// order where every send precedes its matching recv).
func (m *Matcher) TakeSend(c Channel) (int, bool) {
	q := m.ch[c]
	if q == nil || q.taken >= len(q.sends) {
		return 0, false
	}
	id := q.sends[q.taken]
	q.taken++
	return id, true
}

// Pairs calls f for every matched (send, recv) pair, k-th with k-th per
// channel. Unpaired residue on either side is reported by Unmatched.
func (m *Matcher) Pairs(f func(send, recv int)) {
	for _, q := range m.ch {
		n := len(q.sends)
		if len(q.recvs) < n {
			n = len(q.recvs)
		}
		for i := 0; i < n; i++ {
			f(q.sends[i], q.recvs[i])
		}
	}
}

// Unmatched returns how many sends never met a recv and how many recvs
// never met a send. Both are zero for the complete trace of a finished run.
func (m *Matcher) Unmatched() (sends, recvs int) {
	for _, q := range m.ch {
		if d := len(q.sends) - len(q.recvs); d > 0 {
			sends += d
		} else {
			recvs += -d
		}
	}
	return sends, recvs
}

// Node is one trace event in the DAG, with its structural edges resolved.
type Node struct {
	Ev sim.Event
	ID int
	// Prev and Next are the same-rank program-order neighbors (−1 at the
	// ends of a rank's timeline).
	Prev, Next int
	// Match is the counterpart of a message edge: for a recv, the node of
	// the send that produced its message; for a send, the recv that
	// consumed it. −1 when unpaired (truncated trace).
	Match int
	// Group is the collective rendezvous group id (−1 for non-collectives).
	Group int
}

// DAG is the happens-before graph of one traced run.
type DAG struct {
	P     int
	Nodes []Node
	// ByRank lists each rank's node ids in program order.
	ByRank [][]int
	// Groups lists the member node ids of each collective rendezvous.
	Groups [][]int
	// Makespan is the maximum observed event end — the final clock of the
	// slowest rank, since every clock advance of a traced run is an event.
	Makespan float64
	// MsgEdges counts matched send→recv pairs.
	MsgEdges int
	// events keeps the trace's (start, rank)-sorted event order for the
	// busy-time critical-path estimate, whose tie-breaking depends on it.
	events []sim.Event
}

// Build materializes the DAG from a trace. EvBlocked events (flight-
// recorder markers, not timeline activity) and events with ranks outside
// [0, p) are skipped, mirroring the critical-path estimate.
func Build(tr *sim.Trace, p int) (*DAG, error) {
	if tr == nil {
		return nil, fmt.Errorf("causal: nil trace")
	}
	if p < 1 {
		return nil, fmt.Errorf("causal: need p ≥ 1, got %d", p)
	}
	return build(tr.Events(), p)
}

func build(events []sim.Event, p int) (*DAG, error) {
	d := &DAG{P: p, ByRank: make([][]int, p), events: events}
	m := NewMatcher()
	collOrdinal := make([]int, p)
	for _, e := range events {
		if e.Kind == sim.EvBlocked || e.Rank < 0 || e.Rank >= p {
			continue
		}
		id := len(d.Nodes)
		n := Node{Ev: e, ID: id, Prev: -1, Next: -1, Match: -1, Group: -1}
		if rn := d.ByRank[e.Rank]; len(rn) > 0 {
			n.Prev = rn[len(rn)-1]
			d.Nodes[n.Prev].Next = id
		}
		switch e.Kind {
		case sim.EvSend, sim.EvIsend:
			m.AddSend(Channel{Src: e.Rank, Dst: e.Peer, Tag: e.Tag}, id)
		case sim.EvRecv, sim.EvWait:
			// A nonblocking receive's cost accrues at Wait, whose event
			// carries the same (start, wait, end) arithmetic as a blocking
			// recv; the zero-duration EvIrecv post marker stays a plain node.
			m.AddRecv(Channel{Src: e.Peer, Dst: e.Rank, Tag: e.Tag}, id)
		case sim.EvCollective:
			g := collOrdinal[e.Rank]
			collOrdinal[e.Rank]++
			for len(d.Groups) <= g {
				d.Groups = append(d.Groups, nil)
			}
			n.Group = g
			d.Groups[g] = append(d.Groups[g], id)
		}
		d.Nodes = append(d.Nodes, n)
		d.ByRank[e.Rank] = append(d.ByRank[e.Rank], id)
		if e.End > d.Makespan {
			d.Makespan = e.End
		}
	}
	m.Pairs(func(send, recv int) {
		d.Nodes[send].Match = recv
		d.Nodes[recv].Match = send
		d.MsgEdges++
	})
	return d, nil
}

// Rank iterates one rank's nodes in program order.
func (d *DAG) Rank(r int) []int { return d.ByRank[r] }

// BusyCriticalPath estimates the longest dependency chain of busy time
// (compute plus communication overhead, excluding blocked waits) through
// the traced run — the scalar obs.Profile reports as CriticalPath. The
// result is a lower bound on the makespan of any schedule that
// preserves the dependence structure and per-event work.
func (d *DAG) BusyCriticalPath() float64 { return BusyCriticalPath(d.events, d.P) }

// BusyCriticalPath is the busy-chain estimate over a raw event list; see
// DAG.BusyCriticalPath. Events are processed in completion order — every
// dependency edge u→v satisfies u.End ≤ v.End (same-rank events are
// sequential, a message's send completes before its recv, collective
// members share one synchronization) — with the shared FIFO Matcher
// pairing message edges.
func BusyCriticalPath(events []sim.Event, p int) float64 {
	ordered := make([]sim.Event, len(events))
	copy(ordered, events)
	sort.SliceStable(ordered, func(a, b int) bool {
		if ordered[a].End != ordered[b].End {
			return ordered[a].End < ordered[b].End
		}
		return ordered[a].Rank < ordered[b].Rank
	})

	rankCP := make([]float64, p)
	m := NewMatcher()
	sendCP := make([]float64, len(ordered)) // chain length just after each send
	type collGroup struct {
		seen  int
		maxIn float64
		cost  float64
		ranks []int
	}
	collCount := make([]int, p) // collectives completed per rank → group index
	groups := map[int]*collGroup{}

	for i, e := range ordered {
		if e.Rank < 0 || e.Rank >= p {
			continue
		}
		switch e.Kind {
		case sim.EvSend, sim.EvIsend:
			cp := rankCP[e.Rank] + e.Busy()
			rankCP[e.Rank] = cp
			sendCP[i] = cp
			m.AddSend(Channel{Src: e.Rank, Dst: e.Peer, Tag: e.Tag}, i)
		case sim.EvRecv, sim.EvWait:
			in := rankCP[e.Rank]
			if id, ok := m.TakeSend(Channel{Src: e.Peer, Dst: e.Rank, Tag: e.Tag}); ok {
				if sendCP[id] > in {
					in = sendCP[id]
				}
			}
			rankCP[e.Rank] = in + e.Busy()
		case sim.EvCollective:
			g := collCount[e.Rank]
			collCount[e.Rank]++
			grp := groups[g]
			if grp == nil {
				grp = &collGroup{}
				groups[g] = grp
			}
			if in := rankCP[e.Rank]; in > grp.maxIn {
				grp.maxIn = in
			}
			if b := e.Busy(); b > grp.cost {
				grp.cost = b
			}
			grp.ranks = append(grp.ranks, e.Rank)
			grp.seen++
			if grp.seen == p {
				out := grp.maxIn + grp.cost
				for _, r := range grp.ranks {
					rankCP[r] = out
				}
				delete(groups, g)
			}
		case sim.EvBlocked:
			// Flight-recorder markers, not timeline activity: a blocked
			// interval must never count as busy chain time.
		default: // compute, mark
			rankCP[e.Rank] += e.Busy()
		}
	}
	// Unfinished collective groups (a rank exited early): settle with what
	// was seen.
	for _, grp := range groups {
		out := grp.maxIn + grp.cost
		for _, r := range grp.ranks {
			if out > rankCP[r] {
				rankCP[r] = out
			}
		}
	}
	cp := 0.0
	for _, v := range rankCP {
		if v > cp {
			cp = v
		}
	}
	return cp
}
