// Package xport is the transport abstraction every plan consumer runs
// against — the subset of the messaging machine the executors actually use,
// carved out of internal/sim so a compiled plan.SweepPlan can execute on
// any backend that implements it. Two implementations exist: sim.Rank (the
// deterministic virtual-time machine, the repo's performance model) and
// rt.Rank (real OS goroutines with shared-memory mailboxes, measured in
// wall-clock time). The executors in dist, dmem and redist are written
// against Transport alone, so schedule and transport cannot drift: the same
// compiled schedule replays bit-identically on both.
//
// The package also hosts the transport-neutral vocabulary the interface
// needs: the message struct, the global tag registry, and the collective
// algorithm/options types. Its subpackage mbox is the message store both
// backends share, so they match messages, meet in collectives and detect
// deadlock by one set of rules.
package xport

import "genmp/internal/obs/metrics"

// Msg is a point-to-point message. Bytes is the modeled size (8·len(
// Payload) if left 0 with a payload); Payload optionally carries real data
// and is handed off zero-copy — ownership transfers to the receiver, which
// recycles it via PutPayload.
type Msg struct {
	Src, Tag int
	Bytes    int
	Payload  []float64
}

// Request is the handle of one outstanding nonblocking operation. Every
// request must be completed by exactly one Wait (or via WaitAll). Waited
// requests may be recycled by the transport — do not retain or reuse them
// after Wait.
type Request interface {
	// Wait completes the operation: for receives it blocks until the message
	// is matched and returns it; for sends it returns the zero Msg.
	Wait() Msg
	// IsSend reports whether the request belongs to a send.
	IsSend() bool
	// Peer returns the counterpart rank (destination for sends, source for
	// receives).
	Peer() int
	// Tag returns the request's message tag.
	Tag() int
}

// Transport is one rank's view of the messaging machine: point-to-point
// sends and receives (blocking and nonblocking), the collectives, payload
// pooling, and the cost-accounting hooks (Compute/ComputeFlops advance a
// virtual clock on the simulator and are free on a real backend, where time
// passes by itself). All methods are called from the rank's own goroutine.
type Transport interface {
	// Rank returns this rank's id in [0, P).
	Rank() int
	// P returns the machine's rank count.
	P() int

	// BeginPhase labels subsequent activity (profiling/tracing); it returns
	// the previous label so nested libraries can restore it.
	BeginPhase(label string) (prev string)
	// Compute accounts seconds of modeled computation (virtual-time
	// backends advance the clock; real backends do nothing — the work
	// itself took the time).
	Compute(seconds float64)
	// ComputeFlops accounts flops of modeled computation.
	ComputeFlops(flops float64)

	// Send posts a message to dst; sends are eager (buffered) and never
	// block against the receiver.
	Send(dst, tag int, m Msg)
	// Recv blocks until the next message from src with the given tag.
	Recv(src, tag int) Msg
	// SendRecv posts the send and then receives (safe in rings and shifts
	// because sends never block).
	SendRecv(dst, sendTag int, m Msg, src, recvTag int) Msg
	// Isend posts a nonblocking send; Irecv preposts a receive. Both return
	// a Request that must be Waited exactly once.
	Isend(dst, tag int, m Msg) Request
	Irecv(src, tag int) Request
	// WaitAll completes every non-nil request in order.
	WaitAll(reqs ...Request)

	// Barrier synchronizes all ranks.
	Barrier()
	// AllReduce combines each rank's values elementwise in ascending rank
	// order and returns each rank its own copy of the combined vector.
	AllReduce(vals []float64, combine func(a, b float64) float64) []float64
	// AllToAll exchanges sizes[dst] bytes (and data[dst], when non-nil) with
	// every peer; out[src] holds the payload received from src.
	AllToAll(sizes []int, data [][]float64, o CollOpts) [][]float64
	// AllGather shares each rank's block with everyone.
	AllGather(size int, mine []float64, o CollOpts) [][]float64
	// GatherTo collects every rank's block at root (nil elsewhere).
	GatherTo(root, size int, mine []float64, o CollOpts) [][]float64
	// Bcast distributes root's block to every rank.
	Bcast(root, size int, data []float64, o CollOpts) []float64
	// Exchange pairs a send to dst with a receive from src under one tag,
	// bracketed by perMessage CPU overhead on each side.
	Exchange(dst, src, tag int, m Msg, perMessage float64) Msg

	// GetPayload returns a pooled buffer of n float64s; PutPayload recycles
	// one (steady-state messaging allocates nothing).
	GetPayload(n int) []float64
	PutPayload(buf []float64)

	// MetricsRegistry returns the live registry run activity mirrors into,
	// or nil when metrics are off.
	MetricsRegistry() *metrics.Registry
}
