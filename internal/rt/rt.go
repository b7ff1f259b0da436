// Package rt is the real-parallel runtime: the second implementation of
// xport.Transport, executing the same compiled schedules as the virtual-
// time simulator on real OS goroutines measured in wall-clock time. One
// goroutine runs per rank; messages move through the message core both
// backends share (internal/xport/mbox: per-channel FIFO queues in
// per-rank inboxes), carrying line-major SoA carry panels zero-copy — a
// Send hands the payload slice to the receiver, exactly the ownership
// discipline the executors already follow for the simulator's pooled
// payloads. The same core detects deadlock exactly: once every live rank
// waits on a receive or in Barrier/AllReduce, the run fails with each
// blocked rank's receive or collective and phase instead of hanging. A
// receive whose message has not arrived spins, yielding the processor,
// while its sender is still running and every rank has a CPU of its own
// (P ≤ min(GOMAXPROCS, NumCPU)), and parks only once the sender waits too
// or a rank has exited: at p=2 that saves the futex park and wake-up on
// most of a sweep's small carries. An oversubscribed machine never spins.
//
// The cost-accounting hooks of the interface are free here: Compute and
// ComputeFlops do nothing, because on a real backend the work itself took
// the time. Sends are eager (the queue is unbounded), so the virtual-time
// machine's no-blocking-send invariant holds and every schedule that runs
// on sim runs here unchanged; preposting receives keeps the MPI completion
// discipline the schedules were built around. Field data is bit-identical
// between the two backends because both execute the same plan phase order
// and the kernels are deterministic — the identity tests in dmem assert
// Float64bits equality across backends.
package rt

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"genmp/internal/obs/metrics"
	"genmp/internal/xport"
	"genmp/internal/xport/mbox"
)

// Machine is a real-parallel machine of P ranks. Zero-value fields are
// valid; a Machine may be reused across Runs, one at a time (its message
// store and payload pool persist and are reset per Run).
type Machine struct {
	P int

	store mbox.Store
}

// NewMachine returns a real-parallel machine of p ranks.
func NewMachine(p int) *Machine {
	if p < 1 {
		panic(fmt.Sprintf("rt: machine needs p ≥ 1 ranks, got %d", p))
	}
	return &Machine{P: p}
}

// Stats is one rank's message traffic for a run.
type Stats struct {
	MsgsSent   int
	BytesSent  int
	MsgsRecvd  int
	BytesRecvd int
}

// Result summarizes one Run: the wall-clock duration from launching the
// rank goroutines to the last one returning, and per-rank traffic.
type Result struct {
	Wall  time.Duration
	Ranks []Stats
}

// TotalMessages sums the messages sent across ranks.
func (res Result) TotalMessages() int {
	n := 0
	for _, s := range res.Ranks {
		n += s.MsgsSent
	}
	return n
}

// TotalBytes sums the bytes sent across ranks.
func (res Result) TotalBytes() int {
	n := 0
	for _, s := range res.Ranks {
		n += s.BytesSent
	}
	return n
}

// Rank is one rank's view of the machine — the rt implementation of
// xport.Transport. All methods must be called from the rank's own
// goroutine (the body passed to Run).
type Rank struct {
	ID int

	machine *Machine
	phase   string
	stats   Stats
}

var _ xport.Transport = (*Rank)(nil)

// Run executes body on every rank concurrently and returns the run's
// Result. A panic in any rank ends that rank; peers it leaves blocked fail
// with the deadlock diagnosis, and every failure is returned as one error
// that also lists the messages sent but never received.
func (m *Machine) Run(body func(r *Rank)) (Result, error) {
	st := &m.store
	st.Reset(m.P, nil)
	ranks := make([]*Rank, m.P)
	errs := make([]error, m.P)
	var wg sync.WaitGroup
	start := time.Now()
	for id := 0; id < m.P; id++ {
		ranks[id] = &Rank{ID: id, machine: m}
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer st.Exit()
			defer func() {
				if rec := recover(); rec != nil {
					errs[r.ID] = fmt.Errorf("rt: rank %d: %v", r.ID, rec)
				}
			}()
			body(r)
		}(ranks[id])
	}
	wg.Wait()
	wall := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		if undelivered := st.Undelivered(); undelivered != "" {
			err = fmt.Errorf("%w\n\n%s", err, undelivered)
		}
		return Result{}, err
	}
	res := Result{Wall: wall, Ranks: make([]Stats, m.P)}
	for id, r := range ranks {
		res.Ranks[id] = r.stats
	}
	return res, nil
}

// Rank returns this rank's id.
func (r *Rank) Rank() int { return r.ID }

// P returns the machine's rank count.
func (r *Rank) P() int { return r.machine.P }

// BeginPhase labels subsequent activity and returns the previous label.
// The label is kept for error context only — rt has no tracing.
func (r *Rank) BeginPhase(label string) (prev string) {
	prev = r.phase
	r.phase = label
	return prev
}

// Phase returns the rank's current phase label.
func (r *Rank) Phase() string { return r.phase }

// Compute is a no-op: on a real backend the work itself took the time.
func (r *Rank) Compute(seconds float64) {}

// ComputeFlops is a no-op (see Compute).
func (r *Rank) ComputeFlops(flops float64) {}

// MetricsRegistry returns nil: rt runs carry no live metrics registry
// (publishers treat a nil registry as metrics-off).
func (r *Rank) MetricsRegistry() *metrics.Registry { return nil }

// Send posts a message to dst. Sends are eager — the message is appended
// to the destination's queue and the call returns immediately — and the
// payload slice transfers to the receiver zero-copy (the sender must not
// touch it afterwards).
func (r *Rank) Send(dst, tag int, m xport.Msg) {
	if dst < 0 || dst >= r.machine.P {
		panic(fmt.Sprintf("rt: Send to rank %d of %d", dst, r.machine.P))
	}
	if m.Bytes == 0 && m.Payload != nil {
		m.Bytes = 8 * len(m.Payload)
	}
	m.Src = r.ID
	m.Tag = tag
	r.stats.MsgsSent++
	r.stats.BytesSent += m.Bytes
	r.machine.store.Put(r.ID, dst, tag, m, 0)
}

// Recv blocks until the next message from src with the given tag.
func (r *Rank) Recv(src, tag int) xport.Msg {
	if src < 0 || src >= r.machine.P {
		panic(fmt.Sprintf("rt: Recv from rank %d of %d", src, r.machine.P))
	}
	m, _, err := r.machine.store.Get(src, r.ID, tag)
	if err != nil {
		r.fail(err)
	}
	r.stats.MsgsRecvd++
	r.stats.BytesRecvd += m.Bytes
	return m
}

// fail ends the rank with err, naming its phase.
func (r *Rank) fail(err error) {
	if r.phase != "" {
		err = fmt.Errorf("%w [phase %s]", err, r.phase)
	}
	panic(err)
}

// SendRecv posts the send and then receives; safe in rings and shifts
// because sends never block.
func (r *Rank) SendRecv(dst, sendTag int, m xport.Msg, src, recvTag int) xport.Msg {
	r.Send(dst, sendTag, m)
	return r.Recv(src, recvTag)
}

// request is the rt request handle. Sends complete at post (eager queue);
// receive Waits perform the blocking match, so a request is a recorded
// (peer, tag) to be received later. The executors Wait receive requests in
// post order (the simulator backend enforces the discipline), which makes
// Wait-order matching equal to post-order matching.
type request struct {
	r      *Rank
	isSend bool
	peer   int
	tag    int
	done   bool
}

// IsSend reports whether the request belongs to an Isend.
func (q *request) IsSend() bool { return q.isSend }

// Peer returns the counterpart rank.
func (q *request) Peer() int { return q.peer }

// Tag returns the request's message tag.
func (q *request) Tag() int { return q.tag }

// Wait completes the request: receive requests block for and return the
// matched message; send requests (already delivered at post) return the
// zero Msg.
func (q *request) Wait() xport.Msg {
	if q.done {
		panic("rt: Wait on a completed request")
	}
	q.done = true
	if q.isSend {
		return xport.Msg{}
	}
	return q.r.Recv(q.peer, q.tag)
}

// Isend posts a nonblocking send. Delivery is eager, identical to Send;
// the request exists for completion discipline.
func (r *Rank) Isend(dst, tag int, m xport.Msg) xport.Request {
	r.Send(dst, tag, m)
	return &request{r: r, isSend: true, peer: dst, tag: tag}
}

// Irecv preposts a receive; the blocking match happens at Wait. Preposting
// is how the schedules keep receive buffers ahead of the sender — the
// shared-memory mailbox is already zero-copy, so the post itself is free.
func (r *Rank) Irecv(src, tag int) xport.Request {
	if src < 0 || src >= r.machine.P {
		panic(fmt.Sprintf("rt: Irecv from rank %d of %d", src, r.machine.P))
	}
	return &request{r: r, peer: src, tag: tag}
}

// WaitAll completes every non-nil request in order.
func (r *Rank) WaitAll(reqs ...xport.Request) {
	for _, q := range reqs {
		if q != nil {
			q.Wait()
		}
	}
}

// GetPayload returns a pooled length-n buffer (contents unspecified).
func (r *Rank) GetPayload(n int) []float64 {
	return r.machine.store.GetPayload(n)
}

// PutPayload recycles a payload buffer. As with the simulator, ownership
// follows the message: only the receiver of a message may recycle its
// payload.
func (r *Rank) PutPayload(buf []float64) {
	r.machine.store.PutPayload(buf)
}
