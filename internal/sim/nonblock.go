// Nonblocking point-to-point primitives — the virtual-time analogue of
// MPI_Isend/MPI_Irecv/MPI_Wait. The executors' overlap schedule (DESIGN.md
// §14) is built on these: post the carry send as soon as the boundary lines
// are solved, prepost the next phase's receives, and pay the wire only for
// whatever the interior compute failed to hide.
//
// Virtual-time semantics:
//
//   - Isend is eager, exactly like Send: the sender pays SendOverhead and the
//     fabric stamps the departure; the returned request exists so the caller
//     can observe MPI completion discipline (every request must be Waited).
//     Waiting a send request costs nothing.
//   - Irecv is free: it records the post (an EvIrecv marker) and returns a
//     handle. No clock movement, no matching.
//   - Wait on a receive request performs the entire receive: it matches the
//     message (FIFO per (src,dst,tag) channel, enforced to follow Irecv post
//     order), accrues the wait cost max(0, headArrival − clock) *at the Wait
//     call*, then pays the fabric body time and RecvOverhead. This is what
//     makes overlap measurable: compute executed between the post and the
//     Wait shrinks the wait term one-for-one.
//
// Because all cost accrues at Wait with the same arithmetic Recv uses,
// posting receives early is timing-neutral on its own; the win comes from
// posting *sends* early (boundary-first compute). The primitives still model
// the full discipline so the real-parallel backend (ROADMAP item 1) can
// inherit the schedule unchanged.
package sim

import (
	"fmt"

	"genmp/internal/xport"
)

// Request is the handle of one outstanding nonblocking operation. Every
// request must be completed by exactly one Wait (or via WaitAll); a failed
// run's FlightReport names the requests that were posted but never Waited.
// Waited requests are recycled — do not retain or reuse them after Wait.
type Request struct {
	r      *Rank
	isSend bool
	peer   int // dst for sends, src for receives
	tag    int
	bytes  int     // modeled size (sends; receives learn it at Wait)
	posted float64 // virtual time of the post
	phase  string  // rank phase label at post time
	seq    int     // post order within the (src,dst,tag) channel (receives)
	done   bool
	idx    int // position in r.pending while outstanding
}

// msgKey identifies one (src, dst, tag) channel.
type msgKey struct{ src, dst, tag int }

// chanOrder tracks Irecv post order per mailbox channel so Waits cannot
// reorder matching: the mailbox matches at Wait time, so waiting requests
// out of post order on one channel would silently swap message contents
// relative to MPI semantics. We panic instead.
type chanOrder struct{ posted, waited int }

// IsSend reports whether the request belongs to an Isend.
func (q *Request) IsSend() bool { return q.isSend }

// Peer returns the counterpart rank (destination for sends, source for
// receives).
func (q *Request) Peer() int { return q.peer }

// Tag returns the request's message tag.
func (q *Request) Tag() int { return q.tag }

// Isend posts a nonblocking send to dst. Injection is eager — the sender
// pays only SendOverhead, identically to Send — so the message timing is
// bit-identical to Send posted at the same clock; the request handle exists
// for completion discipline and post-mortems. The event kind is EvIsend so
// traces and the causal DAG distinguish overlapped injections.
func (r *Rank) Isend(dst, tag int, m xport.Msg) xport.Request {
	if dst < 0 || dst >= r.machine.P {
		panic(fmt.Sprintf("sim: Isend to rank %d of %d", dst, r.machine.P))
	}
	if m.Bytes == 0 && m.Payload != nil {
		m.Bytes = 8 * len(m.Payload)
	}
	m.Src = r.ID
	m.Tag = tag
	r.clock += r.machine.Net.SendOverhead
	r.addComm(r.machine.Net.SendOverhead)
	sent := r.machine.Fabric.Inject(r.ID, dst, r.clock, m.Bytes)
	r.addSent(dst, m.Bytes)
	if mm := r.machine.mm; mm != nil {
		mm.sent(r.ID, dst, m.Bytes)
		mm.nonblocking("isend").Inc()
	}
	if r.observing() {
		r.emit(Event{Rank: r.ID, Kind: EvIsend, Start: r.clock - r.machine.Net.SendOverhead, End: r.clock, Peer: dst, Bytes: m.Bytes, Tag: tag, Phase: r.phase})
	}
	r.machine.store.Put(r.ID, dst, tag, m, sent)
	return r.newRequest(true, dst, tag, m.Bytes)
}

// Irecv posts a nonblocking receive from src. Posting is free in virtual
// time — matching and every cost component happen at Wait — and leaves an
// EvIrecv marker on the timeline so traces show where the post happened
// relative to the compute that hides the wire.
func (r *Rank) Irecv(src, tag int) xport.Request {
	if src < 0 || src >= r.machine.P {
		panic(fmt.Sprintf("sim: Irecv from rank %d of %d", src, r.machine.P))
	}
	if mm := r.machine.mm; mm != nil {
		mm.nonblocking("irecv").Inc()
	}
	if r.observing() {
		r.emit(Event{Rank: r.ID, Kind: EvIrecv, Start: r.clock, End: r.clock, Peer: src, Tag: tag, Phase: r.phase})
	}
	q := r.newRequest(false, src, tag, 0)
	key := msgKey{src: src, dst: r.ID, tag: tag}
	if r.chanSeq == nil {
		r.chanSeq = make(map[msgKey]*chanOrder)
	}
	co := r.chanSeq[key]
	if co == nil {
		co = &chanOrder{}
		r.chanSeq[key] = co
	}
	q.seq = co.posted
	co.posted++
	return q
}

// Wait completes the request. For receive requests it performs the full
// receive: the wait cost max(0, headArrival − clock) accrues here — not at
// the Irecv — then the fabric body time and RecvOverhead, and the matched
// message is returned. For send requests (eager injection) it returns the
// zero Msg at no cost. Waiting a request twice panics.
func (q *Request) Wait() xport.Msg {
	r := q.r
	if q.done || r == nil {
		panic("sim: Wait on a completed (or recycled) request")
	}
	r.completeRequest(q)
	if mm := r.machine.mm; mm != nil {
		mm.nonblocking("wait").Inc()
	}
	if q.isSend {
		r.retireRequest(q)
		return xport.Msg{}
	}
	key := msgKey{src: q.peer, dst: r.ID, tag: q.tag}
	co := r.chanSeq[key]
	if co.waited != q.seq {
		panic(fmt.Sprintf("sim: Wait out of Irecv post order on channel src=%d dst=%d tag=%d (request #%d waited, #%d is next)",
			q.peer, r.ID, q.tag, q.seq, co.waited))
	}
	co.waited++
	waitStart := r.clock
	// As in Recv: mark the wait as in-flight before blocking so a deadlock
	// post-mortem shows what this rank's final, never-completed Wait was
	// waiting on. A healthy Wait supersedes it with an EvWait.
	if fr := r.machine.Flight; fr != nil {
		fr.record(r.ID, Event{Rank: r.ID, Kind: EvBlocked, Start: waitStart, End: waitStart, Peer: q.peer, Tag: q.tag, Phase: r.phase})
	}
	m, sent, err := r.machine.store.Get(q.peer, r.ID, q.tag)
	if err != nil {
		panic(err)
	}
	fab := r.machine.Fabric
	headArrive := sent + fab.HeadLatency(q.peer, r.ID)
	wait := 0.0
	if headArrive > r.clock {
		wait = headArrive - r.clock
		r.addWait(wait)
		r.clock = headArrive
	}
	body := fab.BodyTime(q.peer, r.ID, m.Bytes)
	r.clock += body + r.machine.Net.RecvOverhead
	r.addComm(body + r.machine.Net.RecvOverhead)
	r.addRecvd(q.peer, m.Bytes)
	if r.observing() {
		r.emit(Event{Rank: r.ID, Kind: EvWait, Start: waitStart, End: r.clock, Peer: q.peer, Bytes: m.Bytes, Tag: q.tag, Wait: wait, Phase: r.phase})
	}
	r.retireRequest(q)
	return m
}

// WaitAll completes every request in order. Callers that need the received
// payloads should Wait the receive requests individually.
func (r *Rank) WaitAll(reqs ...xport.Request) {
	for _, q := range reqs {
		if q != nil {
			q.Wait()
		}
	}
}

// PendingRequests returns the rank's posted-but-not-Waited requests in post
// order. FlightReport uses it post-run to name leaked requests; tests use
// it to assert completion discipline.
func (r *Rank) PendingRequests() []*Request {
	out := make([]*Request, len(r.pending))
	copy(out, r.pending)
	return out
}

// newRequest takes a request from the rank's free list (or allocates one)
// and registers it as pending.
func (r *Rank) newRequest(isSend bool, peer, tag, bytes int) *Request {
	var q *Request
	if n := len(r.reqFree); n > 0 {
		q = r.reqFree[n-1]
		r.reqFree[n-1] = nil
		r.reqFree = r.reqFree[:n-1]
	} else {
		q = new(Request)
	}
	*q = Request{r: r, isSend: isSend, peer: peer, tag: tag, bytes: bytes, posted: r.clock, phase: r.phase, idx: len(r.pending)}
	r.pending = append(r.pending, q)
	return q
}

// completeRequest unlinks q from the pending list (swap-remove; report
// order is re-established by sorting on post time).
func (r *Rank) completeRequest(q *Request) {
	n := len(r.pending) - 1
	last := r.pending[n]
	r.pending[q.idx] = last
	last.idx = q.idx
	r.pending[n] = nil
	r.pending = r.pending[:n]
	q.done = true
}

// retireRequest recycles a completed request envelope.
func (r *Rank) retireRequest(q *Request) {
	*q = Request{done: true}
	if len(r.reqFree) < 64 {
		r.reqFree = append(r.reqFree, q)
	}
}
