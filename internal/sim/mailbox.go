// The simulator's mailbox: one inbox per destination rank, each with its
// own mutex, condition and per-(src,tag) FIFO queues — the layout of
// internal/rt's shared-memory mailbox. A send locks only the receiver's
// inbox and wakes the receiver only when it is blocked on exactly the
// channel that just became non-empty, so message traffic never wakes
// bystanders.
//
// Deadlock detection stays exact: a run-wide counter holds the number of
// ranks blocked on an empty channel. A rank joins it only while its
// channel is empty, and the send that fills that channel takes it out
// again before signalling. When the counter reaches the number of live
// ranks, nobody can ever send again — the run is deadlocked, and every
// inbox is woken to fail its waiter.
//
// Lock order is inbox, then counter; no code holds two inboxes at once.
package sim

import (
	"fmt"
	"sync"

	"genmp/internal/xport"
)

// msgKey identifies one (src, dst, tag) channel.
type msgKey struct{ src, dst, tag int }

// chanKey identifies a channel within its destination's inbox.
type chanKey struct{ src, tag int }

// envelope is a queued message plus the simulator-private injection
// timestamp (the sender's virtual time when the fabric accepted it), kept
// out of Msg so Msg stays transport-neutral.
type envelope struct {
	msg  xport.Msg
	sent float64
}

// mailboxMaxFree bounds each inbox's envelope free list; in-flight
// envelopes live in the queues, so steady state holds far fewer.
const mailboxMaxFree = 1024

// inbox is one destination rank's queue set. Only its owner rank receives
// from it, so its condition has at most one waiter.
type inbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queues map[chanKey][]*envelope
	// free recycles message envelopes, and drained queues keep their map
	// entry and backing array, so steady-state messaging allocates nothing
	// (the executors' hot loops send one message per phase or per block).
	free []*envelope
	// want is the channel the owner waits on. blocked means it is parked on
	// want with want empty, and is counted in mailbox.blocked; stuck means
	// it failed with a deadlock error while waiting on want, which the
	// post-mortem (mailboxState) reports.
	want           chanKey
	blocked, stuck bool
	// envNew/envReused count envelope provenance (always on; summed by
	// Machine.MailboxStats).
	envNew, envReused int64
}

// mailbox matches sends to receives with per-(src,dst,tag) FIFO order.
type mailbox struct {
	boxes []inbox
	// mm mirrors envelope provenance into the live registry; set by reset
	// before the rank goroutines start.
	mm *machMetrics

	mu       sync.Mutex // the run-wide counter; taken after an inbox lock
	alive    int        // rank goroutines still running their body
	blocked  int        // ranks parked on an empty channel
	deadlock bool
}

func newMailbox(p int) *mailbox {
	mb := &mailbox{boxes: make([]inbox, p)}
	for i := range mb.boxes {
		b := &mb.boxes[i]
		b.cond.L = &b.mu
		b.queues = make(map[chanKey][]*envelope)
	}
	return mb
}

// reset readies the mailbox for a fresh run: stale queued messages (left by
// an aborted run) are recycled, per-run wait state is cleared, and the
// queues keep their map entries and backing arrays.
func (mb *mailbox) reset(p int, mm *machMetrics) {
	for i := range mb.boxes {
		b := &mb.boxes[i]
		b.mu.Lock()
		for k, q := range b.queues {
			for j, env := range q {
				b.recycle(env)
				q[j] = nil
			}
			b.queues[k] = q[:0]
		}
		b.blocked, b.stuck = false, false
		b.mu.Unlock()
	}
	mb.mm = mm
	mb.mu.Lock()
	mb.alive = p
	mb.blocked = 0
	mb.deadlock = false
	mb.mu.Unlock()
}

// recycle clears env and returns it to the free list. Callers hold b.mu.
func (b *inbox) recycle(env *envelope) {
	*env = envelope{}
	if len(b.free) < mailboxMaxFree {
		b.free = append(b.free, env)
	}
}

func (mb *mailbox) isDeadlocked() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.deadlock
}

func (mb *mailbox) put(k msgKey, m xport.Msg, sent float64) {
	b := &mb.boxes[k.dst]
	ck := chanKey{src: k.src, tag: k.tag}
	b.mu.Lock()
	var env *envelope
	if n := len(b.free); n > 0 {
		env = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		b.envReused++
		if mb.mm != nil {
			mb.mm.envReused.Inc()
		}
	} else {
		env = new(envelope)
		b.envNew++
		if mb.mm != nil {
			mb.mm.envNew.Inc()
		}
	}
	*env = envelope{msg: m, sent: sent}
	b.queues[ck] = append(b.queues[ck], env)
	wake := b.blocked && b.want == ck
	if wake {
		b.blocked = false
		mb.mu.Lock()
		mb.blocked--
		mb.mu.Unlock()
	}
	b.mu.Unlock()
	if wake {
		b.cond.Signal()
	}
}

func (mb *mailbox) get(k msgKey) (xport.Msg, float64, error) {
	b := &mb.boxes[k.dst]
	ck := chanKey{src: k.src, tag: k.tag}
	b.mu.Lock()
	for {
		if q := b.queues[ck]; len(q) > 0 {
			env := q[0]
			// Shift down in place (queues are short) so the channel keeps its
			// backing array, and recycle the envelope.
			copy(q, q[1:])
			q[len(q)-1] = nil
			b.queues[ck] = q[:len(q)-1]
			m, sent := env.msg, env.sent
			b.recycle(env)
			b.mu.Unlock()
			return m, sent, nil
		}
		b.want = ck
		mb.mu.Lock()
		if mb.deadlock {
			mb.mu.Unlock()
			b.stuck = true
			b.mu.Unlock()
			return xport.Msg{}, 0, fmt.Errorf("sim: deadlock: rank %d waiting for message from %d tag %d", k.dst, k.src, k.tag)
		}
		mb.blocked++
		if mb.blocked == mb.alive {
			mb.deadlock = true
			mb.blocked--
			mb.mu.Unlock()
			b.stuck = true
			b.mu.Unlock()
			mb.wakeAll()
			return xport.Msg{}, 0, fmt.Errorf("sim: deadlock: all ranks blocked with nothing deliverable (rank %d waits on src %d tag %d)", k.dst, k.src, k.tag)
		}
		mb.mu.Unlock()
		b.blocked = true
		for b.blocked {
			b.cond.Wait()
		}
	}
}

// exit retires one rank goroutine. If every rank still running is blocked
// on an empty channel, the exiting rank was the last one that could have
// sent: the run is deadlocked.
func (mb *mailbox) exit() {
	mb.mu.Lock()
	mb.alive--
	dead := !mb.deadlock && mb.alive > 0 && mb.blocked == mb.alive
	if dead {
		mb.deadlock = true
	}
	mb.mu.Unlock()
	if dead {
		mb.wakeAll()
	}
}

// wakeAll releases every parked rank once the run is declared deadlocked:
// each re-checks its channel and fails with the deadlock error. Callers
// hold no inbox lock.
func (mb *mailbox) wakeAll() {
	for i := range mb.boxes {
		b := &mb.boxes[i]
		b.mu.Lock()
		wake := b.blocked
		b.blocked = false
		b.mu.Unlock()
		if wake {
			b.cond.Signal()
		}
	}
}

// MailboxStats reports the machine's cumulative envelope recycling
// counters: a healthy steady state allocates a bounded set of new
// envelopes and then reuses them for the rest of the machine's life.
type MailboxStats struct {
	EnvelopesNew    int64
	EnvelopesReused int64
}

// MailboxStats returns the machine's envelope recycling counters, summed
// over the per-rank inboxes (cumulative across runs; zero before the first
// Run).
func (m *Machine) MailboxStats() MailboxStats {
	var s MailboxStats
	if m.mbox == nil {
		return s
	}
	for i := range m.mbox.boxes {
		b := &m.mbox.boxes[i]
		b.mu.Lock()
		s.EnvelopesNew += b.envNew
		s.EnvelopesReused += b.envReused
		b.mu.Unlock()
	}
	return s
}
