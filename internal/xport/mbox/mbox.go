// Package mbox is the message core of sim's machine, in virtual and in
// wall time: the per-destination inboxes with their per-(src, tag) FIFO
// channels, the rendezvous behind Barrier and AllReduce, the blocked-rank
// counter that detects deadlock, and the machine-wide payload pool. The
// rules are MPI's: sends are eager, matching is FIFO per (source, tag), and
// a collective completes once every rank has entered it. Each envelope
// carries an opaque float64 stamp: the virtual send time, which is 0 on a
// machine without a cost model.
//
// A send locks only the receiver's inbox and wakes the receiver only when
// it is blocked on exactly the channel that just became non-empty, so
// message traffic never wakes bystanders.
//
// A receive that finds its channel empty spins before it parks, but only
// while spinning can pay: the machine has no more ranks than CPUs it may
// use (p ≤ min(GOMAXPROCS, NumCPU), decided once per run), the sending rank
// is still running — not itself waiting in a receive or the rendezvous —
// and no rank has exited. Each spin round yields the processor, and the
// spin watches an arrival count of the receiver's own inbox that every
// send bumps under the inbox lock; once the spin ends, the receiver
// re-checks its channel under that lock before it parks, so no wake-up is
// lost. Every waiting rank (receive or rendezvous) sets a waiting mark
// before it reads its source's, so in a cycle of receives some rank always
// sees its source waiting and parks, and the rest follow. Parking costs a
// futex wake-up per message, which at p=2 costs more than the work between
// messages of a small sweep.
//
// Deadlock detection is exact. A run-wide counter holds the number of ranks
// parked on an empty channel or in the rendezvous; a spinning receiver is
// not counted until it parks. A rank joins the counter only while it cannot
// proceed, and whoever releases it — the send that fills its channel, the
// last rank into the rendezvous — takes it out again before waking it. When
// the counter reaches the number of live ranks, nobody can ever send or
// arrive again: the run is deadlocked, and every parked rank is woken to
// fail. A rendezvous also fails once any rank has exited, before or during
// the wait, because it can never complete.
//
// Lock order is inbox, then store; no code holds two inboxes at once.
package mbox

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"genmp/internal/obs/metrics"
	"genmp/internal/xport"
)

// chanKey identifies a channel within its destination's inbox.
type chanKey struct{ src, tag int }

// envelope is a queued message plus the backend's stamp, kept out of Msg
// so Msg stays transport-neutral.
type envelope struct {
	msg   xport.Msg
	stamp float64
}

// maxFree bounds each inbox's envelope free list; in-flight envelopes live
// in the queues, so steady state holds far fewer.
const maxFree = 1024

// inbox is one destination rank's queue set. Only its owner rank receives
// from it, so its condition has at most one waiter.
type inbox struct {
	mu     sync.Mutex
	cond   sync.Cond
	queues map[chanKey][]*envelope
	// free recycles envelopes, and drained queues keep their map entry and
	// backing array, so steady-state messaging allocates nothing.
	free []*envelope
	// want is the channel the owner waits on; blocked means it is parked on
	// want with want empty, and is counted in Store.blocked.
	want    chanKey
	blocked bool
	// waiting marks the owner as waiting in Get or the rendezvous, so a
	// rank spinning on a message from it parks instead.
	waiting atomic.Bool
	// arrivals counts the messages ever queued here: Put bumps it under mu,
	// and a spinning owner watches it. envReused of them took a recycled
	// envelope, the rest a new one (summed by Envelopes). The inbox stays
	// compact, since a Table 1 run allocates about a thousand: waiting
	// fills blocked's padding, and the new-envelope count is derived.
	arrivals  atomic.Uint64
	envReused int64
}

// Meters mirrors store activity into a live metrics registry.
type Meters struct {
	EnvNew, EnvReused                       *metrics.Counter
	PoolGets, PoolHits, PoolPuts, PoolDrops *metrics.Counter
}

// Store is one machine's message core. The zero value is ready for Reset,
// and one Store serves every run of its machine, one run at a time.
type Store struct {
	boxes  []inbox
	meters *Meters // set by Reset before the rank goroutines start

	mu       sync.Mutex // guards everything below but spin; taken after an inbox lock
	alive    int        // rank goroutines still running their body
	blocked  int        // ranks parked on an empty channel or in the rendezvous
	deadlock bool
	// spin lets an empty receive spin before it parks: every rank has a
	// CPU of its own. Set by Reset before the rank goroutines start.
	spin bool
	// exited is set once some rank has exited: no rendezvous can complete,
	// and no receiver spins. Written under mu, read anywhere.
	exited atomic.Bool
	stuck  []string // per rank, where it failed ("" if it did not)
	rv     struct {
		cond         sync.Cond
		arrived, gen int
		vals         [][]float64
		stamp        float64
		// out and outStamp are the last generation's result, read by its
		// waiters before the next generation can complete.
		out      []float64
		outStamp float64
	}

	pool pool
}

// Reset readies the store for a run of p ranks reporting to meters (nil for
// none): messages queued by an aborted run are recycled and every wait
// state is cleared, while queues, envelopes and pooled payloads persist.
func (s *Store) Reset(p int, meters *Meters) {
	if len(s.boxes) != p {
		s.boxes = make([]inbox, p)
		for i := range s.boxes {
			b := &s.boxes[i]
			b.cond.L = &b.mu
			b.queues = make(map[chanKey][]*envelope)
		}
		s.stuck = make([]string, p)
		s.rv.vals = make([][]float64, p)
		s.rv.cond.L = &s.mu
	}
	for i := range s.boxes {
		b := &s.boxes[i]
		b.mu.Lock()
		for k, q := range b.queues {
			for j, env := range q {
				b.recycle(env)
				q[j] = nil
			}
			b.queues[k] = q[:0]
		}
		b.blocked = false
		b.mu.Unlock()
	}
	s.meters = meters
	s.spin = p <= min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	s.exited.Store(false)
	s.mu.Lock()
	s.alive, s.blocked, s.deadlock = p, 0, false
	clear(s.stuck)
	s.rv.arrived = 0
	clear(s.rv.vals)
	s.mu.Unlock()
}

// recycle clears env and returns it to the free list. Callers hold b.mu.
func (b *inbox) recycle(env *envelope) {
	*env = envelope{}
	if len(b.free) < maxFree {
		b.free = append(b.free, env)
	}
}

// Put queues m with its stamp on the (src, dst, tag) channel and wakes dst
// if it waits on exactly that channel. It never blocks on the receiver.
func (s *Store) Put(src, dst, tag int, m xport.Msg, stamp float64) {
	b := &s.boxes[dst]
	k := chanKey{src: src, tag: tag}
	b.mu.Lock()
	var env *envelope
	if n := len(b.free); n > 0 {
		env = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		b.envReused++
		if s.meters != nil {
			s.meters.EnvReused.Inc()
		}
	} else {
		env = new(envelope)
		if s.meters != nil {
			s.meters.EnvNew.Inc()
		}
	}
	*env = envelope{msg: m, stamp: stamp}
	b.queues[k] = append(b.queues[k], env)
	b.arrivals.Add(1)
	wake := b.blocked && b.want == k
	if wake {
		b.blocked = false
		s.mu.Lock()
		s.blocked--
		s.mu.Unlock()
	}
	b.mu.Unlock()
	if wake {
		b.cond.Signal()
	}
}

// Get blocks until the (src, dst, tag) channel is non-empty and pops its
// head, returning the message and its stamp. It fails once the run is
// deadlocked.
func (s *Store) Get(src, dst, tag int) (xport.Msg, float64, error) {
	b := &s.boxes[dst]
	k := chanKey{src: src, tag: tag}
	b.mu.Lock()
	if m, stamp, ok := b.pop(k); ok {
		b.mu.Unlock()
		return m, stamp, nil
	}
	b.waiting.Store(true)
	defer b.waiting.Store(false)
	spin := s.spin
	for {
		if spin {
			seen := b.arrivals.Load()
			b.mu.Unlock()
			spin = s.spinFor(b, src, seen)
			b.mu.Lock()
		} else {
			b.want = k
			s.mu.Lock()
			if !s.deadlock {
				s.blocked++
				if s.blocked == s.alive {
					s.declare()
				}
			}
			if s.deadlock {
				err := s.fail(dst, fmt.Sprintf("Recv(src=%d, tag=%d)", src, tag))
				s.mu.Unlock()
				b.mu.Unlock()
				s.wakeInboxes()
				return xport.Msg{}, 0, err
			}
			s.mu.Unlock()
			b.blocked = true
			for b.blocked {
				b.cond.Wait()
			}
		}
		if m, stamp, ok := b.pop(k); ok {
			b.mu.Unlock()
			return m, stamp, nil
		}
	}
}

// spinFor spins, yielding the processor each round, until b's arrival count
// moves past seen (true), or until src waits too or some rank has exited
// (false): then no message may come soon, and the caller parks.
func (s *Store) spinFor(b *inbox, src int, seen uint64) bool {
	sender := &s.boxes[src].waiting
	for b.arrivals.Load() == seen {
		if sender.Load() || s.exited.Load() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// pop removes and returns the head of channel k, if any. Callers hold b.mu.
func (b *inbox) pop(k chanKey) (xport.Msg, float64, bool) {
	q := b.queues[k]
	if len(q) == 0 {
		return xport.Msg{}, 0, false
	}
	env := q[0]
	// Shift down in place (queues are short) so the channel keeps its
	// backing array, and recycle the envelope.
	copy(q, q[1:])
	q[len(q)-1] = nil
	b.queues[k] = q[:len(q)-1]
	m, stamp := env.msg, env.stamp
	b.recycle(env)
	return m, stamp, true
}

// Rendezvous enters rank into the collective op ("barrier", "allreduce")
// with its arrival stamp and values. Once all ranks are in, each gets the
// largest arrival stamp and its own copy of the values combined
// elementwise in ascending rank order (nil when vals is nil), so
// reductions are deterministic whatever the arrival order. It fails if any
// rank has exited, or once the run is deadlocked.
func (s *Store) Rendezvous(rank int, op string, stamp float64, vals []float64, combine func(a, b float64) float64) (float64, []float64, error) {
	rv := &s.rv
	s.mu.Lock()
	if s.exited.Load() || s.deadlock {
		return s.failRendezvous(rank, op)
	}
	rv.vals[rank] = vals
	if rv.arrived == 0 || stamp > rv.stamp {
		rv.stamp = stamp
	}
	if rv.arrived < len(s.boxes)-1 {
		waiting := &s.boxes[rank].waiting
		waiting.Store(true)
		defer waiting.Store(false)
		gen := rv.gen
		rv.arrived++
		s.blocked++
		if s.blocked == s.alive {
			s.declare()
		}
		for gen == rv.gen && !s.deadlock && !s.exited.Load() {
			rv.cond.Wait()
		}
		if gen == rv.gen {
			return s.failRendezvous(rank, op)
		}
	} else {
		// Every other rank waits here, and none can run, exit or be
		// released until gen moves, so the fold calls combine without the
		// lock. If combine panics, this rank exits and Exit fails the
		// waiters.
		s.mu.Unlock()
		out := append(rv.out[:0], rv.vals[0]...)
		for _, v := range rv.vals[1:] {
			for i, x := range v {
				out[i] = combine(out[i], x)
			}
		}
		s.mu.Lock()
		rv.out, rv.outStamp = out, rv.stamp
		s.blocked -= rv.arrived
		rv.arrived = 0
		rv.gen++
		clear(rv.vals)
		rv.cond.Broadcast()
	}
	maxStamp, out := rv.outStamp, []float64(nil)
	if vals != nil {
		out = append(out, rv.out...)
	}
	s.mu.Unlock()
	return maxStamp, out, nil
}

// failRendezvous fails rank's rendezvous and wakes the inboxes in case the
// run just deadlocked. Callers hold s.mu; it releases it.
func (s *Store) failRendezvous(rank int, op string) (float64, []float64, error) {
	err := s.fail(rank, op)
	s.mu.Unlock()
	s.wakeInboxes()
	return 0, nil, err
}

// declare marks the run deadlocked and wakes the rendezvous; the caller
// wakes the inboxes once it holds no lock. Callers hold s.mu.
func (s *Store) declare() {
	s.deadlock = true
	s.rv.cond.Broadcast()
}

// fail records where rank gave up and returns the error naming it. Callers
// hold s.mu.
func (s *Store) fail(rank int, where string) error {
	s.stuck[rank] = where
	if s.deadlock {
		return fmt.Errorf("deadlock: blocked in %s with every live rank blocked", where)
	}
	return fmt.Errorf("blocked in %s after a rank exited", where)
}

// Exit retires one rank goroutine. The rendezvous can no longer complete,
// so its waiters are released to fail; and if every rank still running is
// blocked, the exiting rank was the last that could have sent: the run is
// deadlocked.
func (s *Store) Exit() {
	s.mu.Lock()
	s.alive--
	s.exited.Store(true)
	s.blocked -= s.rv.arrived
	s.rv.arrived = 0
	s.rv.cond.Broadcast()
	dead := !s.deadlock && s.alive > 0 && s.blocked == s.alive
	if dead {
		s.declare()
	}
	s.mu.Unlock()
	if dead {
		s.wakeInboxes()
	}
}

// wakeInboxes releases every rank parked on a channel once the run is
// deadlocked: each re-checks its channel and fails. Callers hold no lock.
func (s *Store) wakeInboxes() {
	for i := range s.boxes {
		b := &s.boxes[i]
		b.mu.Lock()
		wake := b.blocked
		b.blocked = false
		b.mu.Unlock()
		if wake {
			b.cond.Signal()
		}
	}
}

// Deadlocked reports whether the most recent run was declared deadlocked.
func (s *Store) Deadlocked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadlock
}

// Stuck names where rank failed in the most recent run — "Recv(src=1,
// tag=8)", "barrier", "allreduce" — or returns "" if it did not.
func (s *Store) Stuck(rank int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rank < 0 || rank >= len(s.stuck) {
		return ""
	}
	return s.stuck[rank]
}

// Undelivered renders the channels still holding sent-but-never-received
// messages, one line each in (src, dst, tag) order under a "sent but never
// received:" heading, or returns "" when nothing is left.
func (s *Store) Undelivered() string {
	type channel struct{ src, dst, tag, count, bytes int }
	var pending []channel
	for dst := range s.boxes {
		b := &s.boxes[dst]
		b.mu.Lock()
		for k, q := range b.queues {
			if len(q) == 0 {
				continue
			}
			c := channel{src: k.src, dst: dst, tag: k.tag, count: len(q)}
			for _, env := range q {
				c.bytes += env.msg.Bytes
			}
			pending = append(pending, c)
		}
		b.mu.Unlock()
	}
	if len(pending) == 0 {
		return ""
	}
	sort.Slice(pending, func(i, j int) bool {
		x, y := pending[i], pending[j]
		if x.src != y.src {
			return x.src < y.src
		}
		if x.dst != y.dst {
			return x.dst < y.dst
		}
		return x.tag < y.tag
	})
	var b strings.Builder
	b.WriteString("sent but never received:\n")
	for _, c := range pending {
		fmt.Fprintf(&b, "  rank %d -> rank %d tag %d: %d message(s), %d bytes\n", c.src, c.dst, c.tag, c.count, c.bytes)
	}
	return b.String()
}

// Envelopes returns the cumulative envelope provenance counts: a healthy
// steady state allocates a bounded set of new envelopes and then reuses
// them.
func (s *Store) Envelopes() (fresh, reused int64) {
	for i := range s.boxes {
		b := &s.boxes[i]
		b.mu.Lock()
		fresh += int64(b.arrivals.Load()) - b.envReused
		reused += b.envReused
		b.mu.Unlock()
	}
	return fresh, reused
}
