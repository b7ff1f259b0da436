// Live metrics wiring for the virtual machine. Every quantity the
// simulator already tracks per run (Stats) is mirrored into an
// obs/metrics.Registry as cumulative process-wide series, so a long run or
// a server embedding machines can be scraped while still in flight. The
// wiring is strictly opt-in: with no registry attached the hot paths see
// one nil check and the virtual-time results are bit-identical either way
// (metrics never touch clocks).
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"genmp/internal/obs/metrics"
	"genmp/internal/xport/mbox"
)

// defaultMetricsReg is the package-level registry Machine.Run falls back to
// when Machine.Metrics is nil. Commands set it once (the -metrics-addr
// wiring) so every machine they create — including those built deep inside
// exp or nas helpers — reports without plumbing a registry through every
// constructor. Nil (the default) keeps metrics off everywhere.
var defaultMetricsReg atomic.Pointer[metrics.Registry]

// SetDefaultMetrics installs reg as the registry machines attach when their
// own Metrics field is nil; pass nil to detach.
func SetDefaultMetrics(reg *metrics.Registry) { defaultMetricsReg.Store(reg) }

// defaultFlightDepth and defaultPProfLabels are the package-level
// observability defaults Run folds into machines whose own fields are
// unset, mirroring defaultMetricsReg: commands flip them once and every
// machine built deep inside exp or nas helpers follows. Run adopts a
// default by setting the machine's field, so a machine that has run once
// keeps its recorder/labels even if the default is later cleared.
var (
	defaultFlightDepth atomic.Int64
	defaultPProfLabels atomic.Bool
)

// SetDefaultFlightDepth makes Run attach a flight recorder of the given
// per-rank ring depth to machines with a nil Flight; 0 (the default)
// leaves them bare.
func SetDefaultFlightDepth(depth int) { defaultFlightDepth.Store(int64(depth)) }

// SetDefaultPProfLabels makes Run label rank goroutines on machines that
// did not opt in themselves.
func SetDefaultPProfLabels(on bool) { defaultPProfLabels.Store(on) }

// machMetrics holds one machine's resolved instrument handles. Handles are
// resolved once per (registry, p) in Machine.Run, so per-message updates
// are single atomic adds with no lookups or allocations.
type machMetrics struct {
	reg *metrics.Registry
	p   int

	msgs     *metrics.Counter
	bytes    *metrics.Counter
	msgSizes *metrics.Histogram
	// links caches per-(src,dst) traffic counters, filled lazily on first
	// use of each pair. Entry src*p+dst is only written by rank src's
	// goroutine, and runs are separated by Run's WaitGroup, so the cache
	// needs no lock.
	links  []*metrics.Counter
	stalls *metrics.FloatCounter

	// store holds the payload-pool and envelope counters the shared
	// message core updates itself.
	store mbox.Meters

	nbIsend *metrics.Counter
	nbIrecv *metrics.Counter
	nbWait  *metrics.Counter

	runs      *metrics.Counter
	deadlocks *metrics.Counter
	makespan  *metrics.Gauge

	collMu sync.Mutex
	coll   map[string]*metrics.Counter
}

func newMachMetrics(reg *metrics.Registry, p int) *machMetrics {
	mm := &machMetrics{reg: reg, p: p}
	mm.msgs = reg.Counter("sim_messages_total", "point-to-point messages injected")
	mm.bytes = reg.Counter("sim_bytes_total", "point-to-point payload bytes injected")
	mm.msgSizes = reg.Histogram("sim_message_bytes", "point-to-point message size distribution", metrics.DefaultBytesBuckets)
	mm.links = make([]*metrics.Counter, p*p)
	mm.stalls = reg.FloatCounter("sim_contention_stall_seconds_total", "virtual seconds message departures were delayed by egress-link contention")
	mm.store = mbox.Meters{
		PoolGets:  reg.Counter("sim_payload_pool_gets_total", "payload buffers requested from the machine pool"),
		PoolHits:  reg.Counter("sim_payload_pool_hits_total", "payload requests served by recycling a pooled buffer"),
		PoolPuts:  reg.Counter("sim_payload_pool_puts_total", "payload buffers returned to the machine pool"),
		PoolDrops: reg.Counter("sim_payload_pool_drops_total", "returned payload buffers dropped because the pool was full"),
		EnvNew:    reg.Counter("sim_mailbox_envelopes_total", "message envelopes by provenance", metrics.L("source", "new")),
		EnvReused: reg.Counter("sim_mailbox_envelopes_total", "message envelopes by provenance", metrics.L("source", "reused")),
	}
	mm.nbIsend = reg.Counter("sim_nonblocking_total", "nonblocking operations by kind", metrics.L("op", "isend"))
	mm.nbIrecv = reg.Counter("sim_nonblocking_total", "nonblocking operations by kind", metrics.L("op", "irecv"))
	mm.nbWait = reg.Counter("sim_nonblocking_total", "nonblocking operations by kind", metrics.L("op", "wait"))
	mm.runs = reg.Counter("sim_runs_total", "completed Machine.Run calls")
	mm.deadlocks = reg.Counter("sim_deadlocks_total", "runs aborted by the deadlock detector")
	mm.makespan = reg.Gauge("sim_makespan_seconds", "virtual-time makespan of the most recent run")
	mm.coll = make(map[string]*metrics.Counter)
	return mm
}

// link returns the traffic counter of the src→dst link, registering it on
// first use so an idle pair costs nothing.
func (mm *machMetrics) link(src, dst int) *metrics.Counter {
	i := src*mm.p + dst
	c := mm.links[i]
	if c == nil {
		c = mm.reg.Counter("sim_link_bytes_total", "bytes injected per directed link",
			metrics.L("link", fmt.Sprintf("%d->%d", src, dst)))
		mm.links[i] = c
	}
	return c
}

// collective returns the per-rank invocation counter of one collective
// flavor (the trace label, e.g. "alltoall/bruck" or "barrier").
func (mm *machMetrics) collective(label string) *metrics.Counter {
	mm.collMu.Lock()
	c := mm.coll[label]
	if c == nil {
		c = mm.reg.Counter("sim_collectives_total", "per-rank collective invocations by operation/algorithm",
			metrics.L("op", label))
		mm.coll[label] = c
	}
	mm.collMu.Unlock()
	return c
}

// nonblocking returns the invocation counter of one nonblocking primitive
// ("isend", "irecv", "wait").
func (mm *machMetrics) nonblocking(op string) *metrics.Counter {
	switch op {
	case "isend":
		return mm.nbIsend
	case "irecv":
		return mm.nbIrecv
	default:
		return mm.nbWait
	}
}

// sent records one injected message on the hot path.
func (mm *machMetrics) sent(src, dst, bytes int) {
	mm.msgs.Inc()
	mm.bytes.Add(int64(bytes))
	mm.msgSizes.Observe(float64(bytes))
	mm.link(src, dst).Add(int64(bytes))
}

// attachMetrics resolves the machine's instrument handles against the
// effective registry (Machine.Metrics, else the package default), reusing
// the previous resolution when nothing changed.
func (m *Machine) attachMetrics() {
	reg := m.Metrics
	if reg == nil {
		reg = defaultMetricsReg.Load()
	}
	if reg == nil {
		m.mm = nil
		return
	}
	if m.mm == nil || m.mm.reg != reg || m.mm.p != m.P {
		m.mm = newMachMetrics(reg, m.P)
	}
}

// MetricsRegistry returns the registry the machine's current/most recent
// run reports to, or nil when metrics are off. Executors use it to publish
// their own pool statistics next to the machine's.
func (r *Rank) MetricsRegistry() *metrics.Registry {
	if mm := r.machine.mm; mm != nil {
		return mm.reg
	}
	return nil
}
