// Package sim is a deterministic virtual-time message-passing machine — the
// stand-in for the paper's MPI runs on a 128-CPU SGI Origin 2000. Each rank
// executes as a goroutine and carries a logical clock; computation advances
// the clock by modeled time, and every message carries the virtual time at
// which it arrives (sender clock + per-message latency + bytes / bandwidth).
// A receive completes at max(receiver clock, arrival time). The program's
// makespan is the maximum final clock over all ranks.
//
// The timing is data-driven, so results are bit-reproducible regardless of
// goroutine scheduling. Payloads are optional: correctness runs exchange
// real float64 data; performance-model runs ship only byte counts.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"

	"genmp/internal/obs/metrics"
	"genmp/internal/xport"
	"genmp/internal/xport/mbox"
)

// A Rank is the virtual-time implementation of the transport interface the
// plan executors run against; internal/rt provides the wall-clock one.
var _ xport.Transport = (*Rank)(nil)

// Network models the communication fabric. Transit time of an n-byte
// message is Latency + n/Bandwidth(p); the sender additionally spends
// SendOverhead of CPU time per message and the receiver RecvOverhead.
//
// BandwidthScaling selects the Section 3.1 footnote alternatives: with
// ScalePerProcessor the aggregate bandwidth grows with p (each link keeps
// Bandwidth bytes/s — a scalable interconnect like the Origin's); with
// FixedBus all processors share a single Bandwidth (K₃(p) constant).
type Network struct {
	Latency      float64 // seconds per message (start-up, the paper's K₂ flavor)
	Bandwidth    float64 // bytes per second per link
	SendOverhead float64 // sender CPU seconds per message
	RecvOverhead float64 // receiver CPU seconds per message
	Scaling      BandwidthScaling
	p            int
}

// BandwidthScaling selects how aggregate bandwidth depends on p.
type BandwidthScaling int

const (
	// ScalePerProcessor: every rank has its own link of the stated
	// bandwidth (network bandwidth proportional to p; K₃(p) ∝ 1/p per the
	// paper's footnote when expressed per total volume).
	ScalePerProcessor BandwidthScaling = iota
	// FixedBus: the stated bandwidth is shared by all ranks (bus-based
	// system; K₃ constant).
	FixedBus
)

// Transit returns the modeled in-flight time of an n-byte message.
func (nw Network) Transit(bytes int) float64 {
	bw := nw.Bandwidth
	if nw.Scaling == FixedBus && nw.p > 1 {
		bw /= float64(nw.p)
	}
	t := nw.Latency
	if bytes > 0 && bw > 0 {
		t += float64(bytes) / bw
	}
	return t
}

// CPU models per-rank computation speed, with an optional cache-residence
// effect: as the per-rank working set shrinks toward the L2 capacity, the
// sustained rate rises toward FlopsPerSec·CacheBoost. This reproduces the
// superlinear speedups real SP runs show on machines like the Origin 2000
// (4 MB L2 per CPU) once each processor's slice of the arrays becomes
// cache-resident.
type CPU struct {
	FlopsPerSec float64
	// CacheBoost is the maximum rate multiplier when the working set fits
	// in L2 (≤ 1 disables the model).
	CacheBoost float64
	// L2Bytes is the per-CPU cache capacity.
	L2Bytes float64
	// WorkingSetBytes is the per-rank resident data volume of the current
	// program (0 disables the model).
	WorkingSetBytes float64
}

// EffectiveFlopsPerSec returns the modeled sustained rate:
// FlopsPerSec · (1 + (CacheBoost−1)·min(1, L2Bytes/WorkingSetBytes)).
func (c CPU) EffectiveFlopsPerSec() float64 {
	if c.CacheBoost <= 1 || c.L2Bytes <= 0 || c.WorkingSetBytes <= 0 {
		return c.FlopsPerSec
	}
	frac := c.L2Bytes / c.WorkingSetBytes
	if frac > 1 {
		frac = 1
	}
	return c.FlopsPerSec * (1 + (c.CacheBoost-1)*frac)
}

// Machine is a p-rank virtual machine. Set Trace to a non-nil *Trace
// before Run to collect per-rank event timelines.
type Machine struct {
	P   int
	Net Network
	CPU CPU
	// Fabric is the interconnect topology. Left nil, Run installs
	// DefaultFabric(Net, P) — timing bit-identical to the pre-Fabric
	// simulator. A stateful fabric (contention) is reset at each Run and
	// must not be shared by concurrently running machines.
	Fabric Fabric
	// Coll is the default collective algorithm applied when a call passes
	// AlgAuto; zero (AlgAuto) keeps each primitive's legacy algorithm.
	Coll  xport.Alg
	Trace *Trace
	// Metrics mirrors run activity (messages, bytes, per-link traffic,
	// collectives, pool and mailbox recycling, contention stalls) into a
	// live registry scrapeable mid-run. Nil falls back to the package
	// default installed by SetDefaultMetrics; with both nil the hot paths
	// pay one nil check and nothing else. Metrics never touch virtual
	// clocks, so results are bit-identical either way.
	Metrics *metrics.Registry
	// Flight, when non-nil, keeps a bounded ring of recent events per rank
	// (recorded even inside collectives) and turns a failed run's one-line
	// error into a post-mortem: Run appends FlightReport to the error.
	Flight *FlightRecorder
	// PProfLabels tags every rank goroutine with runtime/pprof labels
	// ("rank", and "phase" updated by BeginPhase), so CPU/heap profiles
	// collected from the -metrics-addr endpoint attribute samples to sweep
	// phases. Off by default: label swaps allocate, and the differential
	// alloc tests pin the unlabeled path.
	PProfLabels bool
	// mm holds the resolved metric handles of the effective registry.
	mm *machMetrics
	// store is the reusable message core: inboxes, envelope free lists and
	// the payload pool persist across runs (reset each Run), so repeated
	// runs on one machine do not re-allocate messaging state.
	store mbox.Store
	// ranks retains the most recent run's rank states so FlightReport can
	// name nonblocking requests that were posted but never Waited.
	ranks []*Rank
}

// NewMachine builds a machine with the given rank count, network and CPU.
func NewMachine(p int, net Network, cpu CPU) *Machine {
	if p < 1 {
		panic(fmt.Sprintf("sim: machine needs p ≥ 1, got %d", p))
	}
	net.p = p
	return &Machine{P: p, Net: net, CPU: cpu}
}

// Stats aggregates one rank's activity.
type Stats struct {
	ComputeTime float64 // seconds spent in Compute/ComputeFlops
	CommTime    float64 // seconds spent in send/recv overheads
	WaitTime    float64 // seconds spent idle waiting for messages/barriers
	MsgsSent    int
	BytesSent   int
	MsgsRecv    int
	BytesRecv   int
	// FinalClock is the rank's clock when its body returned; IdleTime is
	// Makespan − FinalClock, the trailing idle until the slowest rank
	// finishes. Both are filled in by Run.
	FinalClock float64
	IdleTime   float64
	// Phases breaks the three time counters and the traffic down by the
	// phase label active when they accrued (see Rank.BeginPhase). Activity
	// before the first BeginPhase lands under the empty label.
	Phases map[string]PhaseStats
	// Peers breaks the point-to-point traffic down by counterpart rank.
	Peers map[int]PeerIO
}

// PhaseStats is one phase-label bucket of a rank's Stats.
type PhaseStats struct {
	ComputeTime float64
	CommTime    float64
	WaitTime    float64
	MsgsSent    int
	BytesSent   int
	MsgsRecv    int
	BytesRecv   int
}

// Busy returns the non-waiting time of the bucket.
func (ps PhaseStats) Busy() float64 { return ps.ComputeTime + ps.CommTime }

// Total returns all time accounted to the bucket.
func (ps PhaseStats) Total() float64 { return ps.ComputeTime + ps.CommTime + ps.WaitTime }

// PhaseLabels returns the rank's phase labels in sorted order — the
// deterministic iteration order for Phases, which profiling and
// serialization rely on for bit-stable output.
func (s Stats) PhaseLabels() []string {
	out := make([]string, 0, len(s.Phases))
	for l := range s.Phases {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// PeerIO is the point-to-point traffic between one rank and one peer.
type PeerIO struct {
	MsgsSent  int
	BytesSent int
	MsgsRecv  int
	BytesRecv int
}

// Result summarizes a completed run.
type Result struct {
	Makespan float64 // max final clock over ranks (seconds of virtual time)
	Ranks    []Stats // per-rank statistics
}

// PhaseLabels returns the union of all ranks' phase labels in sorted
// order.
func (r Result) PhaseLabels() []string {
	set := map[string]bool{}
	for _, s := range r.Ranks {
		for l := range s.Phases {
			set[l] = true
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// TotalBytes returns the total bytes sent across all ranks.
func (r Result) TotalBytes() int {
	n := 0
	for _, s := range r.Ranks {
		n += s.BytesSent
	}
	return n
}

// TotalMessages returns the total messages sent across all ranks.
func (r Result) TotalMessages() int {
	n := 0
	for _, s := range r.Ranks {
		n += s.MsgsSent
	}
	return n
}

// Rank is one simulated processor, usable only inside Machine.Run's body.
type Rank struct {
	ID      int
	machine *Machine
	clock   float64
	// stats holds the totals and Peers; the per-phase buckets live in
	// buckets (copied into Stats.Phases by Stats and at the end of Run),
	// and cur caches the current phase's bucket until the next BeginPhase.
	stats   Stats
	buckets map[string]*PhaseStats
	cur     *PhaseStats
	phase   string
	idStr   string // preformatted rank label for pprof (set when PProfLabels)
	// quiet suppresses per-event tracing while > 0 (stats still accrue):
	// collectives bracket their constituent messages with it so the
	// timeline carries one labeled interval instead of the pieces.
	quiet int
	// pending holds posted-but-not-Waited nonblocking requests; reqFree
	// recycles completed request envelopes; chanSeq enforces that Waits on
	// one (src,dst,tag) channel follow Irecv post order.
	pending []*Request
	reqFree []*Request
	chanSeq map[msgKey]*chanOrder
}

// Rank returns the rank's id — the xport.Transport spelling of ID.
func (r *Rank) Rank() int { return r.ID }

// P returns the machine's rank count.
func (r *Rank) P() int { return r.machine.P }

// Clock returns the rank's current virtual time in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// Stats returns a snapshot of the rank's statistics so far.
func (r *Rank) Stats() Stats {
	s := r.stats
	s.Phases = r.phaseStats()
	if r.stats.Peers != nil {
		s.Peers = make(map[int]PeerIO, len(r.stats.Peers))
		for q, io := range r.stats.Peers {
			s.Peers[q] = io
		}
	}
	return s
}

// phaseStats copies the phase buckets into a Stats.Phases map (nil when no
// phase saw activity).
func (r *Rank) phaseStats() map[string]PhaseStats {
	if r.buckets == nil {
		return nil
	}
	out := make(map[string]PhaseStats, len(r.buckets))
	for l, ps := range r.buckets {
		out[l] = *ps
	}
	return out
}

// BeginPhase labels all subsequent activity of this rank with the given
// phase (per-phase buckets in Stats.Phases, Phase field on trace events)
// until the next BeginPhase. It returns the previous label so nested
// libraries can restore it.
func (r *Rank) BeginPhase(label string) (prev string) {
	prev = r.phase
	r.phase = label
	r.cur = nil
	if r.machine.PProfLabels {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
			pprof.Labels("rank", r.idStr, "phase", label)))
	}
	return prev
}

// observing reports whether event structs need to be built at all.
func (r *Rank) observing() bool {
	return r.machine.Trace != nil || r.machine.Flight != nil
}

// emit routes one event to the flight recorder (always, so post-mortems see
// inside collectives) and to the timeline trace (only outside a collective
// bracket, preserving the one-labeled-interval invariant).
func (r *Rank) emit(e Event) {
	if fr := r.machine.Flight; fr != nil {
		fr.record(r.ID, e)
	}
	if tr := r.machine.Trace; tr != nil && r.quiet == 0 {
		tr.add(e)
	}
}

// Phase returns the rank's current phase label.
func (r *Rank) Phase() string { return r.phase }

// phaseBucket returns the current phase's bucket: the cached pointer, or —
// on the first activity since BeginPhase — the label's bucket, created if
// new. The hot paths thus touch the label map once per phase, not once per
// event.
func (r *Rank) phaseBucket() *PhaseStats {
	if r.cur == nil {
		if r.buckets == nil {
			r.buckets = make(map[string]*PhaseStats)
		}
		r.cur = r.buckets[r.phase]
		if r.cur == nil {
			r.cur = new(PhaseStats)
			r.buckets[r.phase] = r.cur
		}
	}
	return r.cur
}

func (r *Rank) addCompute(sec float64) {
	r.stats.ComputeTime += sec
	r.phaseBucket().ComputeTime += sec
}

func (r *Rank) addComm(sec float64) {
	r.stats.CommTime += sec
	r.phaseBucket().CommTime += sec
}

func (r *Rank) addWait(sec float64) {
	r.stats.WaitTime += sec
	r.phaseBucket().WaitTime += sec
}

func (r *Rank) addSent(peer, bytes int) {
	r.stats.MsgsSent++
	r.stats.BytesSent += bytes
	ps := r.phaseBucket()
	ps.MsgsSent++
	ps.BytesSent += bytes
	if r.stats.Peers == nil {
		r.stats.Peers = make(map[int]PeerIO)
	}
	io := r.stats.Peers[peer]
	io.MsgsSent++
	io.BytesSent += bytes
	r.stats.Peers[peer] = io
}

func (r *Rank) addRecvd(peer, bytes int) {
	r.stats.MsgsRecv++
	r.stats.BytesRecv += bytes
	ps := r.phaseBucket()
	ps.MsgsRecv++
	ps.BytesRecv += bytes
	if r.stats.Peers == nil {
		r.stats.Peers = make(map[int]PeerIO)
	}
	io := r.stats.Peers[peer]
	io.MsgsRecv++
	io.BytesRecv += bytes
	r.stats.Peers[peer] = io
}

// Compute advances the rank's clock by the given virtual seconds.
func (r *Rank) Compute(seconds float64) {
	if seconds < 0 {
		panic("sim: Compute with negative time")
	}
	start := r.clock
	r.clock += seconds
	r.addCompute(seconds)
	if seconds > 0 && r.observing() {
		r.emit(Event{Rank: r.ID, Kind: EvCompute, Start: start, End: r.clock, Peer: -1, Phase: r.phase})
	}
}

// ComputeFlops advances the clock by flops / CPU.EffectiveFlopsPerSec().
func (r *Rank) ComputeFlops(flops float64) {
	r.Compute(flops / r.machine.CPU.EffectiveFlopsPerSec())
}

// Send posts a message to dst. Sends are eager (buffered): the sender only
// pays its injection overhead.
func (r *Rank) Send(dst, tag int, m xport.Msg) {
	if dst < 0 || dst >= r.machine.P {
		panic(fmt.Sprintf("sim: Send to rank %d of %d", dst, r.machine.P))
	}
	if m.Bytes == 0 && m.Payload != nil {
		m.Bytes = 8 * len(m.Payload)
	}
	m.Src = r.ID
	m.Tag = tag
	r.clock += r.machine.Net.SendOverhead
	r.addComm(r.machine.Net.SendOverhead)
	// The fabric may delay the departure past the sender's clock when the
	// egress link is still busy (contention); the sender itself does not
	// stall — injection is eager.
	sent := r.machine.Fabric.Inject(r.ID, dst, r.clock, m.Bytes)
	r.addSent(dst, m.Bytes)
	if mm := r.machine.mm; mm != nil {
		mm.sent(r.ID, dst, m.Bytes)
	}
	if r.observing() {
		r.emit(Event{Rank: r.ID, Kind: EvSend, Start: r.clock - r.machine.Net.SendOverhead, End: r.clock, Peer: dst, Bytes: m.Bytes, Tag: tag, Phase: r.phase})
	}
	r.machine.store.Put(r.ID, dst, tag, m, sent)
}

// Recv blocks until the next message from src with the given tag arrives,
// advancing the clock to max(now, arrival) + receive overhead.
func (r *Rank) Recv(src, tag int) xport.Msg {
	if src < 0 || src >= r.machine.P {
		panic(fmt.Sprintf("sim: Recv from rank %d of %d", src, r.machine.P))
	}
	recvStart := r.clock
	// Mark the receive as in-flight in the flight ring before blocking: if
	// it never completes, the post-mortem shows exactly what this rank was
	// waiting on as its final event. The completed EvRecv below supersedes
	// it in healthy runs.
	if fr := r.machine.Flight; fr != nil {
		fr.record(r.ID, Event{Rank: r.ID, Kind: EvBlocked, Start: recvStart, End: recvStart, Peer: src, Tag: tag, Phase: r.phase})
	}
	m, sent, err := r.machine.store.Get(src, r.ID, tag)
	if err != nil {
		panic(err)
	}
	// The first byte reaches the receiver at sent + head latency (fabric
	// hop count); the message body then occupies the receiver's link,
	// which serializes concurrent incoming traffic (all-to-alls pay for
	// their volume).
	fab := r.machine.Fabric
	headArrive := sent + fab.HeadLatency(src, r.ID)
	wait := 0.0
	if headArrive > r.clock {
		wait = headArrive - r.clock
		r.addWait(wait)
		r.clock = headArrive
	}
	body := fab.BodyTime(src, r.ID, m.Bytes)
	r.clock += body + r.machine.Net.RecvOverhead
	r.addComm(body + r.machine.Net.RecvOverhead)
	r.addRecvd(src, m.Bytes)
	if r.observing() {
		r.emit(Event{Rank: r.ID, Kind: EvRecv, Start: recvStart, End: r.clock, Peer: src, Bytes: m.Bytes, Tag: tag, Wait: wait, Phase: r.phase})
	}
	return m
}

// SendRecv posts a send to dst and then receives from src (safe in rings
// and shifts because sends never block).
func (r *Rank) SendRecv(dst, sendTag int, m xport.Msg, src, recvTag int) xport.Msg {
	r.Send(dst, sendTag, m)
	return r.Recv(src, recvTag)
}

// Barrier synchronizes all ranks; every clock advances to the latest
// arrival plus a log₂(p)-round latency cost.
func (r *Rank) Barrier() { r.rendezvous("barrier", nil, nil) }

// AllReduce combines each rank's values elementwise with the given function
// (e.g. math.Max, or addition) in ascending rank order and returns each
// rank its own copy of the combined vector, modeled as ⌈log₂ p⌉ exchange
// rounds.
func (r *Rank) AllReduce(vals []float64, combine func(a, b float64) float64) []float64 {
	return r.rendezvous("allreduce", vals, combine)
}

// rendezvous runs Barrier and AllReduce through the store's rendezvous:
// the clock advances to the latest arrival plus the collective's cost.
func (r *Rank) rendezvous(label string, vals []float64, combine func(a, b float64) float64) []float64 {
	start := r.clock
	t, out, err := r.machine.store.Rendezvous(r.ID, label, r.clock, vals, combine)
	if err != nil {
		panic(err)
	}
	cost := r.collectiveCost(8 * len(vals))
	wait := 0.0
	if t > r.clock {
		wait = t - r.clock
		r.addWait(wait)
	}
	r.clock = t + cost
	r.addComm(cost)
	if mm := r.machine.mm; mm != nil {
		mm.collective(label).Inc()
	}
	if fr := r.machine.Flight; fr != nil {
		fr.record(r.ID, Event{Rank: r.ID, Kind: EvCollective, Start: start, End: r.clock, Peer: -1, Label: label, Wait: wait, Phase: r.phase})
	}
	if tr := r.machine.Trace; tr != nil {
		tr.add(Event{Rank: r.ID, Kind: EvCollective, Start: start, End: r.clock, Peer: -1, Label: label, Wait: wait, Phase: r.phase})
	}
	return out
}

// collectiveCost models a barrier/reduction round structure on this rank:
// ⌈log₂ p⌉ exchange rounds for the tree algorithms (the legacy default) or
// p−1 neighbor rounds for ring/pairwise (Machine.Coll). On a uniform
// fabric the per-round cost is endpoint-independent and multiplies — the
// exact pre-Fabric expression; on a topology-aware fabric each round is
// charged at its hypercube partner's (or ring neighbor's) distance.
func (r *Rank) collectiveCost(bytes int) float64 {
	p := r.machine.P
	if p == 1 {
		return 0
	}
	fab := r.machine.Fabric
	so, ro := r.machine.Net.SendOverhead, r.machine.Net.RecvOverhead
	switch r.machine.Coll {
	case xport.AlgRing, xport.AlgPairwise:
		per := so + ro + fab.Transit(r.ID, (r.ID+1)%p, bytes)
		return float64(p-1) * per
	default: // AlgAuto, AlgDoubling, AlgBruck: the ⌈log₂ p⌉ tree
		rounds := 0
		for n := 1; n < p; n *= 2 {
			rounds++
		}
		if fab.Uniform() {
			per := so + ro + fab.Transit(r.ID, (r.ID+1)%p, bytes)
			return float64(rounds) * per
		}
		total := 0.0
		for k := 0; k < rounds; k++ {
			total += so + ro + fab.Transit(r.ID, (r.ID^1<<k)%p, bytes)
		}
		return total
	}
}

// Run executes body on every rank concurrently and returns the run's
// Result. A panic in any rank aborts the run and is returned as an error.
func (m *Machine) Run(body func(r *Rank)) (Result, error) {
	if m.Fabric == nil {
		m.Fabric = DefaultFabric(m.Net, m.P)
	}
	if rf, ok := m.Fabric.(interface{ reset() }); ok {
		rf.reset()
	}
	m.attachMetrics()
	if m.Flight == nil {
		if d := int(defaultFlightDepth.Load()); d > 0 {
			m.Flight = NewFlightRecorder(d)
		}
	}
	if !m.PProfLabels && defaultPProfLabels.Load() {
		m.PProfLabels = true
	}
	if cf, ok := m.Fabric.(*ContentionFabric); ok {
		if m.mm != nil {
			cf.stalls = m.mm.stalls
		} else {
			cf.stalls = nil
		}
	}
	if m.Flight != nil {
		m.Flight.attach(m.P)
	}
	var meters *mbox.Meters
	if m.mm != nil {
		meters = &m.mm.store
	}
	st := &m.store
	st.Reset(m.P, meters)
	ranks := make([]*Rank, m.P)
	m.ranks = ranks
	errs := make([]error, m.P)
	var wg sync.WaitGroup
	for id := 0; id < m.P; id++ {
		ranks[id] = &Rank{ID: id, machine: m}
		if m.PProfLabels {
			ranks[id].idStr = strconv.Itoa(id)
		}
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer st.Exit()
			defer func() {
				if rec := recover(); rec != nil {
					errs[r.ID] = fmt.Errorf("sim: rank %d: %v", r.ID, rec)
				}
			}()
			if m.PProfLabels {
				pprof.Do(context.Background(), pprof.Labels("rank", r.idStr), func(context.Context) {
					body(r)
				})
			} else {
				body(r)
			}
		}(ranks[id])
	}
	wg.Wait()
	if m.mm != nil {
		m.mm.runs.Inc()
		if st.Deadlocked() {
			m.mm.deadlocks.Inc()
		}
	}
	if err := errors.Join(errs...); err != nil {
		if m.Flight != nil {
			err = fmt.Errorf("%w\n\n%s", err, m.FlightReport())
		}
		return Result{}, err
	}
	res := Result{Ranks: make([]Stats, m.P)}
	for _, r := range ranks {
		if r.clock > res.Makespan {
			res.Makespan = r.clock
		}
	}
	for id, r := range ranks {
		r.stats.FinalClock = r.clock
		r.stats.IdleTime = res.Makespan - r.clock
		r.stats.Phases = r.phaseStats()
		res.Ranks[id] = r.stats
	}
	if m.mm != nil {
		m.mm.makespan.Set(res.Makespan)
	}
	return res, nil
}
