package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"genmp/internal/xport"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Parent indexes the enclosing span
// of the same recorder (−1 at top level).
type span struct {
	Name       string
	Start, End int64
	Parent     int
	Op, Rank   int
}

// recorder holds the spans of one rank during one op. Only the rank's own
// goroutine writes to it, so it needs no lock.
type recorder struct {
	epoch    time.Time
	op, rank int
	spans    []span
	open     int
}

func newRecorder(epoch time.Time, op, rank int) *recorder {
	return &recorder{epoch: epoch, op: op, rank: rank, open: -1}
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (r *recorder) begin(name string) int {
	r.spans = append(r.spans, span{
		Name: name, Start: int64(time.Since(r.epoch)), Parent: r.open, Op: r.op, Rank: r.rank,
	})
	r.open = len(r.spans) - 1
	return r.open
}

func (r *recorder) end(i int) {
	r.spans[i].End = int64(time.Since(r.epoch))
	r.open = r.spans[i].Parent
}

// do runs f inside a span; a nil recorder runs f untraced.
func (r *recorder) do(name string, f func()) {
	if r == nil {
		f()
		return
	}
	i := r.begin(name)
	f()
	r.end(i)
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the durations of its direct children. Spans of one
// recorder are properly nested, so the children never overlap.
func selfTimes(spans []span) map[string]int64 {
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// rtPrefix names every span the transport decorator records.
const rtPrefix = "rt."

// tracedTransport wraps one rank's transport: it records a span around
// every messaging call and counts the messages and bytes the rank puts on
// the wire. The collective counts follow internal/rt's direct algorithms,
// whose inner sends the wrapper cannot see.
type tracedTransport struct {
	xport.Transport
	rec   *recorder
	msgs  int
	bytes int
}

func (t *tracedTransport) count(msgs, bytes int) {
	t.msgs += msgs
	t.bytes += bytes
}

// msgBytes is the byte count rt charges for m.
func msgBytes(m xport.Msg) int {
	if m.Bytes == 0 && m.Payload != nil {
		return 8 * len(m.Payload)
	}
	return m.Bytes
}

func (t *tracedTransport) Send(dst, tag int, m xport.Msg) {
	defer t.rec.end(t.rec.begin("rt.send"))
	t.count(1, msgBytes(m))
	t.Transport.Send(dst, tag, m)
}

func (t *tracedTransport) Recv(src, tag int) xport.Msg {
	defer t.rec.end(t.rec.begin("rt.recv"))
	return t.Transport.Recv(src, tag)
}

func (t *tracedTransport) SendRecv(dst, sendTag int, m xport.Msg, src, recvTag int) xport.Msg {
	defer t.rec.end(t.rec.begin("rt.sendrecv"))
	t.count(1, msgBytes(m))
	return t.Transport.SendRecv(dst, sendTag, m, src, recvTag)
}

func (t *tracedTransport) Isend(dst, tag int, m xport.Msg) xport.Request {
	defer t.rec.end(t.rec.begin("rt.isend"))
	t.count(1, msgBytes(m))
	return tracedRequest{t.Transport.Isend(dst, tag, m), t.rec}
}

func (t *tracedTransport) Irecv(src, tag int) xport.Request {
	defer t.rec.end(t.rec.begin("rt.irecv"))
	return tracedRequest{t.Transport.Irecv(src, tag), t.rec}
}

func (t *tracedTransport) WaitAll(reqs ...xport.Request) {
	defer t.rec.end(t.rec.begin("rt.waitall"))
	t.Transport.WaitAll(reqs...)
}

func (t *tracedTransport) Barrier() {
	defer t.rec.end(t.rec.begin("rt.barrier"))
	t.Transport.Barrier()
}

func (t *tracedTransport) AllReduce(vals []float64, combine func(a, b float64) float64) []float64 {
	defer t.rec.end(t.rec.begin("rt.allreduce"))
	return t.Transport.AllReduce(vals, combine)
}

func (t *tracedTransport) AllToAll(sizes []int, data [][]float64, o xport.CollOpts) [][]float64 {
	defer t.rec.end(t.rec.begin("rt.alltoall"))
	for dst, n := range sizes {
		if dst != t.Rank() {
			t.count(1, n)
		}
	}
	return t.Transport.AllToAll(sizes, data, o)
}

func (t *tracedTransport) AllGather(size int, mine []float64, o xport.CollOpts) [][]float64 {
	defer t.rec.end(t.rec.begin("rt.allgather"))
	t.count(t.P()-1, (t.P()-1)*size)
	return t.Transport.AllGather(size, mine, o)
}

func (t *tracedTransport) GatherTo(root, size int, mine []float64, o xport.CollOpts) [][]float64 {
	defer t.rec.end(t.rec.begin("rt.gather"))
	if t.Rank() != root {
		t.count(1, size)
	}
	return t.Transport.GatherTo(root, size, mine, o)
}

func (t *tracedTransport) Bcast(root, size int, data []float64, o xport.CollOpts) []float64 {
	defer t.rec.end(t.rec.begin("rt.bcast"))
	if t.Rank() == root {
		t.count(t.P()-1, (t.P()-1)*size)
	}
	return t.Transport.Bcast(root, size, data, o)
}

func (t *tracedTransport) Exchange(dst, src, tag int, m xport.Msg, perMessage float64) xport.Msg {
	defer t.rec.end(t.rec.begin("rt.exchange"))
	t.count(1, msgBytes(m))
	return t.Transport.Exchange(dst, src, tag, m, perMessage)
}

// tracedRequest records a span around Wait.
type tracedRequest struct {
	xport.Request
	rec *recorder
}

func (q tracedRequest) Wait() xport.Msg {
	defer q.rec.end(q.rec.begin("rt.wait"))
	return q.Request.Wait()
}

// traceEvent is one complete ("X") event of the Chrome trace-event format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as a Chrome trace-event JSON file, one
// thread per rank, loadable in ui.perfetto.dev.
func writeChromeTrace(path string, spans []span) error {
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		cat, _, _ := strings.Cut(s.Name, ".")
		events[i] = traceEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Tid: s.Rank, Args: map[string]any{"op": s.Op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o644)
}
