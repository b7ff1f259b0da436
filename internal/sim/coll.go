// First-class collective operations on Rank. Historically the distribution
// layers hand-rolled these as point-to-point loops (dist.Block.allToAll,
// dmem.GatherToRoot); promoting them into sim gives every caller selectable
// algorithms (direct pairwise, ring, recursive-doubling/Bruck, binomial
// trees), one EvCollective trace event per rank with the algorithm in the
// label, and a single place where the timing conventions live.
//
// Inside a collective the constituent sends and receives still accrue to
// the rank's Stats (traffic and time are real), but their individual trace
// events are suppressed so the timeline and the critical-path analysis see
// one labeled collective interval instead of double-counted pieces.
package sim

import (
	"fmt"

	"genmp/internal/xport"
)

// resolveAlg applies the AlgAuto chain: call option, then machine default.
// The caller maps a remaining AlgAuto to its own legacy algorithm.
func (r *Rank) resolveAlg(o xport.CollOpts) xport.Alg {
	if o.Alg != xport.AlgAuto {
		return o.Alg
	}
	return r.machine.Coll
}

// collective brackets body as one traced EvCollective interval: inner
// send/recv/compute events are suppressed (stats still accrue) and the
// emitted event carries the accumulated wait and bytes sent inside.
func (r *Rank) collective(label string, body func()) {
	if mm := r.machine.mm; mm != nil && r.quiet == 0 {
		mm.collective(label).Inc()
	}
	start := r.clock
	waitBefore := r.stats.WaitTime
	sentBefore := r.stats.BytesSent
	r.quiet++
	body()
	r.quiet--
	if r.quiet == 0 && r.observing() {
		e := Event{
			Rank: r.ID, Kind: EvCollective, Start: start, End: r.clock, Peer: -1,
			Label: label, Bytes: r.stats.BytesSent - sentBefore,
			Wait: r.stats.WaitTime - waitBefore, Phase: r.phase,
		}
		if fr := r.machine.Flight; fr != nil {
			fr.record(r.ID, e)
		}
		if tr := r.machine.Trace; tr != nil {
			tr.add(e)
		}
	}
}

// collBlock is one origin→dst unit moving through a composed collective.
// size is the modeled byte count; data is the optional payload.
type collBlock struct {
	origin, dst int
	size        int
	data        []float64
}

// encodeBlocks flattens blocks into one forwardable payload. The framing is
// float64 words — [n, then (origin, dst, size, len(data)) per block, then
// all data concatenated] — so composed algorithms work in model-only runs
// too. It returns the payload and the modeled byte total (the block sizes;
// framing words are bookkeeping, not modeled traffic, though an otherwise
// empty bundle is still charged its 8-byte count word by Send).
func encodeBlocks(blocks []collBlock) (payload []float64, modeled int) {
	payload = append(payload, float64(len(blocks)))
	for _, b := range blocks {
		payload = append(payload, float64(b.origin), float64(b.dst), float64(b.size), float64(len(b.data)))
		modeled += b.size
	}
	for _, b := range blocks {
		payload = append(payload, b.data...)
	}
	return payload, modeled
}

func decodeBlocks(payload []float64) []collBlock {
	n := int(payload[0])
	blocks := make([]collBlock, n)
	off := 1 + 4*n
	for i := 0; i < n; i++ {
		h := payload[1+4*i:]
		nd := int(h[3])
		blocks[i] = collBlock{origin: int(h[0]), dst: int(h[1]), size: int(h[2])}
		if nd > 0 {
			blocks[i].data = payload[off : off+nd]
		}
		off += nd
	}
	return blocks
}

// sendBlocks ships a bundle with the modeled byte count, bracketed by the
// per-message overhead.
func (r *Rank) sendBlocks(dst, tag int, blocks []collBlock, pm float64) {
	payload, modeled := encodeBlocks(blocks)
	r.Compute(pm)
	r.Send(dst, tag, xport.Msg{Bytes: modeled, Payload: payload})
}

// recvBlocks receives a bundle, charging the per-message overhead after.
func (r *Rank) recvBlocks(src, tag int, pm float64) []collBlock {
	m := r.Recv(src, tag)
	r.Compute(pm)
	return decodeBlocks(m.Payload)
}

// AllToAll performs a personalized total exchange: rank q contributes
// sizes[i] modeled bytes (and data[i], when data is non-nil) for every rank
// i, and receives every rank's contribution for q, returned indexed by
// origin. The default algorithm (AlgAuto with no machine override) is the
// direct pairwise exchange, whose timing is bit-identical to the historical
// hand-rolled transpose loop: peers are walked in (q+off) mod p order,
// every send and receive bracketed by o.PerMessage of CPU time. AlgRing
// forwards blocks around a ring in p−1 steps; AlgDoubling/AlgBruck
// store-and-forward in ⌈log₂ p⌉ rounds.
func (r *Rank) AllToAll(sizes []int, data [][]float64, o xport.CollOpts) [][]float64 {
	p := r.machine.P
	if len(sizes) != p {
		panic(fmt.Sprintf("sim: AllToAll needs %d sizes, got %d", p, len(sizes)))
	}
	if data != nil && len(data) != p {
		panic(fmt.Sprintf("sim: AllToAll needs %d data blocks, got %d", p, len(data)))
	}
	alg := r.resolveAlg(o)
	var label string
	switch alg {
	case xport.AlgRing:
		label = "alltoall/ring"
	case xport.AlgDoubling, xport.AlgBruck:
		label = "alltoall/bruck"
	default:
		alg = xport.AlgPairwise
		label = "alltoall/pairwise"
	}
	out := make([][]float64, p)
	if data != nil {
		out[r.ID] = data[r.ID]
	}
	if p == 1 {
		r.collective(label, func() {})
		return out
	}
	r.collective(label, func() {
		switch alg {
		case xport.AlgRing:
			r.allToAllRing(sizes, data, o.PerMessage, out)
		case xport.AlgDoubling, xport.AlgBruck:
			r.allToAllBruck(sizes, data, o.PerMessage, out)
		default:
			r.allToAllPairwise(sizes, data, o.PerMessage, out)
		}
	})
	return out
}

func (r *Rank) allToAllPairwise(sizes []int, data [][]float64, pm float64, out [][]float64) {
	p, q := r.machine.P, r.ID
	tag := collTags.Tag(tagAllToAll)
	for off := 1; off < p; off++ {
		dst := (q + off) % p
		var payload []float64
		if data != nil {
			payload = data[dst]
		}
		r.Compute(pm)
		r.Send(dst, tag, xport.Msg{Bytes: sizes[dst], Payload: payload})
	}
	for off := 1; off < p; off++ {
		src := (q + off) % p
		m := r.Recv(src, tag)
		r.Compute(pm)
		out[src] = m.Payload
	}
}

func (r *Rank) allToAllRing(sizes []int, data [][]float64, pm float64, out [][]float64) {
	p, q := r.machine.P, r.ID
	tag := collTags.Tag(tagAllToAll)
	right, left := (q+1)%p, (q+p-1)%p
	var pending []collBlock
	for i := 0; i < p; i++ {
		if i != q {
			b := collBlock{origin: q, dst: i, size: sizes[i]}
			if data != nil {
				b.data = data[i]
			}
			pending = append(pending, b)
		}
	}
	// Every block advances one hop per step; the farthest is p−1 hops away.
	for s := 1; s < p; s++ {
		r.sendBlocks(right, tag, pending, pm)
		pending = pending[:0]
		for _, b := range r.recvBlocks(left, tag, pm) {
			if b.dst == q {
				out[b.origin] = b.data
			} else {
				pending = append(pending, b)
			}
		}
	}
}

func (r *Rank) allToAllBruck(sizes []int, data [][]float64, pm float64, out [][]float64) {
	p, q := r.machine.P, r.ID
	tag := collTags.Tag(tagAllToAll)
	var pending []collBlock
	for i := 0; i < p; i++ {
		if i != q {
			b := collBlock{origin: q, dst: i, size: sizes[i]}
			if data != nil {
				b.data = data[i]
			}
			pending = append(pending, b)
		}
	}
	// Round k moves blocks whose remaining ring distance has bit k set by
	// 2^k; distances are < p, so ⌈log₂ p⌉ rounds clear every bit.
	for k := 0; 1<<k < p; k++ {
		dst := (q + 1<<k) % p
		src := (q + p - 1<<k) % p
		var ship, keep []collBlock
		for _, b := range pending {
			if (b.dst-q+p)%p&(1<<k) != 0 {
				ship = append(ship, b)
			} else {
				keep = append(keep, b)
			}
		}
		pending = keep
		r.sendBlocks(dst, tag, ship, pm)
		for _, b := range r.recvBlocks(src, tag, pm) {
			if b.dst == q {
				out[b.origin] = b.data
			} else {
				pending = append(pending, b)
			}
		}
	}
	if len(pending) > 0 {
		panic(fmt.Sprintf("sim: bruck all-to-all left %d undelivered blocks on rank %d", len(pending), q))
	}
}

// AllGather collects every rank's size-byte contribution on every rank,
// returned indexed by origin (mine may be nil in model-only runs). The
// default algorithm is the ring (p−1 neighbor steps, each forwarding one
// origin's block); AlgPairwise sends directly to every peer;
// AlgDoubling/AlgBruck exchange held sets with hypercube-distance peers in
// ⌈log₂ p⌉ rounds.
func (r *Rank) AllGather(size int, mine []float64, o xport.CollOpts) [][]float64 {
	p, q := r.machine.P, r.ID
	alg := r.resolveAlg(o)
	var label string
	switch alg {
	case xport.AlgPairwise:
		label = "allgather/pairwise"
	case xport.AlgDoubling, xport.AlgBruck:
		label = "allgather/doubling"
	default:
		alg = xport.AlgRing
		label = "allgather/ring"
	}
	out := make([][]float64, p)
	out[q] = mine
	if p == 1 {
		r.collective(label, func() {})
		return out
	}
	tag := collTags.Tag(tagAllGather)
	r.collective(label, func() {
		switch alg {
		case xport.AlgPairwise:
			for off := 1; off < p; off++ {
				dst := (q + off) % p
				r.Compute(o.PerMessage)
				r.Send(dst, tag, xport.Msg{Bytes: size, Payload: mine})
			}
			for off := 1; off < p; off++ {
				src := (q + off) % p
				m := r.Recv(src, tag)
				r.Compute(o.PerMessage)
				out[src] = m.Payload
			}
		case xport.AlgDoubling, xport.AlgBruck:
			// Bruck-style: the held set doubles each round (the last round
			// overlaps for non-power-of-2 p; have dedups).
			have := make([]bool, p)
			have[q] = true
			held := []collBlock{{origin: q, dst: -1, size: size, data: mine}}
			for k := 0; 1<<k < p; k++ {
				dst := (q + p - 1<<k) % p
				src := (q + 1<<k) % p
				r.sendBlocks(dst, tag, held, o.PerMessage)
				for _, b := range r.recvBlocks(src, tag, o.PerMessage) {
					if !have[b.origin] {
						have[b.origin] = true
						out[b.origin] = b.data
						held = append(held, b)
					}
				}
			}
		default: // ring
			right, left := (q+1)%p, (q+p-1)%p
			cur := xport.Msg{Bytes: size, Payload: mine}
			for s := 1; s < p; s++ {
				r.Compute(o.PerMessage)
				r.Send(right, tag, cur)
				cur = r.Recv(left, tag)
				r.Compute(o.PerMessage)
				out[(q+p-s)%p] = cur.Payload
			}
		}
	})
	return out
}

// GatherTo collects every rank's size-byte contribution on root, returned
// there indexed by origin (nil elsewhere). The default algorithm is the
// linear gather whose timing is bit-identical to the historical
// dmem.GatherToRoot loop: non-roots send to root, root receives in
// ascending rank order. AlgRing chains bundles down the ring toward root;
// AlgDoubling/AlgBruck climb a binomial tree in ⌈log₂ p⌉ rounds.
func (r *Rank) GatherTo(root, size int, mine []float64, o xport.CollOpts) [][]float64 {
	p, q := r.machine.P, r.ID
	if root < 0 || root >= p {
		panic(fmt.Sprintf("sim: GatherTo root %d of %d", root, p))
	}
	alg := r.resolveAlg(o)
	var label string
	switch alg {
	case xport.AlgRing:
		label = "gather/chain"
	case xport.AlgDoubling, xport.AlgBruck:
		label = "gather/binomial"
	default:
		alg = xport.AlgPairwise
		label = "gather/linear"
	}
	var out [][]float64
	if q == root {
		out = make([][]float64, p)
		out[q] = mine
	}
	if p == 1 {
		r.collective(label, func() {})
		return out
	}
	tag := collTags.Tag(tagGather)
	r.collective(label, func() {
		switch alg {
		case xport.AlgRing:
			// Offsets p−1 → 1 pass accumulated bundles toward the root.
			o1 := (q - root + p) % p
			var held []collBlock
			if o1 < p-1 {
				held = r.recvBlocks((root+o1+1)%p, tag, o.PerMessage)
			}
			held = append(held, collBlock{origin: q, dst: root, size: size, data: mine})
			if o1 > 0 {
				r.sendBlocks((root+o1-1)%p, tag, held, o.PerMessage)
			} else {
				for _, b := range held {
					out[b.origin] = b.data
				}
			}
		case xport.AlgDoubling, xport.AlgBruck:
			o1 := (q - root + p) % p
			held := []collBlock{{origin: q, dst: root, size: size, data: mine}}
			for k := 0; 1<<k < p; k++ {
				peer := o1 ^ 1<<k
				if o1&(1<<k) != 0 {
					r.sendBlocks((root+peer)%p, tag, held, o.PerMessage)
					held = nil
					break
				}
				if peer < p {
					held = append(held, r.recvBlocks((root+peer)%p, tag, o.PerMessage)...)
				}
			}
			if q == root {
				for _, b := range held {
					out[b.origin] = b.data
				}
			}
		default: // linear
			if q != root {
				r.Compute(o.PerMessage)
				r.Send(root, tag, xport.Msg{Bytes: size, Payload: mine})
				return
			}
			for src := 0; src < p; src++ {
				if src == root {
					continue
				}
				m := r.Recv(src, tag)
				r.Compute(o.PerMessage)
				out[src] = m.Payload
			}
		}
	})
	return out
}

// Bcast distributes root's size-byte block to every rank and returns it
// (the payload travels when data is non-nil on root). The default is the
// binomial tree (⌈log₂ p⌉ depth); AlgPairwise sends linearly from root;
// AlgRing chains around the ring.
func (r *Rank) Bcast(root, size int, data []float64, o xport.CollOpts) []float64 {
	p, q := r.machine.P, r.ID
	if root < 0 || root >= p {
		panic(fmt.Sprintf("sim: Bcast root %d of %d", root, p))
	}
	alg := r.resolveAlg(o)
	var label string
	switch alg {
	case xport.AlgPairwise:
		label = "bcast/linear"
	case xport.AlgRing:
		label = "bcast/chain"
	default:
		alg = xport.AlgDoubling
		label = "bcast/binomial"
	}
	if p == 1 {
		r.collective(label, func() {})
		return data
	}
	tag := collTags.Tag(tagBcast)
	o1 := (q - root + p) % p
	r.collective(label, func() {
		switch alg {
		case xport.AlgPairwise:
			if q == root {
				for off := 1; off < p; off++ {
					r.Compute(o.PerMessage)
					r.Send((root+off)%p, tag, xport.Msg{Bytes: size, Payload: data})
				}
			} else {
				m := r.Recv(root, tag)
				r.Compute(o.PerMessage)
				data, size = m.Payload, m.Bytes
			}
		case xport.AlgRing:
			if o1 > 0 {
				m := r.Recv((root+o1-1)%p, tag)
				r.Compute(o.PerMessage)
				data, size = m.Payload, m.Bytes
			}
			if o1 < p-1 {
				r.Compute(o.PerMessage)
				r.Send((root+o1+1)%p, tag, xport.Msg{Bytes: size, Payload: data})
			}
		default: // binomial
			k := 0
			if o1 > 0 {
				for ; 1<<(k+1) <= o1; k++ {
				}
				m := r.Recv((root+o1-1<<k)%p, tag)
				r.Compute(o.PerMessage)
				data, size = m.Payload, m.Bytes
				k++
			}
			for ; 1<<k < p; k++ {
				dst := o1 + 1<<k
				if dst < p {
					r.Compute(o.PerMessage)
					r.Send((root+dst)%p, tag, xport.Msg{Bytes: size, Payload: data})
				}
			}
		}
	})
	return data
}

// Exchange is the neighbor-exchange (halo) primitive: per-message CPU
// overhead, a combined send-to-dst / receive-from-src, per-message overhead
// again — the exact bracketing the distribution layers historically used,
// centralized so all halo paths share one convention.
func (r *Rank) Exchange(dst, src, tag int, m xport.Msg, perMessage float64) xport.Msg {
	r.Compute(perMessage)
	got := r.SendRecv(dst, tag, m, src, tag)
	r.Compute(perMessage)
	return got
}

// Collective tag offsets within collTags.
const (
	tagAllToAll = iota
	tagAllGather
	tagGather
	tagBcast
)
