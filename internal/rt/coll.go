// Collectives over the shared message store. The return-shape contracts
// match the simulator exactly — out indexed by origin, own slot filled
// locally, root-only results on GatherTo — so plan consumers cannot tell
// the backends apart. Every algorithm option maps to the direct exchange:
// composed algorithms (ring, Bruck) exist in sim to model their timing,
// which has no meaning here, and the direct form moves each payload once,
// zero-copy.
package rt

import (
	"fmt"

	"genmp/internal/xport"
)

// Reserved tag space of the rt collectives, disjoint from every executor
// reservation in the shared registry.
var collTags = xport.ReserveTags("rt/collective", 1<<29, 16)

// Collective tag offsets within collTags.
const (
	tagAllToAll = iota
	tagAllGather
	tagGather
	tagBcast
)

// Barrier synchronizes all ranks.
func (r *Rank) Barrier() { r.rendezvous("barrier", nil, nil) }

// AllReduce combines each rank's values elementwise and returns each rank
// its own copy of the combined vector. The combine runs in ascending rank
// order regardless of arrival order, so results are deterministic.
func (r *Rank) AllReduce(vals []float64, combine func(a, b float64) float64) []float64 {
	return r.rendezvous("allreduce", vals, combine)
}

// rendezvous runs Barrier and AllReduce through the store's rendezvous,
// which sends no message.
func (r *Rank) rendezvous(op string, vals []float64, combine func(a, b float64) float64) []float64 {
	_, out, err := r.machine.store.Rendezvous(r.ID, op, 0, vals, combine)
	if err != nil {
		r.fail(err)
	}
	return out
}

// AllToAll performs a personalized total exchange: rank q contributes
// sizes[i] bytes (and data[i], when data is non-nil) for every rank i and
// receives every rank's contribution for q, returned indexed by origin.
func (r *Rank) AllToAll(sizes []int, data [][]float64, o xport.CollOpts) [][]float64 {
	p, q := r.machine.P, r.ID
	if len(sizes) != p {
		panic(fmt.Sprintf("rt: AllToAll needs %d sizes, got %d", p, len(sizes)))
	}
	if data != nil && len(data) != p {
		panic(fmt.Sprintf("rt: AllToAll needs %d data blocks, got %d", p, len(data)))
	}
	out := make([][]float64, p)
	if data != nil {
		out[q] = data[q]
	}
	if p == 1 {
		return out
	}
	tag := collTags.Tag(tagAllToAll)
	for off := 1; off < p; off++ {
		dst := (q + off) % p
		var payload []float64
		if data != nil {
			payload = data[dst]
		}
		r.Send(dst, tag, xport.Msg{Bytes: sizes[dst], Payload: payload})
	}
	for off := 1; off < p; off++ {
		src := (q + off) % p
		out[src] = r.Recv(src, tag).Payload
	}
	return out
}

// AllGather collects every rank's size-byte contribution on every rank,
// returned indexed by origin.
func (r *Rank) AllGather(size int, mine []float64, o xport.CollOpts) [][]float64 {
	p, q := r.machine.P, r.ID
	out := make([][]float64, p)
	out[q] = mine
	if p == 1 {
		return out
	}
	tag := collTags.Tag(tagAllGather)
	for off := 1; off < p; off++ {
		dst := (q + off) % p
		r.Send(dst, tag, xport.Msg{Bytes: size, Payload: mine})
	}
	for off := 1; off < p; off++ {
		src := (q + off) % p
		out[src] = r.Recv(src, tag).Payload
	}
	return out
}

// GatherTo collects every rank's size-byte contribution on root, returned
// there indexed by origin (nil elsewhere). Root receives in ascending rank
// order, matching the simulator's linear gather.
func (r *Rank) GatherTo(root, size int, mine []float64, o xport.CollOpts) [][]float64 {
	p, q := r.machine.P, r.ID
	if root < 0 || root >= p {
		panic(fmt.Sprintf("rt: GatherTo root %d of %d", root, p))
	}
	var out [][]float64
	if q == root {
		out = make([][]float64, p)
		out[q] = mine
	}
	if p == 1 {
		return out
	}
	tag := collTags.Tag(tagGather)
	if q != root {
		r.Send(root, tag, xport.Msg{Bytes: size, Payload: mine})
		return nil
	}
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		out[src] = r.Recv(src, tag).Payload
	}
	return out
}

// Bcast distributes root's size-byte block to every rank and returns it.
func (r *Rank) Bcast(root, size int, data []float64, o xport.CollOpts) []float64 {
	p, q := r.machine.P, r.ID
	if root < 0 || root >= p {
		panic(fmt.Sprintf("rt: Bcast root %d of %d", root, p))
	}
	if p == 1 {
		return data
	}
	tag := collTags.Tag(tagBcast)
	if q == root {
		for off := 1; off < p; off++ {
			r.Send((root+off)%p, tag, xport.Msg{Bytes: size, Payload: data})
		}
		return data
	}
	return r.Recv(root, tag).Payload
}

// Exchange pairs a send to dst with a receive from src under one tag; the
// per-message overhead is cost accounting and thus free here.
func (r *Rank) Exchange(dst, src, tag int, m xport.Msg, perMessage float64) xport.Msg {
	return r.SendRecv(dst, tag, m, src, tag)
}
