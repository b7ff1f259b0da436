// Package redist is the generalized redistribution engine: a planner that
// compiles an arbitrary distribution→distribution move — BLOCK↔MULTI,
// different tile grids, different rank sets — into a schedule of sim
// collectives, plus the executor that runs it in model-only or real-data
// mode. The two historical bespoke paths are special cases: the dynamic
// block transpose is a BLOCK(dim a)→BLOCK(dim b) redistribution lowered
// onto one AllToAll, and the halo exchange (dist) is a shifted
// partial redistribution lowered onto neighbor Exchange steps. Their
// wrappers re-emit through Compile/CompileHalo and replay the legacy
// schedules bit for bit.
//
// A Plan mirrors the plan.SweepPlan IR one layer up: per-rank send/recv
// slab schedules with exact byte counts, Validate-checked invariants (rank
// membership, byte symmetry, tag discipline, volume conservation, peak
// bound), a deterministic Fingerprint, and a peak-memory accountant that
// chunks oversized moves into rounds so no rank ever stages more than
// Spec.MaxBytes at once — the portable-collectives discipline from Rink et
// al. applied to the paper's distributions.
package redist

import (
	"fmt"
	"strings"
	"sync"

	"genmp/internal/grid"
	"genmp/internal/xport"
)

// Op is the collective primitive a Step lowers onto.
type Op string

const (
	// OpAllToAll is a personalized total exchange round: every rank ships
	// each peer the intersection of its source regions with the peer's
	// target regions.
	OpAllToAll Op = "alltoall"
	// OpExchange is a neighbor exchange: one aggregated message each way
	// between the single upstream and downstream peers (the halo pattern,
	// legal because of the paper's neighbor property).
	OpExchange Op = "exchange"
)

// Kind distinguishes the two schedule families the planner emits.
type Kind string

const (
	// KindMove is a full redistribution: every element of the array moves
	// from its source owner to its target owner (possibly to itself).
	KindMove Kind = "move"
	// KindHalo is a partial redistribution: only boundary faces move, into
	// shadow copies adjacent to the receiving tiles.
	KindHalo Kind = "halo"
)

// Move is one contiguous slab transfer: the global region Rect travels from
// source rank From to target rank To. FromCoord/ToCoord are the owning tile
// coordinates within the respective layouts (nil for slab layouts) — the
// hook a storage binding uses to locate the region in per-tile memory.
type Move struct {
	From, To int
	Rect     grid.Rect
	// Bytes is the modeled wire size: Rect.Size() × 8 × NGrids.
	Bytes              int
	FromCoord, ToCoord []int
}

// Exch is one rank's descriptor of an OpExchange step: the single
// downstream and upstream peers, the message tag, and the aggregated byte
// counts each way.
type Exch struct {
	Dst, Src             int
	Tag                  int
	SendBytes, RecvBytes int
}

// Step is one synchronized round of the schedule. Sends[q] lists rank q's
// outgoing wire moves in deterministic order (the packing order of the
// payload), Recvs[q] its incoming moves in unpacking order, Locals[q] the
// self-moves that never touch the wire. Exch is per-rank metadata for
// OpExchange steps (nil otherwise).
type Step struct {
	Op Op
	// Dim / Dir annotate OpExchange steps with the halo dimension and
	// direction (±1); −1 / 0 for OpAllToAll.
	Dim, Dir int
	// Round is the chunk-round index of an OpAllToAll step (0 when the
	// accountant left the move whole).
	Round                int
	Sends, Recvs, Locals [][]Move
	Exch                 []Exch
}

// Plan is a compiled redistribution: the schedule every rank executes and
// every consumer (executor, cost fold, obs dump, metrics audit) reads.
type Plan struct {
	Kind Kind
	// P is the world size the executor runs under: max(FromP, ToP). Ranks
	// in [FromP, P) only receive; ranks in [ToP, P) only send.
	P          int
	FromP, ToP int
	From, To   string
	Eta        []int
	NGrids     int
	// Depth is the halo width of a KindHalo plan (0 otherwise).
	Depth int
	// Tags is the reservation every Exch tag falls in.
	Tags xport.TagSpace
	// MaxBytes is the accountant's per-rank staging budget (0 = unbounded:
	// the whole move runs in one round).
	MaxBytes int
	// PeakBytes is the accountant's declared bound: the largest number of
	// bytes any rank stages at once executing this plan (send and recv
	// payloads of a round combined, and any single local copy). Validate
	// checks the schedule against it; Execute reports the observed peak.
	PeakBytes int
	Steps     []Step

	fpOnce sync.Once
	fp     string
}

// SendSizes returns rank q's per-peer wire byte counts for one step, as an
// AllToAll sizes vector of length n (n ≥ Plan.P; extra entries stay 0 so a
// plan can run inside a larger machine). Self traffic is local and stays 0.
func (pl *Plan) SendSizes(q, step, n int) []int {
	sizes := make([]int, n)
	for _, m := range pl.Steps[step].Sends[q] {
		sizes[m.To] += m.Bytes
	}
	return sizes
}

// WireBytes returns the total bytes the plan puts on the wire (all steps,
// all ranks; locals excluded).
func (pl *Plan) WireBytes() int {
	t := 0
	for _, st := range pl.Steps {
		for q := range st.Sends {
			for _, m := range st.Sends[q] {
				t += m.Bytes
			}
		}
	}
	return t
}

// WireMessages returns the number of point-to-point payloads the schedule
// itself aggregates moves into: one per (rank, peer) pair per OpAllToAll
// round, one per rank per OpExchange step. (Collective algorithms may
// split or merge these on the actual wire.)
func (pl *Plan) WireMessages() int {
	n := 0
	for si := range pl.Steps {
		st := &pl.Steps[si]
		if st.Op == OpExchange {
			for q := range st.Exch {
				if st.Exch[q].SendBytes > 0 {
					n++
				}
			}
			continue
		}
		for q := range st.Sends {
			peers := map[int]bool{}
			for _, m := range st.Sends[q] {
				peers[m.To] = true
			}
			n += len(peers)
		}
	}
	return n
}

// TotalBytes returns every moved byte including local copies — the volume
// conservation side of the Validate check.
func (pl *Plan) TotalBytes() int {
	t := pl.WireBytes()
	for _, st := range pl.Steps {
		for q := range st.Locals {
			for _, m := range st.Locals[q] {
				t += m.Bytes
			}
		}
	}
	return t
}

// Fingerprint renders the executable schedule deterministically; two plans
// with equal fingerprints execute byte-identical schedules. Memoized — a
// compiled plan is immutable.
func (pl *Plan) Fingerprint() string {
	pl.fpOnce.Do(func() { pl.fp = pl.fingerprint() })
	return pl.fp
}

func (pl *Plan) fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind=%s p=%d from=%s[%d] to=%s[%d] eta=%v ngrids=%d depth=%d tags=%s[%d,+%d) max=%d peak=%d\n",
		pl.Kind, pl.P, pl.From, pl.FromP, pl.To, pl.ToP, pl.Eta, pl.NGrids, pl.Depth,
		pl.Tags.Name(), pl.Tags.Base(), pl.Tags.Size(), pl.MaxBytes, pl.PeakBytes)
	for si := range pl.Steps {
		st := &pl.Steps[si]
		fmt.Fprintf(&sb, "step%d op=%s dim=%d dir=%d round=%d\n", si, st.Op, st.Dim, st.Dir, st.Round)
		for q := 0; q < pl.P; q++ {
			if st.Exch != nil {
				e := st.Exch[q]
				fmt.Fprintf(&sb, " q%d dst=%d src=%d tag=%d send=%dB recv=%dB\n", q, e.Dst, e.Src, e.Tag, e.SendBytes, e.RecvBytes)
			}
			writeMoves(&sb, "s", st.Sends[q])
			writeMoves(&sb, "r", st.Recvs[q])
			writeMoves(&sb, "l", st.Locals[q])
		}
	}
	return sb.String()
}

func writeMoves(sb *strings.Builder, label string, moves []Move) {
	for _, m := range moves {
		fmt.Fprintf(sb, "  %s %d->%d lo=%v hi=%v %dB fc=%v tc=%v\n",
			label, m.From, m.To, m.Rect.Lo, m.Rect.Hi, m.Bytes, m.FromCoord, m.ToCoord)
	}
}

// Summary renders a one-paragraph human description — the CLI preamble.
func (pl *Plan) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "redistribution plan: %s → %s, eta=%v, %d grid(s), kind=%s\n",
		pl.From, pl.To, pl.Eta, pl.NGrids, pl.Kind)
	fmt.Fprintf(&sb, "  %d step(s), %d wire bytes in %d aggregated message(s), peak %d bytes/rank",
		len(pl.Steps), pl.WireBytes(), pl.WireMessages(), pl.PeakBytes)
	if pl.MaxBytes > 0 {
		fmt.Fprintf(&sb, " (budget %d)", pl.MaxBytes)
	}
	sb.WriteString("\n")
	return sb.String()
}
