package plan

import (
	"fmt"
	"sort"
	"strings"

	"genmp/internal/core"
	"genmp/internal/numutil"
)

// Validate checks the structural invariants the executors and the cost fold
// rely on, failing with the first violated one:
//
//   - shape: positive extents whose element count fits in an int, P ranks,
//     each with a pass per (dimension, direction), carry lengths
//     consistent across ranks, phase line counts matching their tile
//     geometry and byte counts matching Lines × CarryLen × 8;
//   - neighbor property: within one pass every phase that communicates
//     names the same single upstream and the same single downstream rank
//     (the property that makes one aggregated message per phase legal);
//   - tag overlap: every tag falls inside the plan's reservation, and no
//     rank reuses a tag on the same channel (same peer, same direction of
//     transfer) — a collision would let the simulator match the wrong
//     carries;
//   - byte-count symmetry: every send phase has a matching recv phase on
//     the destination rank (the next phase index for multipartitioned
//     plans, the same block index for wavefronts) agreeing on source, tag,
//     byte count, and per-tile line counts.
func (pl *SweepPlan) Validate() (err error) {
	if pm := planMetricsPtr.Load(); pm != nil {
		pm.validations.Inc()
		defer func() {
			if err != nil {
				pm.validationFail.Inc()
			}
		}()
	}
	if err := pl.validateShape(); err != nil {
		return err
	}
	if err := pl.validateNeighbors(); err != nil {
		return err
	}
	if err := pl.validateTags(); err != nil {
		return err
	}
	if err := pl.validateOverlap(); err != nil {
		return err
	}
	return pl.validateSymmetry()
}

// passName renders a pass position for error messages.
func passName(q int, pass *Pass) string {
	dir := "forward"
	if pass.Backward {
		dir = "backward"
	}
	return fmt.Sprintf("rank %d dim %d %s", q, pass.Dim, dir)
}

// phaseAt locates phase i of rank q's pass in error messages. Validate walks
// every phase of the plan, so the location is kept as a value and rendered
// only when an error is actually built.
type phaseAt struct {
	q    int
	pass *Pass
	i    int
}

func (a phaseAt) String() string { return fmt.Sprintf("%s phase %d", passName(a.q, a.pass), a.i) }

func (pl *SweepPlan) validateShape() error {
	if pl.P < 1 {
		return fmt.Errorf("plan: invalid processor count %d", pl.P)
	}
	if len(pl.Passes) != pl.P {
		return fmt.Errorf("plan: %d rank schedules for %d processors", len(pl.Passes), pl.P)
	}
	if _, ok := numutil.CheckedProd(pl.Eta...); !ok {
		return fmt.Errorf("plan: η = %v: extents must be ≥ 1 and their element count must fit in an int", pl.Eta)
	}
	d := len(pl.Eta)
	for q, passes := range pl.Passes {
		if len(passes) != 2*d {
			return fmt.Errorf("plan: rank %d has %d passes, want %d (one per dimension and direction)", q, len(passes), 2*d)
		}
	}
	var cuts [][]int
	switch pl.Kind {
	case KindMultipartition:
		var err error
		if cuts, err = pl.tileCuts(); err != nil {
			return err
		}
	case KindWavefront:
	default:
		return fmt.Errorf("plan: unknown kind %q", pl.Kind)
	}
	for q, passes := range pl.Passes {
		for k := range passes {
			pass := &passes[k]
			wantDim, wantBwd := k/2, k%2 == 1
			if pass.Dim != wantDim || pass.Backward != wantBwd {
				return fmt.Errorf("plan: rank %d pass %d labeled (dim %d, backward %v), want (dim %d, backward %v)",
					q, k, pass.Dim, pass.Backward, wantDim, wantBwd)
			}
			wantCarry := pl.ForwardCarry
			if pass.Backward {
				wantCarry = pl.BackwardCarry
			}
			if pass.CarryLen != wantCarry {
				return fmt.Errorf("plan: %s: carry length %d disagrees with solver %s's %d",
					passName(q, pass), pass.CarryLen, pl.Solver, wantCarry)
			}
			// Multipartitioned phases restart the canonical line order per
			// phase (each phase has its own carry payload); wavefront blocks
			// index into the rank's full line order, so their offsets
			// accumulate across the pass.
			passOff := 0
			for i := range pass.Phases {
				ph := &pass.Phases[i]
				at := phaseAt{q, pass, i}
				off := 0
				if pl.Kind == KindWavefront {
					off = passOff
				}
				lines := 0
				for ti := range ph.Tiles {
					t := &ph.Tiles[ti]
					if t.LineOff != off {
						return fmt.Errorf("plan: %s tile %d: line offset %d, want %d (canonical order)", at, ti, t.LineOff, off)
					}
					if err := pl.validateTile(at, ti, t, cuts); err != nil {
						return err
					}
					lines += t.Lines
					off += t.Lines
				}
				passOff += lines
				if ph.Lines != lines {
					return fmt.Errorf("plan: %s: Lines = %d but tiles hold %d", at, ph.Lines, lines)
				}
				if ph.SendTo >= 0 && ph.SendBytes != ph.Lines*pass.CarryLen*8 {
					return fmt.Errorf("plan: %s: SendBytes = %d, want %d lines × %d carries × 8",
						at, ph.SendBytes, ph.Lines, pass.CarryLen)
				}
				if ph.RecvFrom >= 0 && ph.RecvBytes != ph.Lines*pass.CarryLen*8 {
					return fmt.Errorf("plan: %s: RecvBytes = %d, want %d lines × %d carries × 8",
						at, ph.RecvBytes, ph.Lines, pass.CarryLen)
				}
				if ph.SendTo == q || ph.RecvFrom == q {
					return fmt.Errorf("plan: %s: rank sends/receives to itself", at)
				}
				if ph.SendTo >= pl.P || ph.RecvFrom >= pl.P {
					return fmt.Errorf("plan: %s: peer out of range (recv %d, send %d, p %d)",
						at, ph.RecvFrom, ph.SendTo, pl.P)
				}
			}
		}
	}
	return nil
}

// tileCuts checks a multipartitioned plan's tile grid γ against η and the
// plan's own tiles, and returns per dimension j the γⱼ+1 cut positions
// core.BlockRange(ηⱼ, γⱼ, ·) places, which every tile's Rect must match. A
// valid plan's ranks visit every tile once per sweep, so γ must name
// exactly the tiles of the forward passes along dimension 0; checking that
// first bounds the table by the plan's size, whatever γ claims.
func (pl *SweepPlan) tileCuts() ([][]int, error) {
	d := len(pl.Eta)
	if len(pl.Gamma) != d {
		return nil, fmt.Errorf("plan: tile grid γ = %v has %d dimensions, η = %v has %d", pl.Gamma, len(pl.Gamma), pl.Eta, d)
	}
	tiles := 0
	if d > 0 {
		for _, passes := range pl.Passes {
			for _, ph := range passes[0].Phases {
				tiles += len(ph.Tiles)
			}
		}
	}
	named, n := 1, 0
	for j, g := range pl.Gamma {
		if g < 1 || g > pl.Eta[j] {
			return nil, fmt.Errorf("plan: γ[%d] = %d breaks 1 ≤ γ ≤ η = %d", j, g, pl.Eta[j])
		}
		if named > tiles/g {
			return nil, fmt.Errorf("plan: tile grid γ = %v names more tiles than the plan's %d", pl.Gamma, tiles)
		}
		named *= g
		n += g + 1
	}
	if named != tiles {
		return nil, fmt.Errorf("plan: tile grid γ = %v names %d tiles, the dimension-0 forward passes hold %d", pl.Gamma, named, tiles)
	}
	flat := make([]int, n)
	cuts := make([][]int, d)
	for j, g := range pl.Gamma {
		c := flat[: g+1 : g+1]
		flat = flat[g+1:]
		for i := 0; i < g; i++ {
			c[i], _ = core.BlockRange(pl.Eta[j], g, i)
		}
		c[g] = pl.Eta[j]
		cuts[j] = c
	}
	return cuts, nil
}

// validateTile checks one tile's geometry: its rectangle lies inside η and
// is non-empty, its chunk is the rectangle's extent along the sweep, and its
// lines fit the rectangle's cross-section — exactly for a multipartitioned
// tile, whose coordinate must also lie in γ and name its rectangle (cuts
// from tileCuts), as a block of the rank's line order for a wavefront slab.
func (pl *SweepPlan) validateTile(at phaseAt, ti int, t *Tile, cuts [][]int) error {
	lo, hi, dim := t.Rect.Lo, t.Rect.Hi, at.pass.Dim
	if len(lo) != len(pl.Eta) || len(hi) != len(pl.Eta) {
		return fmt.Errorf("plan: %s tile %d: rect has %d lower and %d upper bounds for %d dimensions",
			at, ti, len(lo), len(hi), len(pl.Eta))
	}
	coord := t.Coord
	if cuts != nil && len(coord) != len(cuts) {
		return fmt.Errorf("plan: %s tile %d: coordinate %v has %d dimensions, want %d", at, ti, coord, len(coord), len(cuts))
	}
	cross := 1
	for j, e := range pl.Eta {
		if lo[j] < 0 || lo[j] >= hi[j] || hi[j] > e {
			return fmt.Errorf("plan: %s tile %d: rect lo %v hi %v breaks 0 ≤ lo < hi ≤ η = %v along dim %d",
				at, ti, lo, hi, pl.Eta, j)
		}
		if cuts != nil {
			if c := coord[j]; c < 0 || c >= len(cuts[j])-1 || lo[j] != cuts[j][c] || hi[j] != cuts[j][c+1] {
				return fmt.Errorf("plan: %s tile %d: coordinate %v does not name rect lo %v hi %v in γ = %v",
					at, ti, coord, lo, hi, pl.Gamma)
			}
		}
		if j != dim {
			cross *= hi[j] - lo[j]
		}
	}
	if t.ChunkLen != hi[dim]-lo[dim] {
		return fmt.Errorf("plan: %s tile %d: chunk length %d, want the rect's extent %d along dim %d",
			at, ti, t.ChunkLen, hi[dim]-lo[dim], dim)
	}
	if t.Lines < 1 {
		return fmt.Errorf("plan: %s tile %d: %d lines, want at least 1", at, ti, t.Lines)
	}
	switch pl.Kind {
	case KindMultipartition:
		if t.Lines != cross {
			return fmt.Errorf("plan: %s tile %d: %d lines but the rect's cross-section holds %d",
				at, ti, t.Lines, cross)
		}
	case KindWavefront:
		if t.LineOff+t.Lines > cross {
			return fmt.Errorf("plan: %s tile %d: lines [%d, %d) run past the rect's cross-section of %d",
				at, ti, t.LineOff, t.LineOff+t.Lines, cross)
		}
	}
	return nil
}

// validateNeighbors enforces the neighbor property phase-aggregation
// depends on: within one pass, a single downstream rank receives every
// carry the rank ships and a single upstream rank feeds every carry it
// consumes.
func (pl *SweepPlan) validateNeighbors() error {
	for q, passes := range pl.Passes {
		for k := range passes {
			pass := &passes[k]
			sendTo, recvFrom := -1, -1
			for i := range pass.Phases {
				ph := &pass.Phases[i]
				if ph.SendTo >= 0 {
					if sendTo >= 0 && ph.SendTo != sendTo {
						return fmt.Errorf("plan: %s: phases send to both rank %d and rank %d — neighbor property violated",
							passName(q, pass), sendTo, ph.SendTo)
					}
					sendTo = ph.SendTo
				}
				if ph.RecvFrom >= 0 {
					if recvFrom >= 0 && ph.RecvFrom != recvFrom {
						return fmt.Errorf("plan: %s: phases receive from both rank %d and rank %d — neighbor property violated",
							passName(q, pass), recvFrom, ph.RecvFrom)
					}
					recvFrom = ph.RecvFrom
				}
			}
		}
	}
	return nil
}

// validateTags checks containment in the plan's reservation and per-channel
// uniqueness: one rank must never post two sends to the same peer, or two
// receives from the same peer, under one tag within a plan execution.
func (pl *SweepPlan) validateTags() error {
	// A channel is one peer and direction of the rank being checked; its
	// table maps a tag to its first user, pass k and phase i. A rank has a
	// few channels (each pass sends to one peer and receives from one), so
	// they are found by a scan, and their tables are cleared and reused
	// from rank to rank.
	type use struct{ k, i int }
	type channel struct {
		peer  int
		recv  bool
		first map[int]use
	}
	var chans []channel
	open := 0 // chans[:open] are the current rank's channels
	table := func(peer int, recv bool, hint int) map[int]use {
		for c := range chans[:open] {
			if chans[c].peer == peer && chans[c].recv == recv {
				return chans[c].first
			}
		}
		if open == len(chans) {
			chans = append(chans, channel{first: make(map[int]use, hint)})
		}
		c := &chans[open]
		open++
		c.peer, c.recv = peer, recv
		clear(c.first)
		return c.first
	}
	claim := func(first map[int]use, peer, tag int, recv bool, kind string, at phaseAt, k int) error {
		if prev, dup := first[tag]; dup {
			dir := "to"
			if recv {
				dir = "from"
			}
			return fmt.Errorf("plan: %s: %s tag %d %s rank %d already used by %s — tag overlap",
				at, kind, tag, dir, peer, phaseAt{at.q, &pl.Passes[at.q][prev.k], prev.i})
		}
		first[tag] = use{k, at.i}
		return nil
	}
	for q, passes := range pl.Passes {
		open = 0
		for k := range passes {
			pass := &passes[k]
			// The tables of this pass's last send and receive peers.
			var sends, recvs map[int]use
			sendTo, recvFrom := -1, -1
			for i := range pass.Phases {
				ph := &pass.Phases[i]
				at := phaseAt{q, pass, i}
				if ph.SendTo >= 0 {
					if !pl.Tags.Contains(ph.SendTag) {
						return fmt.Errorf("plan: %s: send tag %d outside reservation %q [%d,+%d)",
							at, ph.SendTag, pl.Tags.Name(), pl.Tags.Base(), pl.Tags.Size())
					}
					if ph.SendTo != sendTo {
						sendTo, sends = ph.SendTo, table(ph.SendTo, false, len(pass.Phases))
					}
					if err := claim(sends, sendTo, ph.SendTag, false, "send", at, k); err != nil {
						return err
					}
					if ph.Boundary > 0 {
						if err := claim(sends, sendTo, ph.InteriorSendTag, false, "interior send", at, k); err != nil {
							return err
						}
					}
				}
				if ph.RecvFrom >= 0 {
					if !pl.Tags.Contains(ph.RecvTag) {
						return fmt.Errorf("plan: %s: recv tag %d outside reservation %q [%d,+%d)",
							at, ph.RecvTag, pl.Tags.Name(), pl.Tags.Base(), pl.Tags.Size())
					}
					if ph.RecvFrom != recvFrom {
						recvFrom, recvs = ph.RecvFrom, table(ph.RecvFrom, true, len(pass.Phases))
					}
					if err := claim(recvs, recvFrom, ph.RecvTag, true, "recv", at, k); err != nil {
						return err
					}
					if ph.Boundary > 0 {
						if err := claim(recvs, recvFrom, ph.InteriorRecvTag, true, "interior recv", at, k); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// matchOffset is the receiver phase index paired with sender phase k: the
// next phase of the receiver's own schedule for multipartitioned sweeps,
// the same pipeline block for wavefronts.
func (pl *SweepPlan) matchOffset() int {
	if pl.Kind == KindWavefront {
		return 0
	}
	return 1
}

// validateSymmetry pairs every send phase with the receive phase that
// consumes it and checks source, tag, byte count, and per-tile line counts
// (cross-sections are preserved by the one-slab shift, so mismatched tile
// line counts mean a corrupted schedule).
func (pl *SweepPlan) validateSymmetry() error {
	off := pl.matchOffset()
	for q, passes := range pl.Passes {
		for k := range passes {
			pass := &passes[k]
			for i := range pass.Phases {
				ph := &pass.Phases[i]
				if ph.SendTo < 0 {
					continue
				}
				at := phaseAt{q, pass, i}
				peer := &pl.Passes[ph.SendTo][k]
				j := i + off
				if j >= len(peer.Phases) {
					return fmt.Errorf("plan: %s: sends to rank %d, which has no matching phase %d", at, ph.SendTo, j)
				}
				rp := &peer.Phases[j]
				if rp.RecvFrom != q {
					return fmt.Errorf("plan: %s: sends to rank %d, whose phase %d receives from rank %d",
						at, ph.SendTo, j, rp.RecvFrom)
				}
				if rp.RecvTag != ph.SendTag {
					return fmt.Errorf("plan: %s: send tag %d but rank %d phase %d receives tag %d",
						at, ph.SendTag, ph.SendTo, j, rp.RecvTag)
				}
				if rp.RecvBytes != ph.SendBytes {
					return fmt.Errorf("plan: %s: sends %d bytes but rank %d phase %d expects %d — byte-count symmetry violated",
						at, ph.SendBytes, ph.SendTo, j, rp.RecvBytes)
				}
				if rp.Boundary != ph.Boundary {
					return fmt.Errorf("plan: %s: boundary split %d but rank %d phase %d expects %d — overlap symmetry violated",
						at, ph.Boundary, ph.SendTo, j, rp.Boundary)
				}
				if ph.Boundary > 0 && rp.InteriorRecvTag != ph.InteriorSendTag {
					return fmt.Errorf("plan: %s: interior send tag %d but rank %d phase %d receives interior tag %d",
						at, ph.InteriorSendTag, ph.SendTo, j, rp.InteriorRecvTag)
				}
				if pl.Kind == KindMultipartition {
					if len(rp.Tiles) != len(ph.Tiles) {
						return fmt.Errorf("plan: %s: %d tiles feed %d receiving tiles on rank %d phase %d",
							at, len(ph.Tiles), len(rp.Tiles), ph.SendTo, j)
					}
					for ti := range ph.Tiles {
						if ph.Tiles[ti].Lines != rp.Tiles[ti].Lines {
							return fmt.Errorf("plan: %s tile %d: %d lines feed %d lines on rank %d phase %d — cross-sections must match",
								at, ti, ph.Tiles[ti].Lines, rp.Tiles[ti].Lines, ph.SendTo, j)
						}
					}
				}
			}
		}
	}
	return nil
}

// Fingerprint renders the executable schedule deterministically: kind,
// dimensions, solver identity, carry lengths, tag space, and every rank's
// passes, phases and tiles. Two plans with equal fingerprints run
// byte-identical schedules. Compile-input metadata that does not affect the
// wire schedule (Halos) is deliberately excluded, so runners over padded
// and unpadded fields compile byte-identical fingerprints for one
// configuration.
//
// The rendering is memoized: the first call materializes the string, later
// calls return it — a compiled plan is immutable, so repeated equivalence
// checks and dump keys pay the walk once.
func (pl *SweepPlan) Fingerprint() string {
	computed := false
	pl.fpOnce.Do(func() {
		computed = true
		pl.fp = pl.fingerprint()
	})
	if pm := planMetricsPtr.Load(); pm != nil {
		if computed {
			pm.fpComputed.Inc()
		} else {
			pm.fpCached.Inc()
		}
	}
	return pl.fp
}

// fingerprint renders the schedule (see Fingerprint).
func (pl *SweepPlan) fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind=%s p=%d eta=%v gamma=%v dim=%d grain=%d solver=%s carry=%d/%d tags=%s[%d,+%d)\n",
		pl.Kind, pl.P, pl.Eta, pl.Gamma, pl.Dim, pl.Grain, pl.Solver,
		pl.ForwardCarry, pl.BackwardCarry, pl.Tags.Name(), pl.Tags.Base(), pl.Tags.Size())
	// Overlap renders only when enabled, so plans compiled without it keep
	// their historical fingerprints (and the committed goldens) byte for
	// byte.
	if pl.Overlap.Enabled {
		fmt.Fprintf(&sb, "overlap frac=%g\n", DefaultOverlapFrac)
	}
	for q, passes := range pl.Passes {
		for k := range passes {
			pass := &passes[k]
			fmt.Fprintf(&sb, "q%d dim%d bwd=%v carry=%d\n", q, pass.Dim, pass.Backward, pass.CarryLen)
			for i := range pass.Phases {
				ph := &pass.Phases[i]
				fmt.Fprintf(&sb, " ph%d slab=%d recv=%d/%d/%dB send=%d/%d/%dB lines=%d",
					i, ph.Slab, ph.RecvFrom, ph.RecvTag, ph.RecvBytes, ph.SendTo, ph.SendTag, ph.SendBytes, ph.Lines)
				if pl.Overlap.Enabled {
					fmt.Fprintf(&sb, " b=%d it=%d/%d", ph.Boundary, ph.InteriorRecvTag, ph.InteriorSendTag)
				}
				sb.WriteString("\n")
				for ti := range ph.Tiles {
					t := &ph.Tiles[ti]
					fmt.Fprintf(&sb, "  t%d coord=%v lo=%v hi=%v off=%d lines=%d chunk=%d\n",
						ti, t.Coord, t.Rect.Lo, t.Rect.Hi, t.LineOff, t.Lines, t.ChunkLen)
				}
			}
		}
	}
	return sb.String()
}

// Summary renders a one-paragraph human description: phase counts, carry
// traffic, and the per-dimension boundary counts — the CLI -plan preamble.
func (pl *SweepPlan) Summary() string {
	var sb strings.Builder
	switch pl.Kind {
	case KindWavefront:
		fmt.Fprintf(&sb, "wavefront plan: p=%d eta=%v dim=%d grain=%d solver=%s\n", pl.P, pl.Eta, pl.Dim, pl.Grain, pl.Solver)
	default:
		fmt.Fprintf(&sb, "multipartition plan: p=%d eta=%v gamma=%v solver=%s\n", pl.P, pl.Eta, pl.Gamma, pl.Solver)
	}
	dims := make([]int, 0, len(pl.Eta))
	for dim := range pl.Eta {
		dims = append(dims, dim)
	}
	sort.Ints(dims)
	for _, dim := range dims {
		phases := 0
		if pl.P > 0 {
			phases = len(pl.Pass(0, dim, false).Phases)
		}
		fmt.Fprintf(&sb, "  dim %d: %d phase(s)/rank, %d carry bytes/sweep\n", dim, phases, pl.DimSendBytes(dim))
	}
	return sb.String()
}
