package obs

import (
	"fmt"

	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/xport"
)

// PlanSchema is the current plan_*.json schema version.
const PlanSchema = 1

// PlanFileKind is the envelope discriminator of a serialized SweepPlan.
const PlanFileKind = "plan"

// PlanFile is the on-disk envelope of a compiled SweepPlan: the full
// materialized schedule — per rank × dimension × direction, every phase
// with its neighbors, tags, tile geometry and byte counts. Compilation is
// deterministic and the encoder walks fixed struct order, so regenerating
// the same configuration yields a byte-identical file (the CI perf gate
// diffs a committed fixture against a fresh dump).
type PlanFile struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Source records the command line that produced the dump.
	Source string   `json:"source,omitempty"`
	Plan   PlanJSON `json:"plan"`
}

// PlanJSON mirrors plan.SweepPlan field by field in a stable wire shape.
type PlanJSON struct {
	Kind          string `json:"plan_kind"`
	P             int    `json:"p"`
	Eta           []int  `json:"eta"`
	Gamma         []int  `json:"gamma,omitempty"`
	Dim           int    `json:"dim"`
	Grain         int    `json:"grain,omitempty"`
	Solver        string `json:"solver"`
	ForwardCarry  int    `json:"forward_carry"`
	BackwardCarry int    `json:"backward_carry"`
	Halos         []int  `json:"halos,omitempty"`
	TagSpace      string `json:"tag_space"`
	TagBase       int    `json:"tag_base"`
	TagSize       int    `json:"tag_size"`
	// OverlapEnabled / OverlapFrac mirror plan.Overlap. Both omit when the
	// plan was compiled without overlap, so pre-overlap dumps (and the
	// committed fixtures) keep their historical bytes.
	OverlapEnabled bool           `json:"overlap_enabled,omitempty"`
	OverlapFrac    float64        `json:"overlap_frac,omitempty"`
	Ranks          []PlanRankJSON `json:"ranks"`
}

// PlanRankJSON is one rank's pass table.
type PlanRankJSON struct {
	Rank   int            `json:"rank"`
	Passes []PlanPassJSON `json:"passes"`
}

// PlanPassJSON is one (dimension, direction) pass.
type PlanPassJSON struct {
	Dim      int             `json:"dim"`
	Backward bool            `json:"backward"`
	CarryLen int             `json:"carry_len"`
	Phases   []PlanPhaseJSON `json:"phases"`
}

// PlanPhaseJSON is one phase of a pass.
type PlanPhaseJSON struct {
	Slab      int `json:"slab"`
	RecvFrom  int `json:"recv_from"`
	SendTo    int `json:"send_to"`
	RecvTag   int `json:"recv_tag"`
	SendTag   int `json:"send_tag"`
	RecvBytes int `json:"recv_bytes"`
	SendBytes int `json:"send_bytes"`
	Lines     int `json:"lines"`
	// Boundary and the interior tags carry the overlap split annotation;
	// they omit on unsplit phases, keeping pre-overlap dumps byte-stable.
	Boundary        int            `json:"boundary,omitempty"`
	InteriorRecvTag int            `json:"interior_recv_tag,omitempty"`
	InteriorSendTag int            `json:"interior_send_tag,omitempty"`
	Tiles           []PlanTileJSON `json:"tiles"`
}

// PlanTileJSON is one tile's geometry within a phase.
type PlanTileJSON struct {
	Coord    []int `json:"coord,omitempty"`
	Lo       []int `json:"lo"`
	Hi       []int `json:"hi"`
	LineOff  int   `json:"line_off"`
	Lines    int   `json:"lines"`
	ChunkLen int   `json:"chunk_len"`
}

// NewPlanJSON converts a compiled SweepPlan into its wire shape.
func NewPlanJSON(pl *plan.SweepPlan) PlanJSON {
	out := PlanJSON{
		Kind: string(pl.Kind), P: pl.P, Eta: pl.Eta, Gamma: pl.Gamma,
		Dim: pl.Dim, Grain: pl.Grain,
		Solver: pl.Solver, ForwardCarry: pl.ForwardCarry, BackwardCarry: pl.BackwardCarry,
		Halos: pl.Halos, TagSpace: pl.Tags.Name(), TagBase: pl.Tags.Base(), TagSize: pl.Tags.Size(),
		OverlapEnabled: pl.Overlap.Enabled, OverlapFrac: pl.Overlap.Frac,
		Ranks: make([]PlanRankJSON, pl.P),
	}
	for q := 0; q < pl.P; q++ {
		rj := PlanRankJSON{Rank: q, Passes: make([]PlanPassJSON, len(pl.Passes[q]))}
		for k, pp := range pl.Passes[q] {
			pj := PlanPassJSON{Dim: pp.Dim, Backward: pp.Backward, CarryLen: pp.CarryLen,
				Phases: make([]PlanPhaseJSON, len(pp.Phases))}
			for i, ph := range pp.Phases {
				phj := PlanPhaseJSON{
					Slab: ph.Slab, RecvFrom: ph.RecvFrom, SendTo: ph.SendTo,
					RecvTag: ph.RecvTag, SendTag: ph.SendTag,
					RecvBytes: ph.RecvBytes, SendBytes: ph.SendBytes,
					Lines: ph.Lines, Boundary: ph.Boundary,
					InteriorRecvTag: ph.InteriorRecvTag, InteriorSendTag: ph.InteriorSendTag,
					Tiles: make([]PlanTileJSON, len(ph.Tiles)),
				}
				for t, tg := range ph.Tiles {
					phj.Tiles[t] = PlanTileJSON{Coord: tg.Coord, Lo: tg.Rect.Lo, Hi: tg.Rect.Hi,
						LineOff: tg.LineOff, Lines: tg.Lines, ChunkLen: tg.ChunkLen}
				}
				pj.Phases[i] = phj
			}
			rj.Passes[k] = pj
		}
		out.Ranks[q] = rj
	}
	return out
}

// WritePlanJSON serializes a compiled plan to path as indented JSON.
func WritePlanJSON(path, source string, pl *plan.SweepPlan) error {
	if pl == nil {
		return fmt.Errorf("obs: write plan: nil plan")
	}
	pf := PlanFile{Schema: PlanSchema, Kind: PlanFileKind, Source: source, Plan: NewPlanJSON(pl)}
	return writeIndented(path, planType, pf)
}

// ReadPlanJSON validates the envelope of a plan dump on the way back in.
func ReadPlanJSON(path string) (PlanFile, error) { return readFile[PlanFile](path, planType) }

// PlanFromJSON reconstructs a compiled SweepPlan from its wire shape — the
// worker side of plan shipping: one node compiles and dumps, every other
// node loads the schedule instead of recompiling. The tag space is resolved
// back to the live registry by name (reservations are package-init
// constants, so a matching build has it), and the result is Validated so a
// corrupted or cross-version dump fails loudly rather than deadlocking an
// executor. Round-tripping is lossless: the reconstruction's Fingerprint
// equals the original's.
func PlanFromJSON(pj PlanJSON) (*plan.SweepPlan, error) {
	ts, ok := xport.LookupTags(pj.TagSpace)
	if !ok {
		return nil, fmt.Errorf("obs: plan tag space %q is not reserved in this build", pj.TagSpace)
	}
	if ts.Base() != pj.TagBase || ts.Size() != pj.TagSize {
		return nil, fmt.Errorf("obs: plan tag space %q is [%d,+%d) in this build but the dump recorded [%d,+%d)",
			pj.TagSpace, ts.Base(), ts.Size(), pj.TagBase, pj.TagSize)
	}
	if len(pj.Ranks) != pj.P {
		return nil, fmt.Errorf("obs: plan records %d rank tables for p = %d", len(pj.Ranks), pj.P)
	}
	pl := &plan.SweepPlan{
		Kind: plan.Kind(pj.Kind), P: pj.P, Eta: pj.Eta, Gamma: pj.Gamma,
		Dim: pj.Dim, Grain: pj.Grain,
		Solver: pj.Solver, ForwardCarry: pj.ForwardCarry, BackwardCarry: pj.BackwardCarry,
		Halos: pj.Halos, Tags: ts,
		Overlap: plan.Overlap{Enabled: pj.OverlapEnabled, Frac: pj.OverlapFrac},
		Passes:  make([][]plan.Pass, pj.P),
	}
	for q, rj := range pj.Ranks {
		if rj.Rank != q {
			return nil, fmt.Errorf("obs: plan rank table %d records rank %d", q, rj.Rank)
		}
		pl.Passes[q] = make([]plan.Pass, len(rj.Passes))
		for k, pjp := range rj.Passes {
			pass := plan.Pass{Dim: pjp.Dim, Backward: pjp.Backward, CarryLen: pjp.CarryLen,
				Phases: make([]plan.Phase, len(pjp.Phases))}
			for i, phj := range pjp.Phases {
				ph := plan.Phase{
					Slab: phj.Slab, RecvFrom: phj.RecvFrom, SendTo: phj.SendTo,
					RecvTag: phj.RecvTag, SendTag: phj.SendTag,
					RecvBytes: phj.RecvBytes, SendBytes: phj.SendBytes,
					Lines: phj.Lines, Boundary: phj.Boundary,
					InteriorRecvTag: phj.InteriorRecvTag, InteriorSendTag: phj.InteriorSendTag,
					Tiles: make([]plan.Tile, len(phj.Tiles)),
				}
				for t, tj := range phj.Tiles {
					ph.Tiles[t] = plan.Tile{Coord: tj.Coord, Rect: grid.RectOf(tj.Lo, tj.Hi),
						LineOff: tj.LineOff, Lines: tj.Lines, ChunkLen: tj.ChunkLen}
				}
				pass.Phases[i] = ph
			}
			pl.Passes[q][k] = pass
		}
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("obs: reconstructed plan: %w", err)
	}
	return pl, nil
}

// LoadPlan reads a plan dump and reconstructs the compiled schedule —
// ReadPlanJSON then PlanFromJSON.
func LoadPlan(path string) (*plan.SweepPlan, error) {
	pf, err := ReadPlanJSON(path)
	if err != nil {
		return nil, err
	}
	return PlanFromJSON(pf.Plan)
}

// PlanAuditRow is one phase of the plan-vs-profile traffic audit: the
// bytes a compiled plan schedules for a profiled phase against the bytes
// the simulator measured in it. A non-zero delta means executor and plan
// disagree about the very schedule the executor claims to run.
type PlanAuditRow struct {
	Phase    string
	Expected int // bytes the plan schedules (all ranks), × repeats
	Observed int // bytes the profile measured in the phase, all ranks
}

// Delta returns Observed − Expected.
func (r PlanAuditRow) Delta() int { return r.Observed - r.Expected }

// AuditPlanBytes compares a compiled plan's scheduled carry traffic with a
// measured profile, phase by phase: phaseOf maps each sweep dimension to
// its profile label, and repeats is how many full sweeps of that dimension
// the profiled run executed (time steps). Only dimensions whose label has
// a profiled phase are audited.
func AuditPlanBytes(pl *plan.SweepPlan, prof *Profile, repeats int, phaseOf func(dim int) string) []PlanAuditRow {
	var rows []PlanAuditRow
	for dim := range pl.Eta {
		label := phaseOf(dim)
		pp := prof.Phase(label)
		if pp.Label == "" {
			continue
		}
		rows = append(rows, PlanAuditRow{
			Phase:    label,
			Expected: repeats * pl.DimSendBytes(dim),
			Observed: pp.Bytes,
		})
	}
	return rows
}

// FormatPlanAudit renders the audit as an aligned table.
func FormatPlanAudit(rows []PlanAuditRow) string {
	out := fmt.Sprintf("%-10s  %14s  %14s  %10s\n", "phase", "plan bytes", "observed", "delta")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s  %14d  %14d  %10d\n", r.Phase, r.Expected, r.Observed, r.Delta())
	}
	return out
}
