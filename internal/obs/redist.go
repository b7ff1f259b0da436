package obs

import (
	"fmt"

	"genmp/internal/obs/metrics"
	"genmp/internal/redist"
)

// RedistSchema is the current redistribution-plan dump schema version.
const RedistSchema = 1

// RedistFileKind is the envelope discriminator of a serialized redist.Plan.
const RedistFileKind = "redist"

// RedistFile is the on-disk envelope of a compiled redistribution plan: the
// full materialized schedule — per step, every rank's sends, receives,
// local copies and exchange descriptors with exact byte counts. Compilation
// is deterministic and the encoder walks fixed struct order, so
// regenerating the same configuration yields a byte-identical file (the CI
// perf gate diffs a committed fixture against a fresh dump).
type RedistFile struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	// Source records the command line that produced the dump.
	Source string     `json:"source,omitempty"`
	Plan   RedistJSON `json:"plan"`
}

// RedistJSON mirrors redist.Plan field by field in a stable wire shape,
// plus the derived totals consumers audit against.
type RedistJSON struct {
	Kind      string           `json:"plan_kind"`
	P         int              `json:"p"`
	FromP     int              `json:"from_p"`
	ToP       int              `json:"to_p"`
	From      string           `json:"from"`
	To        string           `json:"to"`
	Eta       []int            `json:"eta"`
	NGrids    int              `json:"ngrids"`
	Depth     int              `json:"depth,omitempty"`
	TagSpace  string           `json:"tag_space"`
	TagBase   int              `json:"tag_base"`
	TagSize   int              `json:"tag_size"`
	MaxBytes  int              `json:"max_bytes,omitempty"`
	PeakBytes int              `json:"peak_bytes"`
	WireBytes int              `json:"wire_bytes"`
	WireMsgs  int              `json:"wire_messages"`
	Total     int              `json:"total_bytes"`
	Steps     []RedistStepJSON `json:"steps"`
}

// RedistStepJSON is one synchronized round of the schedule.
type RedistStepJSON struct {
	Op    string           `json:"op"`
	Dim   int              `json:"dim"`
	Dir   int              `json:"dir"`
	Round int              `json:"round"`
	Ranks []RedistRankJSON `json:"ranks"`
}

// RedistRankJSON is one rank's slice of a step.
type RedistRankJSON struct {
	Rank   int              `json:"rank"`
	Exch   *RedistExchJSON  `json:"exch,omitempty"`
	Sends  []RedistMoveJSON `json:"sends,omitempty"`
	Recvs  []RedistMoveJSON `json:"recvs,omitempty"`
	Locals []RedistMoveJSON `json:"locals,omitempty"`
}

// RedistExchJSON is a rank's neighbor-exchange descriptor.
type RedistExchJSON struct {
	Dst       int `json:"dst"`
	Src       int `json:"src"`
	Tag       int `json:"tag"`
	SendBytes int `json:"send_bytes"`
	RecvBytes int `json:"recv_bytes"`
}

// RedistMoveJSON is one contiguous slab transfer.
type RedistMoveJSON struct {
	From      int   `json:"from"`
	To        int   `json:"to"`
	Lo        []int `json:"lo"`
	Hi        []int `json:"hi"`
	Bytes     int   `json:"bytes"`
	FromCoord []int `json:"from_coord,omitempty"`
	ToCoord   []int `json:"to_coord,omitempty"`
}

// NewRedistJSON converts a compiled redistribution plan into its wire shape.
func NewRedistJSON(pl *redist.Plan) RedistJSON {
	out := RedistJSON{
		Kind: string(pl.Kind), P: pl.P, FromP: pl.FromP, ToP: pl.ToP,
		From: pl.From, To: pl.To, Eta: pl.Eta, NGrids: pl.NGrids, Depth: pl.Depth,
		TagSpace: pl.Tags.Name(), TagBase: pl.Tags.Base(), TagSize: pl.Tags.Size(),
		MaxBytes: pl.MaxBytes, PeakBytes: pl.PeakBytes,
		WireBytes: pl.WireBytes(), WireMsgs: pl.WireMessages(), Total: pl.TotalBytes(),
		Steps: make([]RedistStepJSON, len(pl.Steps)),
	}
	for si := range pl.Steps {
		st := &pl.Steps[si]
		sj := RedistStepJSON{Op: string(st.Op), Dim: st.Dim, Dir: st.Dir, Round: st.Round,
			Ranks: make([]RedistRankJSON, pl.P)}
		for q := 0; q < pl.P; q++ {
			rj := RedistRankJSON{Rank: q,
				Sends:  movesJSON(st.Sends[q]),
				Recvs:  movesJSON(st.Recvs[q]),
				Locals: movesJSON(st.Locals[q]),
			}
			if st.Exch != nil {
				e := st.Exch[q]
				rj.Exch = &RedistExchJSON{Dst: e.Dst, Src: e.Src, Tag: e.Tag,
					SendBytes: e.SendBytes, RecvBytes: e.RecvBytes}
			}
			sj.Ranks[q] = rj
		}
		out.Steps[si] = sj
	}
	return out
}

func movesJSON(moves []redist.Move) []RedistMoveJSON {
	if len(moves) == 0 {
		return nil
	}
	out := make([]RedistMoveJSON, len(moves))
	for i, m := range moves {
		out[i] = RedistMoveJSON{From: m.From, To: m.To, Lo: m.Rect.Lo, Hi: m.Rect.Hi,
			Bytes: m.Bytes, FromCoord: m.FromCoord, ToCoord: m.ToCoord}
	}
	return out
}

// WriteRedistJSON serializes a compiled redistribution plan to path as
// indented JSON.
func WriteRedistJSON(path, source string, pl *redist.Plan) error {
	if pl == nil {
		return fmt.Errorf("obs: write redist: nil plan")
	}
	rf := RedistFile{Schema: RedistSchema, Kind: RedistFileKind, Source: source, Plan: NewRedistJSON(pl)}
	return writeIndented(path, redistType, rf)
}

// ReadRedistJSON validates the envelope of a redistribution dump on the way
// back in.
func ReadRedistJSON(path string) (RedistFile, error) { return readFile[RedistFile](path, redistType) }

// RedistAuditRow is one line of the plan-vs-counters traffic audit: what a
// compiled plan schedules against what the live metrics registry counted
// while executing it. A non-zero delta means the executor and the plan
// disagree about the very schedule the executor claims to run.
type RedistAuditRow struct {
	Metric   string
	Expected int // plan-scheduled quantity × full machine executions
	Observed int // registry counter value
}

// Delta returns Observed − Expected.
func (r RedistAuditRow) Delta() int { return r.Observed - r.Expected }

// AuditRedistBytes compares a plan's scheduled traffic with a metrics
// snapshot after execs full machine executions (every rank calling
// redist.Execute once per execution): wire bytes, local copy bytes and
// aggregated message counts, summed over ranks. The registry must have held
// only this plan's executions (use a fresh Registry per audit).
func AuditRedistBytes(pl *redist.Plan, snap metrics.Snapshot, execs int) []RedistAuditRow {
	wire, _ := snap.Value("redist_bytes_total", metrics.L("path", "wire"))
	local, _ := snap.Value("redist_bytes_total", metrics.L("path", "local"))
	msgs, _ := snap.Value("redist_messages_total")
	return []RedistAuditRow{
		{Metric: "wire bytes", Expected: execs * pl.WireBytes(), Observed: int(wire)},
		{Metric: "local bytes", Expected: execs * (pl.TotalBytes() - pl.WireBytes()), Observed: int(local)},
		{Metric: "messages", Expected: execs * pl.WireMessages(), Observed: int(msgs)},
	}
}

// FormatRedistAudit renders the audit as an aligned table.
func FormatRedistAudit(rows []RedistAuditRow) string {
	out := fmt.Sprintf("%-12s  %14s  %14s  %10s\n", "metric", "plan", "observed", "delta")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s  %14d  %14d  %10d\n", r.Metric, r.Expected, r.Observed, r.Delta())
	}
	return out
}
