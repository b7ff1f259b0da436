package dist

import (
	"genmp/internal/grid"
	"genmp/internal/plan"
	"genmp/internal/sweep"
	"genmp/internal/xport"
)

// Binding maps one rank's pass of a compiled sweep schedule onto storage.
// It is the only part of a sweep that differs between executors: shared
// global grids (MultiSweep), the windows of a slab's line list (the
// wavefront pipeline), or one rank's padded private tiles
// (dmem.SweepRunner). RunPass with a nil Binding runs the pass model-only:
// the same clock charges and messages, without data.
type Binding interface {
	// Tile returns the storage of phase k's tile ti: for each solver vec v,
	// the grid grids[v] holding it and lines[v], the tile's lines in
	// canonical order. The slices are valid until the next Tile call.
	Tile(k, ti int) (grids []*grid.Grid, lines [][]grid.Line)
}

// PassSpec is one rank's pass of a compiled sweep schedule and how to run
// it.
type PassSpec struct {
	Pass   *plan.Pass
	Solver sweep.Solver
	// Batch is the panel width of the batched sweep kernels: 0 picks
	// sweep.DefaultBatchLines, negative forces the scalar per-line path
	// (the bit-identical oracle).
	Batch int
	// Bind maps the pass's tiles to storage; nil runs model-only.
	Bind Binding
	// Overhead prices the pass: PerMessage per carry message, PerTileVisit
	// per tile visit and ComputeFactor on the flops.
	Overhead OverheadModel
	// PerTileMessages sends one carry message per tile instead of one
	// aggregated message per phase (the ablation of DESIGN.md §4.1). Split
	// phases need aggregation, so they then run unsplit.
	PerTileMessages bool
	// Scratch is the calling rank's reusable arena.
	Scratch *Scratch
}

// Scratch is one rank's reusable executor state, shared by every sweep the
// rank runs: the SoA panel arena of the pass loop, a second workspace and
// a line list for the whole-line solves of Block's local sweeps (a chunk
// solve runs while panel views are live, so the workspaces must be
// distinct), and the shared-grid binding, made on the first data-mode
// bind so that model-only executors stay small. The zero value is ready
// to use. A Scratch is not safe for concurrent use; executors keep one
// per rank.
type Scratch struct {
	pan   sweep.Workspace
	chunk sweep.Workspace
	lines []grid.Line
	grids *gridBinding
	pub   sweep.WorkspacePublisher
}

// WorkspaceStats reports the arenas' acquisition counters; with warmed
// arenas the hit rate is 1. Read it only after the owning rank finished.
func (sc *Scratch) WorkspaceStats() sweep.WorkspaceStats {
	a, b := sc.pan.Stats(), sc.chunk.Stats()
	return sweep.WorkspaceStats{Gets: a.Gets + b.Gets, Hits: a.Hits + b.Hits}
}

// publish streams this rank's arena acquisition counters into the run's
// live registry (a no-op when metrics are off).
func (sc *Scratch) publish(t xport.Transport) {
	sc.pub.Publish(t.MetricsRegistry(), &sc.pan, &sc.chunk)
}

// bindGrids binds pass pp to the shared global grids vecs, or returns nil
// (model-only) when vecs is nil. With slab set the pass's tiles are
// windows of one line list — the wavefront pipeline's blocks, whose
// LineOff counts from the start of the pass — enumerated here once.
func (sc *Scratch) bindGrids(vecs []*grid.Grid, pp *plan.Pass, slab bool) Binding {
	if vecs == nil {
		return nil
	}
	if sc.grids == nil {
		sc.grids = new(gridBinding)
	}
	b := sc.grids
	b.vecs, b.pass, b.slab = vecs, pp, slab
	if cap(b.views) < len(vecs) {
		b.views = make([][]grid.Line, len(vecs))
	}
	b.views = b.views[:len(vecs)]
	if slab {
		b.lines = vecs[0].AppendLines(pp.Phases[0].Tiles[0].Rect, pp.Dim, b.lines[:0])
	}
	return b
}

// gridBinding binds a pass to shared global grids: every vec reads the
// same line list, that of the tile's region of the global array.
type gridBinding struct {
	vecs  []*grid.Grid
	pass  *plan.Pass
	slab  bool
	lines []grid.Line
	views [][]grid.Line
}

// Tile implements Binding.
func (b *gridBinding) Tile(k, ti int) ([]*grid.Grid, [][]grid.Line) {
	tg := &b.pass.Phases[k].Tiles[ti]
	var lines []grid.Line
	if b.slab {
		lines = b.lines[tg.LineOff : tg.LineOff+tg.Lines]
	} else {
		b.lines = b.vecs[0].AppendLines(tg.Rect, b.pass.Dim, b.lines[:0])
		lines = b.lines
	}
	for v := range b.views {
		b.views[v] = lines
	}
	return b.vecs, b.views
}

// HasBackwardPass reports whether a sweep with solver s runs a backward
// pass after the forward one.
func HasBackwardPass(s sweep.Solver) bool {
	return s.BackwardCarryLen() > 0 || s.BackwardFlopsPerElement() > 0
}

// passRun is one RunPass invocation: the spec plus what it resolves once
// per pass.
type passRun struct {
	PassSpec
	t     xport.Transport
	flops float64 // per element, this direction
	// batch is the kernel panel width: 1 on the scalar path, where bs is
	// nil and the masks are nil (every vec moves).
	batch            int
	bs               sweep.BatchSolver
	touched, written []bool
}

// RunPass executes one rank's pass of a compiled sweep schedule — the one
// loop every sweep executor runs (DESIGN.md §15). Each phase receives the
// upstream carries, solves the phase's canonical lines through the binding,
// charges their flops and ships the downstream carries. An unsplit phase
// charges, in order: Recv and PerMessage; PerTileVisit per tile; the
// phase's flops; PerMessage and Send. Split phases (plan.Phase.Boundary >
// 0) run boundary-first through overlapPhase with the same range solver.
func RunPass(t xport.Transport, ps PassSpec) {
	pp := ps.Pass
	x := passRun{PassSpec: ps, t: t, flops: ps.Solver.ForwardFlopsPerElement(), batch: 1}
	if pp.Backward {
		x.flops = ps.Solver.BackwardFlopsPerElement()
	}
	if bs, ok := ps.Solver.(sweep.BatchSolver); ok && ps.Batch >= 0 && ps.Bind != nil {
		x.bs, x.batch = bs, ps.Batch
		if x.batch == 0 {
			x.batch = sweep.DefaultBatchLines
		}
		x.touched, x.written = sweep.PassMasks(ps.Solver, pp.Backward)
	}
	carryLen := pp.CarryLen
	var preB, preI xport.Request
	for k := range pp.Phases {
		ph := &pp.Phases[k]
		if ph.Boundary > 0 && !ps.PerTileMessages {
			preB, preI = x.overlapPhase(k, preB, preI)
			continue
		}
		// An aggregated payload is a pooled buffer whose ownership arrives
		// with the message; it is recycled once consumed. Outgoing carries
		// are assembled directly in a pooled payload — the batched kernels'
		// carry marshalling IS the wire format. Per-tile payloads are copied
		// into one buffer (the ablation is not allocation-free).
		var in, out []float64
		pooled := false
		if ph.RecvFrom >= 0 && carryLen > 0 {
			if ps.PerTileMessages {
				in = x.recvPerTile(ph)
			} else {
				msg := t.Recv(ph.RecvFrom, ph.RecvTag)
				t.Compute(ps.Overhead.PerMessage)
				in, pooled = msg.Payload, msg.Payload != nil
			}
		}
		if ph.SendTo >= 0 && carryLen > 0 && ps.Bind != nil {
			if ps.PerTileMessages {
				out = make([]float64, ph.Lines*carryLen)
			} else {
				out = t.GetPayload(ph.Lines * carryLen)
			}
		}
		x.solve(k, 0, ph.Lines, in, out)
		if pooled {
			t.PutPayload(in)
		}
		if ph.SendTo >= 0 && carryLen > 0 {
			if ps.PerTileMessages {
				x.sendPerTile(ph, out)
			} else {
				t.Compute(ps.Overhead.PerMessage)
				t.Send(ph.SendTo, ph.SendTag, xport.Msg{Bytes: ph.SendBytes, Payload: out})
			}
		}
	}
	ps.Scratch.publish(t)
}

// recvPerTile receives one carry message per tile of the phase, copying
// the payloads into one buffer in data mode (nil model-only).
func (x *passRun) recvPerTile(ph *plan.Phase) []float64 {
	carryLen := x.Pass.CarryLen
	var in []float64
	if x.Bind != nil {
		in = make([]float64, ph.Lines*carryLen)
	}
	off := 0
	for ti := range ph.Tiles {
		n := ph.Tiles[ti].Lines * carryLen
		msg := x.t.Recv(ph.RecvFrom, ph.RecvTag)
		x.t.Compute(x.Overhead.PerMessage)
		if in != nil {
			copy(in[off:off+n], msg.Payload)
		}
		off += n
	}
	return in
}

// sendPerTile ships one carry message per tile of the phase.
func (x *passRun) sendPerTile(ph *plan.Phase, out []float64) {
	carryLen := x.Pass.CarryLen
	off := 0
	for ti := range ph.Tiles {
		n := ph.Tiles[ti].Lines * carryLen
		x.t.Compute(x.Overhead.PerMessage)
		msg := xport.Msg{Bytes: n * 8}
		if out != nil {
			msg.Payload = out[off : off+n]
		}
		off += n
		x.t.Send(ph.SendTo, ph.SendTag, msg)
	}
}

// solve computes phase k's canonical lines in [gLo, gHi) and charges their
// flops. cIn/cOut hold the range's carries indexed from gLo (line g's
// carry block starts at (g−gLo)·CarryLen); either may be nil. Each tile
// intersecting the range pays PerTileVisit, so a tile straddling an
// overlap split is visited twice. Lines move in panels of batch lines:
// gather the vecs the pass touches, run the kernel, scatter the vecs it
// writes. The kernels are bit-equal under any panel grouping.
func (x *passRun) solve(k, gLo, gHi int, cIn, cOut []float64) {
	ph := &x.Pass.Phases[k]
	carryLen := x.Pass.CarryLen
	elements := 0
	for ti := range ph.Tiles {
		tg := &ph.Tiles[ti]
		off := tg.LineOff - ph.Tiles[0].LineOff // the tile's first line within the phase
		lo, hi := max(gLo, off), min(gHi, off+tg.Lines)
		if lo >= hi {
			continue
		}
		x.t.Compute(x.Overhead.PerTileVisit)
		elements += (hi - lo) * tg.ChunkLen
		if x.Bind == nil {
			continue
		}
		grids, lines := x.Bind.Tile(k, ti)
		for g0 := lo; g0 < hi; g0 += x.batch {
			nb := min(x.batch, hi-g0)
			s0 := g0 - off
			panels := x.Scratch.pan.Panels(len(grids), nb*tg.ChunkLen)
			for v, g := range grids {
				if sweep.MaskOn(x.touched, v) {
					g.GatherLines(lines[v][s0:s0+nb], panels[v])
				}
			}
			c0, c1 := (g0-gLo)*carryLen, (g0-gLo+nb)*carryLen
			var ci, co []float64
			if cIn != nil {
				ci = cIn[c0:c1]
			}
			if cOut != nil {
				co = cOut[c0:c1]
			}
			switch {
			case x.bs == nil && x.Pass.Backward:
				x.Solver.Backward(panels, ci, co)
			case x.bs == nil:
				x.Solver.Forward(panels, ci, co)
			case x.Pass.Backward:
				x.bs.BackwardBatch(panels, nb, ci, co)
			default:
				x.bs.ForwardBatch(panels, nb, ci, co)
			}
			for v, g := range grids {
				if sweep.MaskOn(x.written, v) {
					g.ScatterLines(lines[v][s0:s0+nb], panels[v])
				}
			}
		}
	}
	x.t.ComputeFlops(x.flops * float64(elements) * x.Overhead.ComputeFactor)
}
