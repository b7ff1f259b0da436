package exp

import (
	"fmt"
	"strings"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/numutil"
	"genmp/internal/obs"
	"genmp/internal/partition"
	"genmp/internal/redist"
	"genmp/internal/sim"
)

// RedistRow is one redistribution policy of the layout-switch comparison.
type RedistRow struct {
	Key    string
	Policy string
	Gamma  string // partitioning used, when the policy switches into one
	Time   float64
	Bytes  int
	Msgs   int
	// PeakBytes is the largest per-rank staging bound any of the policy's
	// compiled plans declares (0 when the policy compiles none).
	PeakBytes int
}

// redistFlopsPerElement is the per-phase arithmetic of the synthetic
// spectral-style workload: heavy enough that redistribution cost matters
// without dominating.
const redistFlopsPerElement = 50.0

// RedistComparison models a spectral-style computation whose first phase
// wants a BLOCK(dim 0) layout and whose second phase wants a sweep-friendly
// one, under three redistribution policies. It reads s.Topology, s.Coll,
// s.P, s.Eta, s.Steps and s.MaxBytes:
//
//   - block-transpose: the historical dynamic-block answer — transpose to
//     BLOCK(dim 1) for phase two and back, two full all-to-alls per step,
//     both compiled as BLOCK→BLOCK redist plans (the legacy special case).
//   - redist-switch: the generalized engine's answer — switch BLOCK↔MULTI
//     each step, so phase two runs under a multipartitioning with a cheap
//     depth-1 halo instead of a second transpose. s.MaxBytes (0 =
//     unbounded) is handed to the accountant, chunking the switch into
//     rounds.
//   - multi-only: never switch; both phases run under the multipartitioning
//     (phase one pays nothing extra here — the row is the floor showing
//     what the switches themselves cost).
//
// All three policies execute identical arithmetic per step, so makespan
// differences are pure redistribution policy. Model-only: no payloads flow.
func RedistComparison(s Spec) ([]RedistRow, error) {
	p, eta, steps, coll := s.P, s.Eta, s.Steps, s.Coll
	d := len(eta)
	if d < 2 {
		return nil, fmt.Errorf("exp: redist comparison needs d ≥ 2")
	}
	obj := partition.MachineObjective(eta, 20e-6, 80e-9/float64(p))
	m, err := core.NewOptimal(p, d, obj)
	if err != nil {
		return nil, err
	}
	env, err := dist.NewEnv(m, eta, dist.HandCoded())
	if err != nil {
		return nil, err
	}

	blk0, err := redist.NewBlockLayout(p, eta, 0)
	if err != nil {
		return nil, err
	}
	blk1, err := redist.NewBlockLayout(p, eta, 1)
	if err != nil {
		return nil, err
	}
	multi, err := redist.NewMultiLayout(m, eta)
	if err != nil {
		return nil, err
	}
	t01, err := redist.Compile(redist.Spec{From: blk0, To: blk1})
	if err != nil {
		return nil, err
	}
	t10, err := redist.Compile(redist.Spec{From: blk1, To: blk0})
	if err != nil {
		return nil, err
	}
	bm, err := redist.Compile(redist.Spec{From: blk0, To: multi, MaxBytes: s.MaxBytes})
	if err != nil {
		return nil, err
	}
	mb, err := redist.Compile(redist.Spec{From: multi, To: blk0, MaxBytes: s.MaxBytes})
	if err != nil {
		return nil, err
	}

	// Per-rank element counts under each layout (balanced up to remainder
	// spreading, but charged exactly).
	elemsOf := func(l redist.Layout, q int) int {
		n := 0
		for _, rg := range l.Regions(q) {
			n += rg.Rect.Size()
		}
		return n
	}
	phase := func(r *sim.Rank, l redist.Layout) {
		r.ComputeFlops(redistFlopsPerElement * float64(elemsOf(l, r.ID)))
	}
	perMsg := env.Overhead.PerMessage
	halo := env.HaloPlan(1, 1)

	type policy struct {
		key, desc string
		gamma     string
		plans     []*redist.Plan
		body      func(r *sim.Rank)
	}
	policies := []policy{
		{
			key: "block-transpose", desc: "BLOCK(0)↔BLOCK(1), two transposes/step",
			plans: []*redist.Plan{t01, t10},
			body: func(r *sim.Rank) {
				for s := 0; s < steps; s++ {
					phase(r, blk0)
					redist.Execute(r, t01, redist.ExecOpts{Coll: coll, PerMessage: perMsg})
					phase(r, blk1)
					redist.Execute(r, t10, redist.ExecOpts{Coll: coll, PerMessage: perMsg})
				}
			},
		},
		{
			key: "redist-switch", desc: "BLOCK(0)↔MULTI, halo under multi",
			gamma: partition.Describe(m.Gamma()),
			plans: []*redist.Plan{bm, mb},
			body: func(r *sim.Rank) {
				for s := 0; s < steps; s++ {
					phase(r, blk0)
					redist.Execute(r, bm, redist.ExecOpts{Coll: coll, PerMessage: perMsg})
					redist.Execute(r, halo, redist.ExecOpts{PerMessage: perMsg})
					phase(r, multi)
					redist.Execute(r, mb, redist.ExecOpts{Coll: coll, PerMessage: perMsg})
				}
			},
		},
		{
			key: "multi-only", desc: "stay MULTI, no switches",
			gamma: partition.Describe(m.Gamma()),
			body: func(r *sim.Rank) {
				for s := 0; s < steps; s++ {
					phase(r, multi)
					redist.Execute(r, halo, redist.ExecOpts{PerMessage: perMsg})
					phase(r, multi)
				}
			},
		},
	}

	rows := make([]RedistRow, 0, len(policies))
	for _, pol := range policies {
		mach, err := strategyMachineOn(s)
		if err != nil {
			return nil, err
		}
		res, err := mach.Run(pol.body)
		if err != nil {
			return nil, fmt.Errorf("exp: redist policy %s: %w", pol.key, err)
		}
		peak := 0
		for _, pl := range pol.plans {
			peak = numutil.MaxInt(peak, pl.PeakBytes)
		}
		rows = append(rows, RedistRow{
			Key: pol.key, Policy: pol.desc, Gamma: pol.gamma,
			Time: res.Makespan, Bytes: res.TotalBytes(), Msgs: res.TotalMessages(),
			PeakBytes: peak,
		})
	}
	return rows, nil
}

// FormatRedistComparison renders the policy table with the winner marked.
func FormatRedistComparison(rows []RedistRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s  %-36s  %12s  %12s  %8s  %10s\n",
		"policy", "description", "time", "bytes", "msgs", "peak B/rk")
	best := 0
	for i, r := range rows {
		if r.Time < rows[best].Time {
			best = i
		}
	}
	for i, r := range rows {
		mark := "  "
		if i == best {
			mark = " *"
		}
		fmt.Fprintf(&sb, "%-16s  %-36s  %11.4fs%s  %12d  %8d  %10d\n",
			r.Key, r.Policy, r.Time, mark, r.Bytes, r.Msgs, r.PeakBytes)
	}
	return sb.String()
}

// RedistRecords converts the redistribution comparison run under s into
// BENCH_*.json records, one per policy, in suite s.Suite("redist").
func RedistRecords(s Spec, rows []RedistRow) []obs.BenchRecord {
	recs := make([]obs.BenchRecord, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, obs.BenchRecord{
			Suite: s.Suite("redist"), Name: r.Key,
			P: s.P, Eta: s.Eta, Steps: s.Steps, Gamma: r.Gamma,
			Makespan: r.Time, Messages: r.Msgs, Bytes: r.Bytes,
		})
	}
	return recs
}
