// Package obs is the observability layer over the virtual machine of
// internal/sim: it aggregates a run's per-rank, per-phase statistics into a
// Profile (per-phase time breakdown, load-imbalance ratio, busy-time
// percentiles, a critical-path estimate from the event graph), and exports
// traces in the Chrome trace-event JSON format so any run can be inspected
// in ui.perfetto.dev.
//
// The paper's evaluation (Table 1, Figures 6–7) argues from exactly this
// kind of data — where per-phase time goes, how many messages move, how
// balanced the phases are — so every cmd/ tool can surface a Profile
// (-metrics) and a trace (-trace out.json) for any configuration.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"genmp/internal/obs/causal"
	"genmp/internal/sim"
)

// PhaseProfile aggregates one phase label across all ranks of a run. The
// JSON form is the profile_*.json on-disk schema consumed by
// obs/profdiff and cmd/benchdiff.
type PhaseProfile struct {
	Label string `json:"label"`
	// Compute, Comm and Wait are the mean per-rank seconds spent in the
	// phase; MaxTotal is the slowest rank's Compute+Comm+Wait.
	Compute  float64 `json:"compute_sec"`
	Comm     float64 `json:"comm_sec"`
	Wait     float64 `json:"wait_sec"`
	MaxTotal float64 `json:"max_total_sec"`
	// Imbalance is max/mean of the per-rank busy time (Compute+Comm) of
	// the phase; 1 means perfectly balanced, 0 means the phase did no busy
	// work anywhere.
	Imbalance float64 `json:"imbalance"`
	Msgs      int     `json:"msgs"`  // messages sent in the phase, all ranks
	Bytes     int     `json:"bytes"` // bytes sent in the phase, all ranks
}

// Mean returns the mean per-rank time accounted to the phase.
func (pp PhaseProfile) Mean() float64 { return pp.Compute + pp.Comm + pp.Wait }

// Profile is the aggregate view of one run.
type Profile struct {
	P        int     `json:"p"`
	Makespan float64 `json:"makespan_sec"`
	// Phases is sorted by label; activity recorded before any BeginPhase
	// appears under the empty label.
	Phases []PhaseProfile `json:"phases,omitempty"`
	// Idle is the mean per-rank trailing idle time (after the rank's body
	// returned, until the slowest rank finished).
	Idle float64 `json:"idle_sec"`
	// BusyP50, BusyP90 and BusyMax are percentiles of the per-rank busy
	// time (compute + comm, excluding waits).
	BusyP50 float64 `json:"busy_p50_sec"`
	BusyP90 float64 `json:"busy_p90_sec"`
	BusyMax float64 `json:"busy_max_sec"`
	// LoadImbalance is BusyMax over the mean per-rank busy time.
	LoadImbalance float64 `json:"load_imbalance"`
	// CriticalPath is the longest busy-time dependency chain through the
	// run's event graph (0 unless the Profile was built with a trace); see
	// causal.BusyCriticalPath for the graph definition. Makespan −
	// CriticalPath is time no schedule could remove without changing the
	// dependence structure or the per-event work.
	CriticalPath float64 `json:"critical_path_sec,omitempty"`
	TotalMsgs    int     `json:"total_msgs"`
	TotalBytes   int     `json:"total_bytes"`
}

// NewProfile aggregates a run's Result. Pass the run's *sim.Trace (or nil)
// to additionally estimate the critical path.
func NewProfile(res sim.Result, tr *sim.Trace) *Profile {
	p := &Profile{P: len(res.Ranks), Makespan: res.Makespan}
	if p.P == 0 {
		return p
	}
	for _, s := range res.Ranks {
		p.Idle += s.IdleTime
		p.TotalMsgs += s.MsgsSent
		p.TotalBytes += s.BytesSent
	}
	p.Idle /= float64(p.P)

	for _, l := range res.PhaseLabels() {
		pp := PhaseProfile{Label: l}
		maxBusy, sumBusy := 0.0, 0.0
		for _, s := range res.Ranks {
			ps := s.Phases[l]
			pp.Compute += ps.ComputeTime
			pp.Comm += ps.CommTime
			pp.Wait += ps.WaitTime
			pp.Msgs += ps.MsgsSent
			pp.Bytes += ps.BytesSent
			if t := ps.Total(); t > pp.MaxTotal {
				pp.MaxTotal = t
			}
			b := ps.Busy()
			sumBusy += b
			if b > maxBusy {
				maxBusy = b
			}
		}
		n := float64(p.P)
		pp.Compute /= n
		pp.Comm /= n
		pp.Wait /= n
		if sumBusy > 0 {
			pp.Imbalance = maxBusy / (sumBusy / n)
		}
		p.Phases = append(p.Phases, pp)
	}

	busy := make([]float64, p.P)
	sum := 0.0
	for i, s := range res.Ranks {
		busy[i] = s.ComputeTime + s.CommTime
		sum += busy[i]
	}
	sort.Float64s(busy)
	p.BusyP50 = percentile(busy, 0.50)
	p.BusyP90 = percentile(busy, 0.90)
	p.BusyMax = busy[len(busy)-1]
	if sum > 0 {
		p.LoadImbalance = p.BusyMax / (sum / float64(p.P))
	}
	if tr != nil {
		p.CriticalPath = causal.BusyCriticalPath(tr.Events(), p.P)
	}
	return p
}

// percentile returns the q-quantile of sorted (nearest-rank method).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Total returns the mean per-rank accounted time — phase times plus
// trailing idle. It equals the makespan up to floating-point summation
// error: every clock advance of every rank is mirrored in exactly one
// phase bucket, and idle covers the gap to the slowest rank.
func (p *Profile) Total() float64 {
	t := p.Idle
	for _, pp := range p.Phases {
		t += pp.Mean()
	}
	return t
}

// Phase returns the profile of the given label (zero value if absent).
func (p *Profile) Phase(label string) PhaseProfile {
	for _, pp := range p.Phases {
		if pp.Label == label {
			return pp
		}
	}
	return PhaseProfile{}
}

// Format renders the profile as an aligned table.
func (p *Profile) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile: %d ranks, makespan %s\n", p.P, fmtSec(p.Makespan))
	fmt.Fprintf(&sb, "%-14s  %10s  %10s  %10s  %10s  %7s  %9s  %12s\n",
		"phase", "compute", "comm", "wait", "max total", "imbal", "msgs", "bytes")
	for _, pp := range p.Phases {
		label := pp.Label
		if label == "" {
			label = "(unlabeled)"
		}
		fmt.Fprintf(&sb, "%-14s  %10s  %10s  %10s  %10s  %7.3f  %9d  %12d\n",
			label, fmtSec(pp.Compute), fmtSec(pp.Comm), fmtSec(pp.Wait), fmtSec(pp.MaxTotal),
			pp.Imbalance, pp.Msgs, pp.Bytes)
	}
	fmt.Fprintf(&sb, "%-14s  %10s\n", "(trailing idle)", fmtSec(p.Idle))
	fmt.Fprintf(&sb, "total (mean per rank) %s vs makespan %s (diff %.3g)\n",
		fmtSec(p.Total()), fmtSec(p.Makespan), p.Total()-p.Makespan)
	fmt.Fprintf(&sb, "busy per rank: p50 %s  p90 %s  max %s  load imbalance %.3f\n",
		fmtSec(p.BusyP50), fmtSec(p.BusyP90), fmtSec(p.BusyMax), p.LoadImbalance)
	if p.CriticalPath > 0 {
		fmt.Fprintf(&sb, "critical path %s (%.1f%% of makespan)\n",
			fmtSec(p.CriticalPath), 100*p.CriticalPath/p.Makespan)
	}
	fmt.Fprintf(&sb, "traffic: %d messages, %d bytes\n", p.TotalMsgs, p.TotalBytes)
	return sb.String()
}

// fmtSec renders a duration in engineering units.
func fmtSec(s float64) string {
	switch {
	case s == 0:
		return "0"
	case math.Abs(s) < 1e-3:
		return fmt.Sprintf("%.2fµs", s*1e6)
	case math.Abs(s) < 1:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
