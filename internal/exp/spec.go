package exp

import (
	"genmp/internal/plan"
	"genmp/internal/xport"
)

// Spec holds the parameters of one experiment run. Each entry point reads
// the fields its doc comment names and ignores the rest.
type Spec struct {
	// Topology names the interconnect (see sim.FabricNames); "" and
	// "default" keep the Origin 2000 crossbar.
	Topology string
	// Coll is the machines' default collective algorithm (zero: auto).
	Coll  xport.Alg
	P     int
	Eta   []int
	Steps int
	// Grain is the wavefront message granularity in lines per message.
	Grain int
	// Overlap is the boundary-first overlap annotation of the sweeps (zero:
	// off).
	Overlap plan.Overlap
	// MaxBytes is the per-rank staging budget of the redistribution plans
	// (0 = unbounded).
	MaxBytes int
}

// Suite names the bench suite of records measured under s: base, then
// "@<topology>" unless the topology is the default, then "+overlap" when the
// overlap schedule is on. Non-default runs thus get their own suites and sit
// beside the committed defaults without colliding in the zero-tolerance
// perf gate.
func (s Spec) Suite(base string) string {
	if s.Topology != "" && s.Topology != "default" {
		base += "@" + s.Topology
	}
	if s.Overlap.Enabled {
		base += "+overlap"
	}
	return base
}
