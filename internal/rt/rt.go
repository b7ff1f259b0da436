// Package rt is the real-parallel runtime: the simulator's machine with no
// cost model, executing the same compiled schedules on real OS goroutines
// measured in wall-clock time. One goroutine runs per rank; messages move
// through the message core the simulator uses (internal/xport/mbox),
// carrying payloads zero-copy, and the collectives, the deadlock diagnosis,
// stats, metrics, the flight recorder and pprof labels are the simulator's
// own. What differs is the clock: with a zero sim.Network and no CPU model,
// Compute and ComputeFlops charge nothing, because the work itself took the
// time, and Result.Makespan is the wall time of Run. Field data is
// bit-identical between the two machines because both execute the same plan
// phase order and the kernels are deterministic — the rt identity tests in
// exp assert Float64bits equality.
package rt

import "genmp/internal/sim"

// Machine, Rank and Result are the simulator's types; the names stay
// because callers spell the real-parallel machine with them.
type (
	Machine = sim.Machine
	Rank    = sim.Rank
	Result  = sim.Result
)

// NewMachine returns a real-parallel machine of p ranks: the simulator's
// machine with a zero Network and no CPU model.
func NewMachine(p int) *Machine { return sim.NewMachine(p, sim.Network{}, sim.CPU{}) }
