package xport

import "fmt"

// Alg selects a collective algorithm. The enum lives here (not in sim)
// because plan consumers carry it in their options structs, and those are
// transport-neutral; each backend maps the values onto its own
// implementations.
type Alg int

const (
	// AlgAuto picks the machine default, falling back to each primitive's
	// legacy algorithm — the one whose timing matches the pre-collective
	// hand-rolled loops bit for bit.
	AlgAuto Alg = iota
	// AlgPairwise exchanges directly with every peer (p−1 messages each).
	AlgPairwise
	// AlgRing forwards blocks around a ring in p−1 steps.
	AlgRing
	// AlgDoubling exchanges with hypercube partners in ⌈log₂ p⌉ rounds.
	AlgDoubling
	// AlgBruck is the log-round store-and-forward all-to-all; for tree
	// collectives it selects the binomial tree.
	AlgBruck
)

// String names the algorithm as accepted by ParseAlg.
func (a Alg) String() string {
	switch a {
	case AlgPairwise:
		return "pairwise"
	case AlgRing:
		return "ring"
	case AlgDoubling:
		return "doubling"
	case AlgBruck:
		return "bruck"
	default:
		return "auto"
	}
}

// ParseAlg parses a collective-algorithm name (the -coll flag values).
func ParseAlg(s string) (Alg, error) {
	switch s {
	case "", "auto":
		return AlgAuto, nil
	case "pairwise", "direct":
		return AlgPairwise, nil
	case "ring":
		return AlgRing, nil
	case "doubling", "rd":
		return AlgDoubling, nil
	case "bruck":
		return AlgBruck, nil
	}
	return AlgAuto, fmt.Errorf("xport: unknown collective algorithm %q (want auto, pairwise, ring, doubling or bruck)", s)
}

// CollOpts tunes one collective call.
type CollOpts struct {
	// Alg selects the algorithm; AlgAuto defers to the machine default and
	// then to the primitive's legacy default.
	Alg Alg
	// PerMessage is CPU time charged around each constituent message
	// (software packing overhead), matching the distribution layers'
	// historical Compute(PerMessage) bracketing. Zero charges nothing.
	PerMessage float64
}
