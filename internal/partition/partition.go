// Package partition implements Section 3 of Darte, Chavarría-Miranda, Fowler
// and Mellor-Crummey, "Generalized Multipartitioning for Multi-dimensional
// Arrays" (IPDPS 2002): the objective function for line-sweep computations
// over a multipartitioned array, the characterization of elementary
// partitionings (Lemma 1), the generator of per-factor exponent distributions
// (the paper's Figure 2), and the optimized exhaustive search for an optimal
// partitioning.
//
// Terminology follows the paper. p is the number of processors with prime
// factorization p = ∏ αⱼ^rⱼ; d is the number of array dimensions; γᵢ is the
// number of tiles the array is cut into along dimension i. A partitioning
// (γᵢ) is valid when, for every i, p divides ∏_{j≠i} γⱼ — the necessary and
// sufficient condition for a balanced multipartitioned mapping to exist
// (Section 4). A line sweep along dimension i runs γᵢ computation phases
// separated by γᵢ−1 communication phases, so the tunable part of the total
// sweep cost is Σᵢ γᵢλᵢ where λᵢ = K₂ + K₃(p)·η/ηᵢ folds the per-phase
// start-up cost and the per-element bandwidth cost of the hyper-surface
// communicated along dimension i.
package partition

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"genmp/internal/numutil"
)

// Objective is the linear objective Σᵢ γᵢ·Lambda[i] minimized by the
// partitioning search. Lambda entries must be positive: Lemma 1 (and with it
// the restriction of the search to elementary partitionings) relies on the
// objective being strictly increasing in every γᵢ.
type Objective struct {
	Lambda []float64
}

// UniformObjective returns the objective λᵢ = 1 for all i, which minimizes
// the total number of computation phases Σγᵢ (the "number of phases is the
// critical term" simplification in Section 3.1).
func UniformObjective(d int) Objective {
	lambda := make([]float64, d)
	for i := range lambda {
		lambda[i] = 1
	}
	return Objective{Lambda: lambda}
}

// VolumeObjective returns λᵢ = η/ηᵢ (up to the dropped constant factor
// K₃(p)), which minimizes the communicated volume Σᵢ γᵢ·η/ηᵢ — the "volume of
// communications is the critical term" simplification in Section 3.1. Larger
// dimensions get relatively more cuts.
func VolumeObjective(eta []int) Objective {
	etaTotal := 1.0
	for _, e := range eta {
		etaTotal *= float64(e)
	}
	lambda := make([]float64, len(eta))
	for i, e := range eta {
		lambda[i] = etaTotal / float64(e)
	}
	return Objective{Lambda: lambda}
}

// MachineObjective returns the full per-phase cost of Section 3.1:
// λᵢ = K₂ + K₃·η/ηᵢ, with K₂ the communication start-up cost and K₃ the
// (possibly p-dependent) per-element transfer cost.
func MachineObjective(eta []int, k2, k3 float64) Objective {
	lambda := VolumeObjective(eta).Lambda
	for i := range lambda {
		lambda[i] = k2 + k3*lambda[i]
	}
	return Objective{Lambda: lambda}
}

// Cost evaluates the objective Σᵢ γᵢ·λᵢ for a partitioning.
func (o Objective) Cost(gamma []int) float64 {
	if len(gamma) != len(o.Lambda) {
		panic(fmt.Sprintf("partition: Cost: partitioning has %d dims, objective has %d", len(gamma), len(o.Lambda)))
	}
	c := 0.0
	for i, g := range gamma {
		c += float64(g) * o.Lambda[i]
	}
	return c
}

func (o Objective) validate(d int) error {
	if len(o.Lambda) != d {
		return fmt.Errorf("partition: objective has %d weights, want %d", len(o.Lambda), d)
	}
	for i, l := range o.Lambda {
		if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("partition: objective weight λ[%d] = %v must be positive and finite", i, l)
		}
	}
	return nil
}

// IsValid reports whether (γᵢ) is a valid partitioning for p processors:
// all γᵢ ≥ 1 and, for every i, p divides ∏_{j≠i} γⱼ. Validity guarantees
// that every hyper-rectangular slab along any partitioned dimension holds a
// multiple of p tiles, so it can be balanced across all processors.
func IsValid(p int, gamma []int) bool {
	if p < 1 || len(gamma) == 0 {
		return false
	}
	for _, g := range gamma {
		if g < 1 {
			return false
		}
	}
	for i := range gamma {
		if !numutil.DividesProdExcept(p, gamma, i) {
			return false
		}
	}
	return true
}

// IsElementary reports whether (γᵢ) is an elementary partitioning for p:
// a valid partitioning satisfying the Lemma 1 conditions for every prime
// factor αⱼ of p — αⱼ appears exactly rⱼ+mⱼ times across the γᵢ where mⱼ is
// its maximum multiplicity in any single γᵢ, that maximum is attained in at
// least two γᵢ, and no other primes appear. Elementary partitionings are the
// ones that cannot be obtained by paving a coarser multipartitioning; every
// optimal partitioning is elementary.
func IsElementary(p int, gamma []int) bool {
	if !IsValid(p, gamma) {
		return false
	}
	// No γᵢ may contain a prime that does not divide p.
	factors := numutil.Factorize(p)
	for _, g := range gamma {
		rem := g
		for _, f := range factors {
			for rem%f.Prime == 0 {
				rem /= f.Prime
			}
		}
		if rem != 1 {
			return false
		}
	}
	for _, f := range factors {
		total, maxMult, maxCount := 0, 0, 0
		for _, g := range gamma {
			e := 0
			for g%f.Prime == 0 {
				g /= f.Prime
				e++
			}
			total += e
			switch {
			case e > maxMult:
				maxMult, maxCount = e, 1
			case e == maxMult:
				maxCount++
			}
		}
		if total != f.Exp+maxMult || maxCount < 2 {
			return false
		}
	}
	return true
}

// Distributions implements the paper's Figure 2: it returns every
// distribution of r instances of one prime factor into d bins that satisfies
// the Lemma 1 optimality condition — the bins sum to r+m where m is the
// maximum bin value, and at least two bins equal m. r ≥ 1 and d ≥ 2 are
// required (with d = 1 no valid multipartitioning exists unless p = 1).
//
// The generation is the paper's recursive procedure P, which emits each
// distribution exactly once in linear time per distribution.
func Distributions(r, d int) [][]int {
	var out [][]int
	EachDistribution(r, d, func(bins []int) bool {
		out = append(out, numutil.CopyInts(bins))
		return true
	})
	return out
}

// EachDistribution is the streaming form of Distributions. It calls f with
// each distribution (the slice is reused; copy to retain) and stops early if
// f returns false.
func EachDistribution(r, d int, f func(bins []int) bool) {
	if r < 1 {
		panic(fmt.Sprintf("partition: EachDistribution: r = %d must be ≥ 1", r))
	}
	if d < 2 {
		panic(fmt.Sprintf("partition: EachDistribution: d = %d must be ≥ 2", d))
	}
	bins := make([]int, d)
	stopped := false
	// m ranges over the possible maximum multiplicities: ⌈r/(d−1)⌉ … r.
	for m := numutil.CeilDiv(r, d-1); m <= r && !stopped; m++ {
		distribRec(r+m, m, 2, 0, bins, f, &stopped)
	}
}

// distribRec is the paper's procedure P(n, m, c, t, d) with 0-based bin
// index t: distribute n elements into bins[t:], each at most m, with at
// least c bins equal to m.
func distribRec(n, m, c, t int, bins []int, f func([]int) bool, stopped *bool) {
	if *stopped {
		return
	}
	d := len(bins)
	if t == d-1 {
		bins[t] = n
		if !f(bins) {
			*stopped = true
		}
		return
	}
	remaining := d - 1 - t // bins after this one
	lo := numutil.MaxInt(0, n-remaining*m)
	hi := numutil.MinInt(m-1, n-c*m)
	for i := lo; i <= hi; i++ {
		bins[t] = i
		distribRec(n-i, m, c, t+1, bins, f, stopped)
		if *stopped {
			return
		}
	}
	if n >= m {
		bins[t] = m
		distribRec(n-m, m, numutil.MaxInt(0, c-1), t+1, bins, f, stopped)
	}
}

// Elementary returns every elementary partitioning of p processors over d
// dimensions, as γ vectors. Permutations that place the cuts on different
// dimensions are distinct entries (the objective weights differ per
// dimension). For p = 1 the single partitioning (1,…,1) is returned.
func Elementary(p, d int) [][]int {
	var out [][]int
	EachElementary(p, d, func(gamma []int) bool {
		out = append(out, numutil.CopyInts(gamma))
		return true
	})
	return out
}

// EachElementary streams every elementary partitioning of p over d
// dimensions to f (slice reused; copy to retain), stopping early if f
// returns false. It panics if p < 1 or d < 1; for d = 1 only p = 1 has a
// valid partitioning.
func EachElementary(p, d int, f func(gamma []int) bool) {
	if p < 1 {
		panic(fmt.Sprintf("partition: EachElementary: p = %d must be ≥ 1", p))
	}
	if d < 1 {
		panic(fmt.Sprintf("partition: EachElementary: d = %d must be ≥ 1", d))
	}
	if d == 1 && p > 1 {
		return // no valid partitioning of a 1-D array on p > 1 processors
	}
	factors := numutil.Factorize(p)
	// Pre-generate the distribution lists so the cross product below can
	// iterate them repeatedly.
	dists := make([][][]int, len(factors))
	for j, fac := range factors {
		dists[j] = Distributions(fac.Exp, d)
	}
	stopped := false
	elemRec(factors, dists, 0, ones(d), &stopped, f)
}

// elemRec walks the cross product of the per-factor distributions from level
// j down, streaming complete partitionings to f.
func elemRec(factors []numutil.Factor, dists [][][]int, j int, gamma []int, stopped *bool, f func([]int) bool) {
	if j == len(factors) {
		*stopped = !f(gamma)
		return
	}
	alpha := factors[j].Prime
	for _, bins := range dists[j] {
		for i, e := range bins {
			gamma[i] *= numutil.Pow(alpha, e)
		}
		elemRec(factors, dists, j+1, gamma, stopped, f)
		for i, e := range bins {
			gamma[i] /= numutil.Pow(alpha, e)
		}
		if *stopped {
			return
		}
	}
}

// CountElementary returns the number of elementary partitionings of p over d
// dimensions — the size of the search space of the exhaustive algorithm,
// which the paper proves is O((d(d−1)/2)^((1+o(1))·log p / log log p)).
func CountElementary(p, d int) int {
	if p == 1 {
		return 1
	}
	if d == 1 {
		return 0
	}
	count := 1
	for _, fac := range numutil.Factorize(p) {
		n := 0
		EachDistribution(fac.Exp, d, func([]int) bool { n++; return true })
		count *= n
	}
	return count
}

// Result is a partitioning chosen by one of the search functions together
// with its objective value.
type Result struct {
	Gamma []int
	Cost  float64
}

// SearchStats counts the work a partitioning search performed. Pass a
// *SearchStats to the *Stats variants of the search functions to have it
// filled in; the plain variants skip all counting. The counters quantify the
// paper's complexity claim (Section 3.3): the elementary space is tiny
// compared to brute force, and branch-and-bound shrinks the walked part
// further.
type SearchStats struct {
	Factors          int // prime factors of p processed
	Distributions    int // per-factor exponent distributions generated (Figure 2), summed over factors
	NodesVisited     int // search-tree nodes expanded (incl. leaves)
	LeavesEvaluated  int // complete partitionings whose cost was evaluated
	PrunedBound      int // subtrees cut by the branch-and-bound lower bound
	PrunedCap        int // subtrees cut because a partial γᵢ exceeded its cap
	BruteForceLeaves int // CountElementary(p,d): leaves an unpruned exhaustive scan evaluates
}

// PruneRatio returns the fraction of the elementary space the search did NOT
// have to evaluate (0 when nothing was pruned, or when the space is empty).
func (s *SearchStats) PruneRatio() float64 {
	if s == nil || s.BruteForceLeaves == 0 {
		return 0
	}
	r := 1 - float64(s.LeavesEvaluated)/float64(s.BruteForceLeaves)
	if r < 0 {
		return 0
	}
	return r
}

func (s *SearchStats) String() string {
	if s == nil {
		return "search: no stats"
	}
	return fmt.Sprintf(
		"search: %d factors, %d distributions, %d nodes, %d/%d leaves evaluated (%.1f%% pruned: %d bound, %d cap)",
		s.Factors, s.Distributions, s.NodesVisited, s.LeavesEvaluated, s.BruteForceLeaves,
		100*s.PruneRatio(), s.PrunedBound, s.PrunedCap)
}

// Optimal returns a partitioning of p processors over d dimensions
// minimizing obj, using the paper's optimized exhaustive search over
// elementary partitionings with branch-and-bound pruning (partial products
// only grow, so the partial objective is a lower bound). Of several γ whose
// costs lie within a relative 1e-12 of the minimum, the lexicographically
// smallest wins, so neither the walk order nor float rounding picks among
// tied orientations: p = 24, d = 3 under uniform weights gives 4×6×12, the
// first of OptimalAll's ties.
func Optimal(p, d int, obj Objective) (Result, error) { return search(p, d, obj, nil, nil) }

// OptimalStats is Optimal with search accounting: when stats is non-nil it
// records the nodes visited, subtrees cut by the lower bound, leaves whose
// full cost was evaluated, and the size of the unpruned elementary space.
func OptimalStats(p, d int, obj Objective, stats *SearchStats) (Result, error) {
	return search(p, d, obj, nil, stats)
}

// OptimalCapped returns the cheapest elementary partitioning with
// γᵢ ≤ caps[i] for every i — the practical constraint that a dimension
// cannot be cut into more pieces than it has elements (or, stricter, than
// some minimum block size allows, the dHPF limitation the paper describes
// for large prime factors). It is Optimal's walk under Optimal's tie rule,
// which cuts a subtree as soon as a factor's distribution pushes some γᵢ
// past its cap, since γᵢ only grow further down; nil caps cap nothing. It
// fails when no elementary partitioning fits.
func OptimalCapped(p, d int, obj Objective, caps []int) (Result, error) {
	return search(p, d, obj, caps, nil)
}

// OptimalCappedStats is OptimalCapped with search accounting: when stats is
// non-nil it additionally records how many subtrees the caps cut.
func OptimalCappedStats(p, d int, obj Objective, caps []int, stats *SearchStats) (Result, error) {
	return search(p, d, obj, caps, stats)
}

// search is the one partitioning search behind Optimal and OptimalCapped.
func search(p, d int, obj Objective, caps []int, stats *SearchStats) (Result, error) {
	if err := obj.validate(d); err != nil {
		return Result{}, err
	}
	if caps != nil && len(caps) != d {
		return Result{}, fmt.Errorf("partition: OptimalCapped: %d caps for %d dimensions", len(caps), d)
	}
	if p < 1 || d < 1 {
		return Result{}, fmt.Errorf("partition: Optimal: need p ≥ 1 and d ≥ 1 (got p = %d, d = %d)", p, d)
	}
	if stats == nil {
		stats = &SearchStats{} // discard counts without nil checks below
	}
	if pm := partMetricsPtr.Load(); pm != nil {
		kind := pm.searchesOptimal
		if caps != nil {
			kind = pm.searchesCapped
		}
		kind.Inc()
		pm.inflight.Add(1)
		pre := *stats
		defer func() {
			pm.add(stats.minus(pre))
			pm.inflight.Add(-1)
		}()
	}
	stats.BruteForceLeaves = CountElementary(p, d)
	if d == 1 && p > 1 {
		return Result{}, fmt.Errorf("partition: no valid multipartitioning of a 1-D array on %d > 1 processors", p)
	}

	factors := numutil.Factorize(p)
	stats.Factors = len(factors)
	// Process large prime powers first: their placement moves the partial
	// cost the most, which makes the lower-bound pruning bite early.
	slices.SortFunc(factors, func(a, b numutil.Factor) int {
		return numutil.Pow(b.Prime, b.Exp) - numutil.Pow(a.Prime, a.Exp)
	})
	w := walk{mults: make([][][]int, len(factors)), obj: obj, caps: caps, gamma: ones(d), stats: stats}
	for j, fac := range factors {
		w.mults[j] = Distributions(fac.Exp, d)
		for _, bins := range w.mults[j] {
			for i, e := range bins {
				bins[i] = numutil.Pow(fac.Prime, e)
			}
		}
		stats.Distributions += len(w.mults[j])
	}
	w.rec(0)
	if w.best.Gamma == nil {
		return Result{}, fmt.Errorf("partition: no elementary partitioning of p = %d fits within caps %v", p, caps)
	}
	return w.best, nil
}

// walk is the state of one search: for each factor of p in placement
// order, its distributions as per-dimension multipliers αⱼ^e; the partial
// γ; and the incumbent.
type walk struct {
	mults [][][]int
	obj   Objective
	caps  []int
	gamma []int
	best  Result
	stats *SearchStats
}

// rec is the branch-and-bound walk from level j down; level j multiplies
// factor j's distribution into γ. γᵢ only grow further down, so a partial
// γ past a cap rules out its whole subtree, and its cost bounds every leaf
// below from below. The bound cuts a subtree no leaf of which betterResult
// would prefer to the incumbent: one already costlier, or one that ties and
// whose partial γ is not lexicographically smaller, since every leaf below
// is at least as large in every γᵢ.
func (w *walk) rec(j int) {
	c := 0.0 // w.obj.Cost(w.gamma), inlined: this runs at every node
	for i, g := range w.gamma {
		if w.caps != nil && g > w.caps[i] {
			w.stats.PrunedCap++
			return
		}
		c += float64(g) * w.obj.Lambda[i]
	}
	if !betterResult(c, w.gamma, w.best) {
		w.stats.PrunedBound++
		return
	}
	w.stats.NodesVisited++
	if j == len(w.mults) {
		w.stats.LeavesEvaluated++
		w.best = Result{Gamma: numutil.CopyInts(w.gamma), Cost: c}
		return
	}
	for _, mult := range w.mults[j] {
		for i, f := range mult {
			w.gamma[i] *= f
		}
		w.rec(j + 1)
		for i, f := range mult {
			if f > 1 {
				w.gamma[i] /= f
			}
		}
	}
}

// OptimalAll returns every elementary partitioning achieving the minimum
// objective value (ties are common under symmetric weights — e.g. the
// orientations of one pattern), sorted lexicographically. The cost
// comparison uses an exact-equality criterion on the elementary costs
// evaluated the same way, so permutation ties are found reliably.
func OptimalAll(p, d int, obj Objective) ([]Result, error) {
	best, err := Optimal(p, d, obj)
	if err != nil {
		return nil, err
	}
	var out []Result
	EachElementary(p, d, func(gamma []int) bool {
		c := obj.Cost(gamma)
		if c <= best.Cost*(1+1e-12) {
			out = append(out, Result{Gamma: numutil.CopyInts(gamma), Cost: c})
		}
		return true
	})
	sort.Slice(out, func(a, b int) bool { return lexLess(out[a].Gamma, out[b].Gamma) })
	return out, nil
}

// BruteForceOptimal is a reference oracle used in tests: it scans every
// d-tuple of divisors of p, keeps the valid partitionings and returns the
// cheapest (ties toward lexicographically smallest). It is correct because
// every elementary partitioning has γᵢ | p (each prime's per-dimension
// multiplicity is at most mⱼ ≤ rⱼ) and Lemma 1 shows every optimal
// partitioning is elementary. Exponential in d; use only for small p.
func BruteForceOptimal(p, d int, obj Objective) Result {
	if err := obj.validate(d); err != nil {
		panic(err)
	}
	divs := numutil.Divisors(p)
	gamma := make([]int, d)
	best := Result{Cost: math.Inf(1)}
	var rec func(i int)
	rec = func(i int) {
		if i == d {
			if !IsValid(p, gamma) {
				return
			}
			c := obj.Cost(gamma)
			if c < best.Cost || (c == best.Cost && lexLess(gamma, best.Gamma)) {
				best = Result{Gamma: numutil.CopyInts(gamma), Cost: c}
			}
			return
		}
		for _, g := range divs {
			gamma[i] = g
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// OptimalPrimePower solves the single-prime-factor case p = α^r in
// polynomial time (the greedy path the paper mentions for p with one prime
// factor). For each candidate maximum multiplicity m it pins the two forced
// maxima on the dimensions with the smallest weights (rearrangement
// inequality) and distributes the remaining r−m exponents by marginal-cost
// greedy, which is optimal for a separable convex objective under a total
// and per-dimension cap.
func OptimalPrimePower(alpha, r, d int, obj Objective) (Result, error) {
	if err := obj.validate(d); err != nil {
		return Result{}, err
	}
	if alpha < 2 || r < 1 {
		return Result{}, fmt.Errorf("partition: OptimalPrimePower: need α ≥ 2, r ≥ 1 (got α=%d, r=%d)", alpha, r)
	}
	if d < 2 {
		return Result{}, fmt.Errorf("partition: OptimalPrimePower: need d ≥ 2")
	}
	// Dimensions sorted by increasing λ: cheaper dimensions take more cuts.
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return obj.Lambda[order[a]] < obj.Lambda[order[b]] })

	var best Result
	for m := numutil.CeilDiv(r, d-1); m <= r; m++ {
		exps := make([]int, d) // exponent per (sorted) position
		exps[0], exps[1] = m, m
		remaining := r - m
		// Greedy: repeatedly grant one more exponent where the marginal cost
		// λ·α^e·(α−1) is smallest, capped at m per dimension.
		for remaining > 0 {
			bestPos, bestMarginal := -1, math.Inf(1)
			for pos := 2; pos < d; pos++ {
				if exps[pos] >= m {
					continue
				}
				marginal := obj.Lambda[order[pos]] * float64(numutil.Pow(alpha, exps[pos])) * float64(alpha-1)
				if marginal < bestMarginal {
					bestPos, bestMarginal = pos, marginal
				}
			}
			if bestPos < 0 {
				break // cannot place remaining exponents under the cap
			}
			exps[bestPos]++
			remaining--
		}
		if remaining > 0 {
			continue
		}
		gamma := make([]int, d)
		for pos, e := range exps {
			gamma[order[pos]] = numutil.Pow(alpha, e)
		}
		if c := obj.Cost(gamma); betterResult(c, gamma, best) {
			best = Result{Gamma: gamma, Cost: c}
		}
	}
	if best.Gamma == nil {
		return Result{}, fmt.Errorf("partition: OptimalPrimePower: no feasible distribution (α=%d, r=%d, d=%d)", alpha, r, d)
	}
	return best, nil
}

// TilesPerProcessor returns ∏γᵢ / p, the number of tiles each processor owns
// under a balanced mapping of the partitioning.
func TilesPerProcessor(p int, gamma []int) int {
	return numutil.Prod(gamma...) / p
}

// Describe renders a partitioning like "4×4×2".
func Describe(gamma []int) string {
	s := ""
	for i, g := range gamma {
		if i > 0 {
			s += "×"
		}
		s += fmt.Sprintf("%d", g)
	}
	return s
}

// ones returns the trivial partitioning (1,…,1) of d dimensions.
func ones(d int) []int {
	gamma := make([]int, d)
	for i := range gamma {
		gamma[i] = 1
	}
	return gamma
}

func lexLess(a, b []int) bool {
	if b == nil {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// betterResult compares a candidate against the incumbent with a relative
// epsilon: summation order makes the costs of tied orientations differ in
// the last bits, so an exact comparison would make the tie-break (toward
// the lexicographically smallest γ) order-dependent.
func betterResult(c float64, gamma []int, best Result) bool {
	if best.Gamma == nil {
		return true
	}
	scale := best.Cost
	if c > scale {
		scale = c
	}
	switch {
	case c < best.Cost-1e-12*scale:
		return true
	case c > best.Cost+1e-12*scale:
		return false
	default:
		return lexLess(gamma, best.Gamma)
	}
}
