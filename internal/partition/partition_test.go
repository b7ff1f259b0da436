package partition

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"genmp/internal/numutil"
)

func TestIsValidBasics(t *testing.T) {
	cases := []struct {
		p     int
		gamma []int
		want  bool
	}{
		{1, []int{1, 1, 1}, true},
		{4, []int{2, 2, 2}, true},
		{4, []int{4, 4, 1}, true},
		{4, []int{2, 2, 1}, false}, // slab along dim 3 has 4 tiles but slabs along 1,2 have 2
		{8, []int{4, 4, 2}, true},
		{8, []int{8, 8, 1}, true},
		{8, []int{4, 2, 2}, false},
		{16, []int{4, 4, 4}, true}, // Figure 1
		{30, []int{10, 15, 6}, true},
		{30, []int{30, 30, 1}, true},
		{30, []int{15, 6, 5}, false},
		{6, []int{6, 6}, true},
		{6, []int{6, 3}, false},
		{5, []int{5, 5}, true},
		{2, []int{2}, false}, // d=1 cannot be valid for p>1
		{1, []int{1}, true},  // trivial
		{4, []int{0, 4}, false},
		{0, []int{1}, false},
		// The slab product along dim 2 is 2⁶⁴, which wraps to 0 in an int.
		{3, []int{1 << 32, 1 << 32, 3}, false},
		{2, []int{1 << 32, 1 << 32, 2}, true},
	}
	for _, c := range cases {
		if got := IsValid(c.p, c.gamma); got != c.want {
			t.Errorf("IsValid(%d, %v) = %v, want %v", c.p, c.gamma, got, c.want)
		}
	}
}

func TestDistributionsD2(t *testing.T) {
	// For d = 2 the only Lemma-1 distribution is (r, r).
	for r := 1; r <= 10; r++ {
		got := Distributions(r, 2)
		if len(got) != 1 || !numutil.EqualInts(got[0], []int{r, r}) {
			t.Errorf("Distributions(%d, 2) = %v, want [[%d %d]]", r, got, r, r)
		}
	}
}

func TestDistributionsAgainstBruteForce(t *testing.T) {
	// Brute force: all d-tuples with entries ≤ r, sum = r + max, max attained
	// at least twice.
	brute := func(r, d int) [][]int {
		var out [][]int
		shape := make([]int, d)
		for i := range shape {
			shape[i] = r + 1
		}
		numutil.EachCoord(shape, func(bins []int) {
			m, cnt, sum := 0, 0, 0
			for _, b := range bins {
				sum += b
				switch {
				case b > m:
					m, cnt = b, 1
				case b == m:
					cnt++
				}
			}
			if m >= 1 && cnt >= 2 && sum == r+m {
				out = append(out, numutil.CopyInts(bins))
			}
		})
		return out
	}
	for d := 2; d <= 5; d++ {
		for r := 1; r <= 7; r++ {
			got := Distributions(r, d)
			want := brute(r, d)
			sortSlices(got)
			sortSlices(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Distributions(%d, %d): got %d distributions, brute force %d\n got: %v\nwant: %v",
					r, d, len(got), len(want), got, want)
			}
		}
	}
}

func TestDistributionsNoDuplicates(t *testing.T) {
	for d := 2; d <= 6; d++ {
		for r := 1; r <= 8; r++ {
			seen := map[string]bool{}
			for _, bins := range Distributions(r, d) {
				key := Describe(bins)
				if seen[key] {
					t.Fatalf("Distributions(%d, %d): duplicate %v", r, d, bins)
				}
				seen[key] = true
			}
		}
	}
}

func TestEachDistributionEarlyStop(t *testing.T) {
	n := 0
	EachDistribution(5, 3, func([]int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d distributions, want 3", n)
	}
}

func TestElementaryExamplesFromPaper(t *testing.T) {
	// Section 3.2: with 8 processors in 3-D, only 4×4×2, 8×8×1 and their
	// permutations are elementary.
	checkPatterns(t, 8, 3, [][]int{{2, 4, 4}, {1, 8, 8}})
	// With p = 5·3·2 = 30: 10×15×6, 15×30×2, 10×30×3, 5×30×6, 30×30×1.
	checkPatterns(t, 30, 3, [][]int{{6, 10, 15}, {2, 15, 30}, {3, 10, 30}, {5, 6, 30}, {1, 30, 30}})
}

// checkPatterns asserts the set of elementary partitionings of p over d,
// viewed as sorted multisets, is exactly wantSorted.
func checkPatterns(t *testing.T, p, d int, wantSorted [][]int) {
	t.Helper()
	got := map[string]bool{}
	for _, g := range Elementary(p, d) {
		got[Describe(numutil.SortedCopy(g))] = true
	}
	want := map[string]bool{}
	for _, w := range wantSorted {
		want[Describe(w)] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("elementary patterns for p=%d d=%d:\n got %v\nwant %v", p, d, got, want)
	}
}

func TestElementaryAllValidAndElementary(t *testing.T) {
	for p := 1; p <= 64; p++ {
		for d := 2; d <= 4; d++ {
			for _, g := range Elementary(p, d) {
				if !IsValid(p, g) {
					t.Fatalf("p=%d d=%d: enumerated partitioning %v is invalid", p, d, g)
				}
				if !IsElementary(p, g) {
					t.Fatalf("p=%d d=%d: enumerated partitioning %v fails IsElementary", p, d, g)
				}
			}
		}
	}
}

func TestElementaryMatchesBruteForceFilter(t *testing.T) {
	// The enumeration must produce exactly the divisor tuples that pass
	// IsElementary.
	for _, p := range []int{2, 4, 6, 8, 12, 16, 18, 24, 30, 36, 49, 50, 64} {
		for d := 2; d <= 3; d++ {
			want := map[string]bool{}
			divs := numutil.Divisors(p)
			gamma := make([]int, d)
			var rec func(i int)
			rec = func(i int) {
				if i == d {
					if IsElementary(p, gamma) {
						want[Describe(gamma)] = true
					}
					return
				}
				for _, g := range divs {
					gamma[i] = g
					rec(i + 1)
				}
			}
			rec(0)
			got := map[string]bool{}
			for _, g := range Elementary(p, d) {
				got[Describe(g)] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("p=%d d=%d: enumeration/filter mismatch:\n got %v\nwant %v", p, d, got, want)
			}
		}
	}
}

func TestCountElementary(t *testing.T) {
	if got := CountElementary(8, 3); got != 6 {
		t.Errorf("CountElementary(8, 3) = %d, want 6", got) // {4,4,2} and {8,8,1} × 3 perms
	}
	if got := CountElementary(30, 3); got != 27 {
		t.Errorf("CountElementary(30, 3) = %d, want 27", got) // 3 choices of excluded dim per prime
	}
	if got := CountElementary(1, 5); got != 1 {
		t.Errorf("CountElementary(1, 5) = %d, want 1", got)
	}
	if got := CountElementary(7, 1); got != 0 {
		t.Errorf("CountElementary(7, 1) = %d, want 0", got)
	}
	for p := 2; p <= 100; p++ {
		for d := 2; d <= 4; d++ {
			if got, want := CountElementary(p, d), len(Elementary(p, d)); got != want {
				t.Fatalf("CountElementary(%d, %d) = %d but enumeration yields %d", p, d, got, want)
			}
		}
	}
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, p := range []int{1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 20, 24, 25, 30, 36, 48, 49, 50, 64, 72, 81, 96, 100} {
		for d := 2; d <= 4; d++ {
			for trial := 0; trial < 4; trial++ {
				lambda := make([]float64, d)
				for i := range lambda {
					lambda[i] = 0.1 + 10*rng.Float64()
				}
				obj := Objective{Lambda: lambda}
				got, err := Optimal(p, d, obj)
				if err != nil {
					t.Fatalf("Optimal(%d, %d): %v", p, d, err)
				}
				want := BruteForceOptimal(p, d, obj)
				if !approxEq(got.Cost, want.Cost) {
					t.Errorf("p=%d d=%d λ=%v: Optimal cost %.6g (γ=%v) ≠ brute force %.6g (γ=%v)",
						p, d, lambda, got.Cost, got.Gamma, want.Cost, want.Gamma)
				}
				if !IsValid(p, got.Gamma) {
					t.Errorf("p=%d d=%d: Optimal returned invalid %v", p, d, got.Gamma)
				}
			}
		}
	}
}

func TestLemma1OptimaAreElementary(t *testing.T) {
	// The converse direction of restricting the search: for random positive
	// weights, the brute-force optimum over ALL valid divisor tuples is
	// always an elementary partitioning — exactly Lemma 1's claim.
	rng := rand.New(rand.NewSource(123))
	for _, p := range []int{2, 4, 6, 8, 12, 16, 18, 24, 30, 36, 48, 60} {
		for d := 2; d <= 3; d++ {
			for trial := 0; trial < 5; trial++ {
				lambda := make([]float64, d)
				for i := range lambda {
					lambda[i] = 0.05 + 8*rng.Float64()
				}
				best := BruteForceOptimal(p, d, Objective{Lambda: lambda})
				if !IsElementary(p, best.Gamma) {
					t.Errorf("p=%d d=%d λ=%v: brute-force optimum %v is not elementary (Lemma 1 violated?)",
						p, d, lambda, best.Gamma)
				}
			}
		}
	}
}

func TestOptimalUniform2DIsDiagonal(t *testing.T) {
	// In 2-D the optimal multipartitioning cuts both dimensions into p
	// pieces (Johnsson et al.; "in 2D this yields an optimal
	// multipartitioning").
	for p := 1; p <= 40; p++ {
		res, err := Optimal(p, 2, UniformObjective(2))
		if err != nil {
			t.Fatal(err)
		}
		if !numutil.EqualInts(res.Gamma, []int{p, p}) {
			t.Errorf("p=%d: optimal 2-D partitioning = %v, want [%d %d]", p, res.Gamma, p, p)
		}
	}
}

func TestOptimalPerfectSquare3DIsDiagonal(t *testing.T) {
	// For p a perfect square and a cubic domain, the optimal 3-D
	// partitioning is √p×√p×√p (diagonal multipartitioning).
	for _, p := range []int{4, 9, 16, 25, 36, 49, 64, 81} {
		res, err := Optimal(p, 3, UniformObjective(3))
		if err != nil {
			t.Fatal(err)
		}
		s := numutil.ISqrt(p)
		if !numutil.EqualInts(res.Gamma, []int{s, s, s}) {
			t.Errorf("p=%d: optimal = %v, want [%d %d %d]", p, res.Gamma, s, s, s)
		}
	}
}

func TestSkewedDomainRemark(t *testing.T) {
	// Section 3.1 remark: with p = 4 and η₁ = η₂ ≥ 4·η₃, cutting the first
	// two dimensions into 4 pieces each (γ = (4,4,1)) communicates less than
	// the classical 2×2×2 partitioning.
	eta := []int{500, 500, 100} // strictly more than 4× (exactly 4× ties)
	obj := VolumeObjective(eta)
	res, err := Optimal(4, 3, obj)
	if err != nil {
		t.Fatal(err)
	}
	if !numutil.EqualInts(res.Gamma, []int{4, 4, 1}) {
		t.Errorf("skewed domain: optimal = %v, want [4 4 1]", res.Gamma)
	}
	if c222 := obj.Cost([]int{2, 2, 2}); res.Cost >= c222 {
		t.Errorf("skewed domain: cost(4,4,1) = %g should beat cost(2,2,2) = %g", res.Cost, c222)
	}
	// On a cubic domain the classical partitioning wins instead.
	cubic := VolumeObjective([]int{100, 100, 100})
	res2, err := Optimal(4, 3, cubic)
	if err != nil {
		t.Fatal(err)
	}
	if !numutil.EqualInts(res2.Gamma, []int{2, 2, 2}) {
		t.Errorf("cubic domain: optimal = %v, want [2 2 2]", res2.Gamma)
	}
}

func TestOptimalPrimePowerMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, pp := range []struct{ alpha, r int }{{2, 1}, {2, 3}, {2, 6}, {3, 2}, {3, 4}, {5, 2}, {7, 3}} {
		p := numutil.Pow(pp.alpha, pp.r)
		for d := 2; d <= 5; d++ {
			for trial := 0; trial < 5; trial++ {
				lambda := make([]float64, d)
				for i := range lambda {
					lambda[i] = 0.1 + 5*rng.Float64()
				}
				obj := Objective{Lambda: lambda}
				greedy, err := OptimalPrimePower(pp.alpha, pp.r, d, obj)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := Optimal(p, d, obj)
				if err != nil {
					t.Fatal(err)
				}
				if !approxEq(greedy.Cost, exact.Cost) {
					t.Errorf("α=%d r=%d d=%d λ=%v: greedy cost %.6g (γ=%v) ≠ exhaustive %.6g (γ=%v)",
						pp.alpha, pp.r, d, lambda, greedy.Cost, greedy.Gamma, exact.Cost, exact.Gamma)
				}
				if !IsElementary(p, greedy.Gamma) {
					t.Errorf("α=%d r=%d d=%d: greedy result %v is not elementary", pp.alpha, pp.r, d, greedy.Gamma)
				}
			}
		}
	}
}

func TestOptimalCapped(t *testing.T) {
	// p = 45 on a 12³ domain: the unconstrained optimum 3×15×15 does not
	// fit; no elementary partitioning does.
	if _, err := OptimalCapped(45, 3, UniformObjective(3), []int{12, 12, 12}); err == nil {
		t.Error("p=45 on 12³ should have no feasible elementary partitioning")
	}
	// p = 8 capped at (4, 8, 8): 4×4×2 and permutations with γ₀ ≤ 4 remain.
	res, err := OptimalCapped(8, 3, UniformObjective(3), []int{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !numutil.EqualInts(numutil.SortedCopy(res.Gamma), []int{2, 4, 4}) || res.Gamma[0] > 4 {
		t.Errorf("capped optimum = %v", res.Gamma)
	}
	// Unconstrained caps reproduce Optimal.
	free, err := OptimalCapped(30, 3, UniformObjective(3), []int{1000, 1000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Optimal(30, 3, UniformObjective(3))
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(free.Cost, exact.Cost) {
		t.Errorf("capped %g vs exact %g", free.Cost, exact.Cost)
	}
	// Bad arguments.
	if _, err := OptimalCapped(4, 3, UniformObjective(3), []int{4, 4}); err == nil {
		t.Error("cap arity mismatch should fail")
	}
	if _, err := OptimalCapped(4, 1, UniformObjective(1), []int{4}); err == nil {
		t.Error("d=1 with p>1 should fail")
	}
}

func TestOptimalAllFindsAllOrientations(t *testing.T) {
	// Uniform weights on p=8, d=3: the optimum 4×4×2 has 3 orientations.
	res, err := OptimalAll(8, 3, UniformObjective(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d tied optima, want 3: %v", len(res), res)
	}
	for _, r := range res {
		if !numutil.EqualInts(numutil.SortedCopy(r.Gamma), []int{2, 4, 4}) {
			t.Errorf("unexpected optimum %v", r.Gamma)
		}
	}
	// Asymmetric weights break the tie.
	res2, err := OptimalAll(8, 3, Objective{Lambda: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != 1 {
		t.Fatalf("asymmetric weights should give a unique optimum, got %d", len(res2))
	}
	if !numutil.EqualInts(res2[0].Gamma, []int{4, 4, 2}) {
		t.Errorf("asymmetric optimum = %v, want [4 4 2] (cheap dims take more cuts)", res2[0].Gamma)
	}
	// Optimal keeps the lexicographically first tie, whatever its walk
	// visits first.
	all, err := OptimalAll(24, 3, UniformObjective(3))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Optimal(24, 3, UniformObjective(3))
	if err != nil {
		t.Fatal(err)
	}
	if Describe(all[0].Gamma) != "4×6×12" || Describe(one.Gamma) != "4×6×12" {
		t.Errorf("p=24: OptimalAll first %v, Optimal %v; want 4×6×12 for both", all[0].Gamma, one.Gamma)
	}
}

func TestOptimalErrors(t *testing.T) {
	if _, err := Optimal(4, 1, UniformObjective(1)); err == nil {
		t.Error("Optimal(4, 1) should fail: no 1-D multipartitioning for p > 1")
	}
	if _, err := Optimal(0, 3, UniformObjective(3)); err == nil {
		t.Error("Optimal(0, 3) should fail")
	}
	if _, err := Optimal(4, 3, Objective{Lambda: []float64{1, -1, 1}}); err == nil {
		t.Error("negative λ should fail")
	}
	if _, err := Optimal(4, 3, UniformObjective(2)); err == nil {
		t.Error("objective/dimension mismatch should fail")
	}
}

func TestOptimalP1(t *testing.T) {
	res, err := Optimal(1, 3, UniformObjective(3))
	if err != nil {
		t.Fatal(err)
	}
	if !numutil.EqualInts(res.Gamma, []int{1, 1, 1}) {
		t.Errorf("Optimal(1, 3) = %v, want [1 1 1]", res.Gamma)
	}
}

func TestValidityIsPermutationInvariant(t *testing.T) {
	f := func(a, b, c uint8, pp uint8) bool {
		gamma := []int{int(a%12) + 1, int(b%12) + 1, int(c%12) + 1}
		p := int(pp%30) + 1
		v := IsValid(p, gamma)
		ok := true
		numutil.Permutations(3, func(perm []int) {
			g := []int{gamma[perm[0]], gamma[perm[1]], gamma[perm[2]]}
			if IsValid(p, g) != v {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTilesPerProcessor(t *testing.T) {
	if got := TilesPerProcessor(16, []int{4, 4, 4}); got != 4 {
		t.Errorf("tiles per proc for Figure 1 = %d, want 4", got)
	}
	if got := TilesPerProcessor(8, []int{4, 4, 2}); got != 4 {
		t.Errorf("tiles per proc for 4×4×2 on 8 = %d, want 4", got)
	}
	if got := TilesPerProcessor(50, []int{5, 10, 10}); got != 10 {
		t.Errorf("tiles per proc for 5×10×10 on 50 = %d, want 10", got)
	}
}

func TestDescribe(t *testing.T) {
	if got := Describe([]int{4, 4, 2}); got != "4×4×2" {
		t.Errorf("Describe = %q", got)
	}
}

func TestEnumerationCountsGrowth(t *testing.T) {
	// Sanity on the complexity claim: the number of elementary partitionings
	// stays modest (polynomial-ish in log p) even at p = 1000, and grows
	// with d.
	c3 := CountElementary(1000, 3) // 1000 = 2³·5³
	c4 := CountElementary(1000, 4)
	c5 := CountElementary(1000, 5)
	if c3 <= 0 || c4 < c3 || c5 < c4 {
		t.Errorf("counts should grow with d: d=3:%d d=4:%d d=5:%d", c3, c4, c5)
	}
	if c5 > 100000 {
		t.Errorf("enumeration for p=1000, d=5 unexpectedly large: %d", c5)
	}
	// Highly composite p has more elementary partitionings than a prime
	// power of similar size.
	if CountElementary(720, 3) <= CountElementary(729, 3) {
		t.Errorf("720 (2⁴3²5) should have more elementary partitionings than 729 (3⁶): %d vs %d",
			CountElementary(720, 3), CountElementary(729, 3))
	}
}

func TestMachineObjective(t *testing.T) {
	// λᵢ = K₂ + K₃·η/ηᵢ with η = 1000·500·100.
	eta := []int{1000, 500, 100}
	obj := MachineObjective(eta, 2e-5, 1e-8)
	etaTotal := 1000.0 * 500 * 100
	for i, e := range eta {
		want := 2e-5 + 1e-8*etaTotal/float64(e)
		if d := obj.Lambda[i] - want; d > 1e-15 || d < -1e-15 {
			t.Errorf("λ[%d] = %g, want %g", i, obj.Lambda[i], want)
		}
	}
	// Shorter dimensions carry bigger per-phase surfaces, so higher λ.
	if !(obj.Lambda[2] > obj.Lambda[1] && obj.Lambda[1] > obj.Lambda[0]) {
		t.Errorf("λ not decreasing with extent: %v", obj.Lambda)
	}
}

func TestEachDistributionArgumentPanics(t *testing.T) {
	for _, c := range []struct{ r, d int }{{0, 3}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EachDistribution(%d, %d) should panic", c.r, c.d)
				}
			}()
			EachDistribution(c.r, c.d, func([]int) bool { return true })
		}()
	}
}

func TestObjectiveCostPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cost with mismatched dims should panic")
		}
	}()
	UniformObjective(2).Cost([]int{1, 2, 3})
}

// approxEq compares float costs up to accumulation-order rounding.
func approxEq(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	return diff <= 1e-9*scale
}

func sortSlices(s [][]int) {
	sort.Slice(s, func(a, b int) bool {
		for i := range s[a] {
			if s[a][i] != s[b][i] {
				return s[a][i] < s[b][i]
			}
		}
		return false
	})
}

func TestSearchStatsOptimal(t *testing.T) {
	for _, p := range []int{16, 33, 64, 105, 1024} {
		var st SearchStats
		res, err := OptimalStats(p, 3, UniformObjective(3), &st)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		plain, err := Optimal(p, 3, UniformObjective(3))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, plain) {
			t.Errorf("p=%d: stats variant result %+v differs from plain %+v", p, res, plain)
		}
		if st.BruteForceLeaves != CountElementary(p, 3) {
			t.Errorf("p=%d: BruteForceLeaves %d != CountElementary %d", p, st.BruteForceLeaves, CountElementary(p, 3))
		}
		if st.LeavesEvaluated < 1 || st.LeavesEvaluated > st.BruteForceLeaves {
			t.Errorf("p=%d: LeavesEvaluated %d out of [1, %d]", p, st.LeavesEvaluated, st.BruteForceLeaves)
		}
		if st.NodesVisited < st.LeavesEvaluated {
			t.Errorf("p=%d: NodesVisited %d < LeavesEvaluated %d", p, st.NodesVisited, st.LeavesEvaluated)
		}
		if st.Factors != len(numutil.Factorize(p)) {
			t.Errorf("p=%d: Factors %d", p, st.Factors)
		}
		if r := st.PruneRatio(); r < 0 || r >= 1 {
			t.Errorf("p=%d: PruneRatio %g out of [0,1)", p, r)
		}
		if st.String() == "" {
			t.Error("empty String()")
		}
	}
	// Multi-factor p with skewed weights: the bound must actually prune.
	var st SearchStats
	if _, err := OptimalStats(3600, 3, Objective{Lambda: []float64{1, 50, 2500}}, &st); err != nil {
		t.Fatal(err)
	}
	if st.PrunedBound == 0 {
		t.Errorf("expected branch-and-bound pruning at p=3600: %+v", st)
	}
	if st.LeavesEvaluated >= st.BruteForceLeaves {
		t.Errorf("pruned search evaluated the whole space: %+v", st)
	}
	// Every counter is exact and the same on every host, also on the 4 104
	// leaves of p = 840, d = 4.
	var st4 SearchStats
	res, err := OptimalStats(840, 4, UniformObjective(4), &st4)
	if err != nil {
		t.Fatal(err)
	}
	want := SearchStats{Factors: 4, Distributions: 37, NodesVisited: 303, LeavesEvaluated: 14, PrunedBound: 1445, BruteForceLeaves: 4104}
	if Describe(res.Gamma) != "14×14×30×30" || st4 != want {
		t.Errorf("p=840 d=4: γ %s with %+v, want 14×14×30×30 with %+v", Describe(res.Gamma), st4, want)
	}
}

func TestSearchStatsCapped(t *testing.T) {
	// For p = 64 the elementary space is {8×8×8, 16×16×4, 32×32×2, 64×64×1}
	// and orientations; caps of 8 exclude everything but 8×8×8, so the cap
	// pruning must fire on every other candidate.
	var st SearchStats
	res, err := OptimalCappedStats(64, 3, UniformObjective(3), []int{8, 8, 8}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if Describe(res.Gamma) != "8×8×8" {
		t.Errorf("capped optimum %v", res.Gamma)
	}
	// 64 = 2⁶ is one factor: the root and its 10 distributions, of which
	// the caps cut the 9 other than (3, 3, 3).
	if want := (SearchStats{Factors: 1, Distributions: 10, NodesVisited: 2, LeavesEvaluated: 1, PrunedCap: 9, BruteForceLeaves: 10}); st != want {
		t.Errorf("p=64 caps 8: %+v, want %+v", st, want)
	}
	plain, err := OptimalCapped(64, 3, UniformObjective(3), []int{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("stats variant %+v differs from plain %+v", res, plain)
	}

	// The caps cut a subtree as soon as a partial γᵢ passes its cap: class B
	// at p = 360 (Table 1's objective) walked 103 nodes when the caps were
	// applied only at the leaves, and p = 720 720, d = 4 walked all 435 429
	// nodes to find that nothing fits.
	eta := []int{102, 102, 102}
	st = SearchStats{}
	res, err = OptimalCappedStats(360, 3, MachineObjective(eta, 20e-6, 80e-9/360), eta, &st)
	if err != nil {
		t.Fatal(err)
	}
	if Describe(res.Gamma) != "12×30×60" || st.NodesVisited >= 103 || st.PrunedCap == 0 {
		t.Errorf("p=360 class B: γ %s with %+v, want 12×30×60 in fewer than 103 nodes", Describe(res.Gamma), st)
	}
	st = SearchStats{}
	if _, err := OptimalCappedStats(720720, 4, UniformObjective(4), []int{102, 102, 102, 102}, &st); err == nil {
		t.Error("p=720720 d=4 caps 102: no elementary partitioning fits, want an error")
	}
	if st.NodesVisited >= 1000 || st.LeavesEvaluated != 0 {
		t.Errorf("p=720720 d=4 caps 102: %+v, want fewer than 1000 nodes and no leaf", st)
	}
}

// leafScan is the capped search as a plain scan, the reference for the
// walk: stream every elementary partitioning, skip those past a cap (nil
// caps skip none) and keep the best under betterResult.
func leafScan(p, d int, obj Objective, caps []int) (Result, bool) {
	var best Result
	EachElementary(p, d, func(gamma []int) bool {
		for i, g := range gamma {
			if caps != nil && g > caps[i] {
				return true
			}
		}
		if c := obj.Cost(gamma); betterResult(c, gamma, best) {
			best = Result{Gamma: numutil.CopyInts(gamma), Cost: c}
		}
		return true
	})
	return best, best.Gamma != nil
}

// Every entry point keeps one tie rule, the lexicographically smallest γ
// within a relative 1e-12 of the minimum: Optimal, OptimalCapped under caps
// that bind nothing and the first of OptimalAll agree, and the walk returns
// the leaf scan's γ, or fails where the scan finds nothing, under binding
// caps too.
func TestOneTieRule(t *testing.T) {
	weights := [][]float64{{1, 1, 1, 1}, {1, 2, 3, 4}, {3, 1, 1, 3}, {2, 5, 2, 5}}
	for d := 2; d <= 4; d++ {
		for _, w := range weights {
			obj := Objective{Lambda: w[:d]}
			for p := 1; p <= 1000; p++ {
				one, err := Optimal(p, d, obj)
				if err != nil {
					t.Fatalf("Optimal(%d, %d, %v): %v", p, d, obj.Lambda, err)
				}
				free, err := OptimalCapped(p, d, obj, []int{p, p, p, p}[:d])
				if err != nil {
					t.Fatalf("OptimalCapped(%d, %d, %v, p): %v", p, d, obj.Lambda, err)
				}
				all, err := OptimalAll(p, d, obj)
				if err != nil {
					t.Fatal(err)
				}
				if !numutil.EqualInts(one.Gamma, free.Gamma) || !numutil.EqualInts(one.Gamma, all[0].Gamma) {
					t.Errorf("p=%d d=%d λ=%v: Optimal %v, OptimalCapped %v, OptimalAll[0] %v",
						p, d, obj.Lambda, one.Gamma, free.Gamma, all[0].Gamma)
				}
				for _, c := range []int{0, 102, 30} {
					var caps []int
					if c > 0 {
						caps = []int{c, c, c, c}[:d]
					}
					checkAgainstScan(t, p, d, obj, caps)
				}
			}
		}
	}
	// Table 1's objective, capped at the extents of cubes of six sizes.
	for _, n := range []int{12, 24, 36, 64, 102, 162} {
		eta := []int{n, n, n}
		for p := 1; p <= 400; p++ {
			checkAgainstScan(t, p, 3, MachineObjective(eta, 20e-6, 80e-9/float64(p)), eta)
		}
	}
}

func checkAgainstScan(t *testing.T, p, d int, obj Objective, caps []int) {
	t.Helper()
	want, ok := leafScan(p, d, obj, caps)
	got, err := OptimalCapped(p, d, obj, caps)
	switch {
	case !ok && err == nil:
		t.Errorf("p=%d d=%d λ=%v caps %v: walk returned %v, scan found nothing", p, d, obj.Lambda, caps, got.Gamma)
	case ok && err != nil:
		t.Errorf("p=%d d=%d λ=%v caps %v: walk failed (%v), scan found %v", p, d, obj.Lambda, caps, err, want.Gamma)
	case ok && (!numutil.EqualInts(got.Gamma, want.Gamma) || got.Cost != want.Cost):
		t.Errorf("p=%d d=%d λ=%v caps %v: walk %v (%g), scan %v (%g)", p, d, obj.Lambda, caps, got.Gamma, got.Cost, want.Gamma, want.Cost)
	}
}
