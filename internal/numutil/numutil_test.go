package numutil

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestGCDBasics(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {1, 1, 1},
		{12, 18, 6}, {18, 12, 6}, {-12, 18, 6}, {12, -18, 6}, {-12, -18, 6},
		{7, 13, 1}, {100, 10, 10}, {270, 192, 6},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDProperties(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := int(a), int(b)
		g := GCD(x, y)
		if g < 0 {
			return false
		}
		if g == 0 {
			return x == 0 && y == 0
		}
		return x%g == 0 && y%g == 0 && GCD(x/g, y/g) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 5, 0}, {4, 6, 12}, {7, 13, 91}, {10, 10, 10},
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b); got != c.want {
			t.Errorf("LCM(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGCDAll(t *testing.T) {
	if got := GCDAll(); got != 0 {
		t.Errorf("GCDAll() = %d, want 0", got)
	}
	if got := GCDAll(12, 18, 30); got != 6 {
		t.Errorf("GCDAll(12,18,30) = %d, want 6", got)
	}
}

func TestEMod(t *testing.T) {
	cases := []struct{ a, m, want int }{
		{7, 3, 1}, {-7, 3, 2}, {-1, 4, 3}, {0, 5, 0}, {-12, 4, 0}, {9, 9, 0},
	}
	for _, c := range cases {
		if got := EMod(c.a, c.m); got != c.want {
			t.Errorf("EMod(%d, %d) = %d, want %d", c.a, c.m, got, c.want)
		}
	}
}

func TestEModPanicsOnNonPositiveModulus(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EMod(1, 0) should panic")
		}
	}()
	EMod(1, 0)
}

func TestFactorize(t *testing.T) {
	cases := []struct {
		n    int
		want []Factor
	}{
		{1, nil},
		{2, []Factor{{2, 1}}},
		{8, []Factor{{2, 3}}},
		{30, []Factor{{2, 1}, {3, 1}, {5, 1}}},
		{360, []Factor{{2, 3}, {3, 2}, {5, 1}}},
		{97, []Factor{{97, 1}}},
		{1024, []Factor{{2, 10}}},
	}
	for _, c := range cases {
		got := Factorize(c.n)
		if len(got) != len(c.want) {
			t.Errorf("Factorize(%d) = %v, want %v", c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Factorize(%d)[%d] = %v, want %v", c.n, i, got[i], c.want[i])
			}
		}
	}
}

func TestFactorizeRoundTrip(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		prod := 1
		prev := 1
		for _, f := range Factorize(n) {
			if f.Prime <= prev {
				t.Fatalf("Factorize(%d): primes not strictly increasing: %v", n, Factorize(n))
			}
			prev = f.Prime
			prod *= Pow(f.Prime, f.Exp)
		}
		if prod != n {
			t.Fatalf("Factorize(%d) product = %d", n, prod)
		}
	}
}

func TestDivisors(t *testing.T) {
	got := Divisors(12)
	want := []int{1, 2, 3, 4, 6, 12}
	if !EqualInts(got, want) {
		t.Errorf("Divisors(12) = %v, want %v", got, want)
	}
	if !EqualInts(Divisors(1), []int{1}) {
		t.Errorf("Divisors(1) = %v, want [1]", Divisors(1))
	}
	if !EqualInts(Divisors(49), []int{1, 7, 49}) {
		t.Errorf("Divisors(49) = %v", Divisors(49))
	}
}

func TestDivisorsComplete(t *testing.T) {
	for n := 1; n <= 500; n++ {
		divs := Divisors(n)
		if !sort.IntsAreSorted(divs) {
			t.Fatalf("Divisors(%d) not sorted: %v", n, divs)
		}
		set := map[int]bool{}
		for _, d := range divs {
			if n%d != 0 {
				t.Fatalf("Divisors(%d) contains non-divisor %d", n, d)
			}
			set[d] = true
		}
		for d := 1; d <= n; d++ {
			if n%d == 0 && !set[d] {
				t.Fatalf("Divisors(%d) missing %d", n, d)
			}
		}
	}
}

func TestPow(t *testing.T) {
	cases := []struct{ b, e, want int }{
		{2, 0, 1}, {2, 10, 1024}, {3, 4, 81}, {10, 3, 1000}, {1, 100, 1}, {0, 0, 1}, {0, 3, 0},
	}
	for _, c := range cases {
		if got := Pow(c.b, c.e); got != c.want {
			t.Errorf("Pow(%d, %d) = %d, want %d", c.b, c.e, got, c.want)
		}
	}
}

func TestProdSum(t *testing.T) {
	if Prod() != 1 || Prod(2, 3, 4) != 24 {
		t.Error("Prod wrong")
	}
	if Sum() != 0 || Sum(1, 2, 3) != 6 {
		t.Error("Sum wrong")
	}
	if ProdExcept([]int{2, 3, 4}, 1) != 8 {
		t.Error("ProdExcept wrong")
	}
}

func TestCheckedProd(t *testing.T) {
	cases := []struct {
		xs   []int
		want int
		ok   bool
	}{
		{nil, 1, true},
		{[]int{2, 3, 4}, 24, true},
		{[]int{math.MaxInt, 1}, math.MaxInt, true},
		{[]int{1 << 31, 1 << 31}, 1 << 62, true},
		{[]int{4000000000, 4000000000, 4000000000}, 0, false},
		{[]int{1 << 32, 1 << 31}, 0, false},
		{[]int{3, 0}, 0, false},
		{[]int{-2, 5}, 0, false},
	}
	for _, c := range cases {
		got, ok := CheckedProd(c.xs...)
		if got != c.want || ok != c.ok {
			t.Errorf("CheckedProd(%v) = %d, %v; want %d, %v", c.xs, got, ok, c.want, c.ok)
		}
	}
}

func TestMinMax(t *testing.T) {
	if MaxInt(3, 1, 4, 1, 5) != 5 {
		t.Error("MaxInt wrong")
	}
	if MinInt(3, 1, 4, 1, 5) != 1 {
		t.Error("MinInt wrong")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{{0, 3, 0}, {1, 3, 1}, {3, 3, 1}, {4, 3, 2}, {9, 3, 3}}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestISqrtAndPerfectSquare(t *testing.T) {
	for n := 0; n <= 10000; n++ {
		r := ISqrt(n)
		if r*r > n || (r+1)*(r+1) <= n {
			t.Fatalf("ISqrt(%d) = %d", n, r)
		}
		want := math.Sqrt(float64(n)) == math.Trunc(math.Sqrt(float64(n)))
		if IsPerfectSquare(n) != want {
			t.Fatalf("IsPerfectSquare(%d) = %v", n, IsPerfectSquare(n))
		}
	}
	if IsPerfectSquare(-4) {
		t.Error("IsPerfectSquare(-4) should be false")
	}
}

func TestIntRoot(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for n := 0; n <= 3000; n++ {
			r := IntRoot(n, k)
			if Pow(r, k) > n {
				t.Fatalf("IntRoot(%d, %d) = %d too large", n, k, r)
			}
			if Pow(r+1, k) <= n {
				t.Fatalf("IntRoot(%d, %d) = %d too small", n, k, r)
			}
		}
	}
	if !IsPerfectPower(64, 2) || !IsPerfectPower(64, 3) || !IsPerfectPower(64, 6) {
		t.Error("64 should be a perfect square, cube and 6th power")
	}
	if IsPerfectPower(63, 2) || IsPerfectPower(50, 3) {
		t.Error("63/50 misclassified as perfect powers")
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	shapes := [][]int{{4}, {3, 5}, {2, 3, 4}, {5, 1, 2, 3}}
	for _, shape := range shapes {
		n := Prod(shape...)
		coord := make([]int, len(shape))
		for r := 0; r < n; r++ {
			CoordOf(r, shape, coord)
			if RankOf(coord, shape) != r {
				t.Fatalf("round trip failed for shape %v rank %d (coord %v)", shape, r, coord)
			}
		}
	}
}

func TestRankRowMajorOrder(t *testing.T) {
	// Last coordinate varies fastest.
	shape := []int{2, 3}
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	i := 0
	EachCoord(shape, func(c []int) {
		if !EqualInts(c, want[i]) {
			t.Fatalf("EachCoord[%d] = %v, want %v", i, c, want[i])
		}
		i++
	})
	if i != 6 {
		t.Fatalf("EachCoord visited %d coords, want 6", i)
	}
}

func TestPermutations(t *testing.T) {
	count := 0
	seen := map[string]bool{}
	Permutations(4, func(p []int) {
		count++
		key := ""
		for _, v := range p {
			key += string(rune('0' + v))
		}
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
	})
	if count != 24 {
		t.Fatalf("Permutations(4) produced %d perms, want 24", count)
	}
}

func TestGrayCode(t *testing.T) {
	for i := 0; i < 1024; i++ {
		g := GrayCode(i)
		if GrayRank(g) != i {
			t.Fatalf("GrayRank(GrayCode(%d)) = %d", i, GrayRank(g))
		}
		if i > 0 {
			diff := g ^ GrayCode(i-1)
			if PopCount(diff) != 1 {
				t.Fatalf("consecutive Gray codes %d,%d differ in %d bits", i-1, i, PopCount(diff))
			}
		}
	}
}

func TestCopyEqualSorted(t *testing.T) {
	a := []int{3, 1, 2}
	b := CopyInts(a)
	b[0] = 9
	if a[0] != 3 {
		t.Error("CopyInts did not copy")
	}
	if !EqualInts([]int{1, 2}, []int{1, 2}) || EqualInts([]int{1}, []int{1, 2}) || EqualInts([]int{1, 2}, []int{2, 1}) {
		t.Error("EqualInts wrong")
	}
	if !EqualInts(SortedCopy(a), []int{1, 2, 3}) {
		t.Error("SortedCopy wrong")
	}
}

func TestEModRandomAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := rng.Intn(2001) - 1000
		m := rng.Intn(50) + 1
		r := EMod(a, m)
		if r < 0 || r >= m || (a-r)%m != 0 {
			t.Fatalf("EMod(%d, %d) = %d violates definition", a, m, r)
		}
	}
}
