// Package numutil provides small integer-arithmetic helpers shared by the
// partitioning and mapping algorithms: gcd/lcm, Euclidean remainders, prime
// factorization, divisor enumeration and mixed-radix index codecs.
//
// Everything here operates on int; the quantities involved (processor counts,
// tile counts, matrix coefficients) comfortably fit in 64-bit integers for
// every realistic input (p up to millions, d up to ~8).
package numutil

import (
	"fmt"
	"sort"
)

// GCD returns the non-negative greatest common divisor of a and b.
// GCD(0, 0) == 0 by convention.
func GCD(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or 0 if either is 0.
func LCM(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	return a / g * b
}

// GCDAll folds GCD over xs. GCDAll() == 0.
func GCDAll(xs ...int) int {
	g := 0
	for _, x := range xs {
		g = GCD(g, x)
	}
	return g
}

// EMod returns the Euclidean remainder of a modulo m: the unique value in
// [0, m) congruent to a. m must be positive.
func EMod(a, m int) int {
	if m <= 0 {
		badModulus(m)
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// badModulus panics for EMod; kept out of line so EMod itself inlines.
//
//go:noinline
func badModulus(m int) { panic(fmt.Sprintf("numutil: EMod modulus %d must be positive", m)) }

// Factor is one prime factor of an integer together with its multiplicity.
type Factor struct {
	Prime int // the prime α
	Exp   int // its multiplicity r (≥ 1)
}

// Factorize returns the prime factorization of n (n ≥ 1) with primes in
// increasing order. Factorize(1) returns an empty slice.
func Factorize(n int) []Factor {
	if n < 1 {
		panic(fmt.Sprintf("numutil: Factorize(%d): argument must be ≥ 1", n))
	}
	var fs []Factor
	for p := 2; p*p <= n; p++ {
		if n%p != 0 {
			continue
		}
		e := 0
		for n%p == 0 {
			n /= p
			e++
		}
		fs = append(fs, Factor{Prime: p, Exp: e})
	}
	if n > 1 {
		fs = append(fs, Factor{Prime: n, Exp: 1})
	}
	return fs
}

// Divisors returns all positive divisors of n (n ≥ 1) in increasing order.
func Divisors(n int) []int {
	if n < 1 {
		panic(fmt.Sprintf("numutil: Divisors(%d): argument must be ≥ 1", n))
	}
	divs := []int{1}
	for _, f := range Factorize(n) {
		cur := len(divs)
		pk := 1
		for e := 1; e <= f.Exp; e++ {
			pk *= f.Prime
			for i := 0; i < cur; i++ {
				divs = append(divs, divs[i]*pk)
			}
		}
	}
	sort.Ints(divs)
	return divs
}

// Pow returns base**exp for exp ≥ 0 using binary exponentiation.
func Pow(base, exp int) int {
	if exp < 0 {
		panic(fmt.Sprintf("numutil: Pow exponent %d must be ≥ 0", exp))
	}
	result := 1
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

// Prod returns the product of xs. Prod() == 1.
func Prod(xs ...int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// ProdExcept returns the product of all xs except xs[i].
func ProdExcept(xs []int, i int) int {
	p := 1
	for j, x := range xs {
		if j != i {
			p *= x
		}
	}
	return p
}

// Sum returns the sum of xs.
func Sum(xs ...int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// MaxInt returns the maximum of xs; it panics on an empty argument list.
func MaxInt(xs ...int) int {
	if len(xs) == 0 {
		panic("numutil: MaxInt of no values")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MinInt returns the minimum of xs; it panics on an empty argument list.
func MinInt(xs ...int) int {
	if len(xs) == 0 {
		panic("numutil: MinInt of no values")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// CeilDiv returns ⌈a/b⌉ for positive b and non-negative a.
func CeilDiv(a, b int) int {
	if b <= 0 || a < 0 {
		panic(fmt.Sprintf("numutil: CeilDiv(%d, %d): need a ≥ 0, b > 0", a, b))
	}
	return (a + b - 1) / b
}

// IsPerfectSquare reports whether n is a perfect square (n ≥ 0).
func IsPerfectSquare(n int) bool {
	if n < 0 {
		return false
	}
	r := ISqrt(n)
	return r*r == n
}

// ISqrt returns ⌊√n⌋ for n ≥ 0.
func ISqrt(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("numutil: ISqrt(%d): argument must be ≥ 0", n))
	}
	if n < 2 {
		return n
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// IntRoot returns the largest r with r**k ≤ n, for n ≥ 0 and k ≥ 1.
func IntRoot(n, k int) int {
	if n < 0 || k < 1 {
		panic(fmt.Sprintf("numutil: IntRoot(%d, %d): need n ≥ 0, k ≥ 1", n, k))
	}
	if n < 2 || k == 1 {
		return n
	}
	lo, hi := 1, 1
	for Pow(hi+1, k) <= n {
		hi = hi*2 + 1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if Pow(mid, k) <= n {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// IsPerfectPower reports whether n == r**k for some integer r (n ≥ 1, k ≥ 1).
func IsPerfectPower(n, k int) bool {
	if n < 1 {
		return false
	}
	r := IntRoot(n, k)
	return Pow(r, k) == n
}

// Mixed-radix codecs. A shape (s₀, …, s_{n−1}) defines coordinates
// 0 ≤ cᵢ < sᵢ; Rank linearizes with the LAST coordinate varying fastest
// (row-major), matching the layout used by grid storage.

// RankOf returns the row-major linear index of coord within shape.
func RankOf(coord, shape []int) int {
	if len(coord) != len(shape) {
		panic("numutil: RankOf: coordinate/shape rank mismatch")
	}
	r := 0
	for i, c := range coord {
		if c < 0 || c >= shape[i] {
			panic(fmt.Sprintf("numutil: RankOf: coordinate %d out of range [0,%d)", c, shape[i]))
		}
		r = r*shape[i] + c
	}
	return r
}

// CoordOf writes the row-major coordinates of linear index r within shape
// into dst (which must have len(shape)) and returns dst.
func CoordOf(r int, shape, dst []int) []int {
	if len(dst) != len(shape) {
		panic("numutil: CoordOf: dst/shape rank mismatch")
	}
	for i := len(shape) - 1; i >= 0; i-- {
		dst[i] = r % shape[i]
		r /= shape[i]
	}
	if r != 0 {
		panic("numutil: CoordOf: index out of range for shape")
	}
	return dst
}

// EachCoord calls f once for every coordinate of shape in row-major order.
// The slice passed to f is reused between calls; f must copy it to retain it.
func EachCoord(shape []int, f func(coord []int)) {
	n := Prod(shape...)
	coord := make([]int, len(shape))
	for r := 0; r < n; r++ {
		CoordOf(r, shape, coord)
		f(coord)
	}
}

// CopyInts returns a copy of xs.
func CopyInts(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	return out
}

// EqualInts reports whether a and b hold the same values.
func EqualInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortedCopy returns a sorted copy of xs (ascending).
func SortedCopy(xs []int) []int {
	out := CopyInts(xs)
	sort.Ints(out)
	return out
}

// Permutations calls f with every permutation of [0, n). The slice passed to
// f is reused; f must copy it to retain it. n must be small (it is used for
// dimension counts, n ≤ 8 in practice).
func Permutations(n int, f func(perm []int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(perm)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
}

// GrayCode returns the i-th value of the binary reflected Gray code.
func GrayCode(i int) int {
	return i ^ (i >> 1)
}

// GrayRank is the inverse of GrayCode: given g = GrayCode(i), it returns i.
func GrayRank(g int) int {
	i := 0
	for g != 0 {
		i ^= g
		g >>= 1
	}
	return i
}

// PopCount returns the number of set bits in x (x ≥ 0).
func PopCount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
