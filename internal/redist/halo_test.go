package redist

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"genmp/internal/core"
)

// TestCompileHaloGoldenP81 pins the class B halo schedule of the diagonal
// p=81 multipartitioning (γ 9×9×9, 102³, depth 2) byte for byte: the
// SHA-256 of its Fingerprint — every step, Exch and Move with its region,
// bytes and tile coordinates — was recorded before the compiler switched
// to shared arena-cut geometry.
func TestCompileHaloGoldenP81(t *testing.T) {
	const want = "759fcf16c5e9daea2fd0c3085270bafea2f0347eca09abf77d8a3cbe4198deac"
	m, err := core.NewDiagonal(81, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := CompileHalo(HaloSpec{M: m, Eta: []int{102, 102, 102}, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(pl.Fingerprint()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("p=81 halo plan SHA-256 = %s, want %s", got, want)
	}
}

// haloCost returns the mean allocations and bytes of one CompileHalo call.
func haloCost(t *testing.T, spec HaloSpec) (allocs, bytes float64) {
	t.Helper()
	compile := func() {
		if _, err := CompileHalo(spec); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	allocs = testing.AllocsPerRun(10, compile)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestCompileHaloAllocs bounds the cost of compiling a halo schedule. Every
// strict SP run on the real-parallel backend compiles one per rank (the
// p=2 case is class A on γ 1×2×2), and every model-only class B run
// compiles one (the p=81 case).
func TestCompileHaloAllocs(t *testing.T) {
	m2, err := core.NewGeneralized(2, []int{1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m81, err := core.NewDiagonal(81, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Before the arena, p=2 cost 138 allocations and 6656 bytes and p=81
	// cost 44 750 allocations (about 8 per tile face); now each step costs
	// a fixed handful, independent of the tile count.
	const (
		maxAllocs2, maxBytes2 = 48, 6656
		maxAllocs81           = 64
	)
	a2, b2 := haloCost(t, HaloSpec{M: m2, Eta: []int{64, 64, 64}, Depth: 2})
	a81, b81 := haloCost(t, HaloSpec{M: m81, Eta: []int{102, 102, 102}, Depth: 2})
	t.Logf("p=2: %.0f allocs, %.0f B; p=81: %.0f allocs, %.0f B", a2, b2, a81, b81)
	if a2 > maxAllocs2 || b2 > maxBytes2 {
		t.Errorf("p=2 compile: %.0f allocs, %.0f B; want ≤ %d allocs, ≤ %d B", a2, b2, maxAllocs2, maxBytes2)
	}
	if a81 > maxAllocs81 {
		t.Errorf("p=81 compile: %.0f allocs, want ≤ %d", a81, maxAllocs81)
	}
}
