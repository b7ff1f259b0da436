package nas

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/dist"
	"genmp/internal/partition"
)

// Golden regression checks: the serial solvers are the correctness anchors
// for every distributed run, so pin their output. Any intentional change to
// the synthetic physics must update these values (and re-validates all the
// distributed-vs-serial tests automatically).

func TestGoldenSPClassS(t *testing.T) {
	u := InitialState(ClassS.Eta)
	SerialSolve(u, ClassS.Steps)
	const want = 9.271679978744601e+01
	if got := u.Norm2(); math.Abs(got-want) > 1e-9 {
		t.Errorf("SP class S checksum after %d steps = %.15e, want %.15e", ClassS.Steps, got, want)
	}
}

func TestGoldenBT(t *testing.T) {
	v := InitialState([]int{10, 10, 10})
	BTSerialSolve(v, 3)
	const want = 7.113615184981960e+01
	if got := v.Norm2(); math.Abs(got-want) > 1e-9 {
		t.Errorf("BT 10³ checksum after 3 steps = %.15e, want %.15e", got, want)
	}
}

// TestGoldenPlanP360 pins the class B schedule at p=360 (γ 12×30×60, 21 600
// tiles, 73 440 phases) by the SHA-256 of its Fingerprint, which renders
// every tile's coordinate and region. A compiler that shares or reorders
// tile geometry must leave every byte of the schedule where it was.
func TestGoldenPlanP360(t *testing.T) {
	const (
		p    = 360
		want = "879b03a1a217f3593d44499e9cff558473996ad6cb306bbb34e3eb7d1709033a"
	)
	eta := ClassB.Eta
	res, err := cost.Origin2000().BestPartitioning(p, eta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := partition.Describe(res.Gamma); got != "12×30×60" {
		t.Fatalf("class B at p=%d searched γ = %s, want 12×30×60", p, got)
	}
	m, err := core.NewGeneralized(p, res.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dist.NewEnv(m, eta, dist.DHPF())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := CompilePlan(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(pl.Fingerprint()))); got != want {
		t.Errorf("p=%d fingerprint SHA-256 = %s, want %s", p, got, want)
	}
}
