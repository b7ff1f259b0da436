// nassp runs the SP-style CFD kernel (class S) distributed over a
// generalized multipartitioning with real data, validates it against the
// serial reference, and then reproduces a slice of Table 1 in model-only
// mode.
package main

import (
	"fmt"
	"log"

	"genmp/internal/core"
	"genmp/internal/dist"
	"genmp/internal/grid"
	"genmp/internal/nas"
)

func main() {
	log.SetFlags(0)

	// --- correctness: class S with real data on 6 processors -----------
	class := nas.ClassS
	const p = 6
	m, err := core.NewGeneralized(p, []int{6, 6, 1})
	if err != nil {
		log.Fatal(err)
	}
	env, err := dist.NewEnv(m, class.Eta, dist.DHPF())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("NAS SP class %s (%v), %d steps, %s\n", class.Name, class.Eta, class.Steps, m.Name())

	want := nas.InitialState(class.Eta)
	nas.SerialSolve(want, class.Steps)

	u := nas.InitialState(class.Eta)
	res, err := nas.Run(env, nas.Origin2000Machine(p), class.Steps, u)
	if err != nil {
		log.Fatal(err)
	}
	diff := grid.MaxAbsDiff(want, u)
	fmt.Printf("max |distributed − serial| = %g", diff)
	if diff > 1e-9 {
		log.Fatal(" — VALIDATION FAILED")
	}
	fmt.Println("  ✓ validated")
	fmt.Printf("virtual makespan %.3f ms, %d messages, %d bytes\n\n",
		res.Makespan*1e3, res.TotalMessages(), res.TotalBytes())

	// --- performance: a slice of Table 1 on class B (model-only) -------
	eta := nas.ClassB.Eta
	steps := 1
	serial, err := nas.SerialTime(nas.Origin2000Machine(1), eta, steps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table 1 slice, class B (%v), speedups vs original sequential code:\n", eta)
	fmt.Printf("%8s  %12s  %12s\n", "# CPUs", "hand-coded", "dHPF")
	for _, pp := range []int{9, 16, 25, 36, 49, 50, 64} {
		mach := nas.Origin2000Machine(pp)
		hand := "    —   "
		if s, _, err := nas.Speedup(nas.HandCodedDiagonal, pp, mach, eta, steps, serial); err == nil {
			hand = fmt.Sprintf("%8.2f", s)
		}
		dhpf, _, err := nas.Speedup(nas.DHPFGeneralized, pp, mach, eta, steps, serial)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d  %12s  %12.2f\n", pp, hand, dhpf)
	}
	fmt.Println("\nNote the 49→50 inversion: 5×10×10 on 50 CPUs is slower than 7×7×7 on 49")
	fmt.Println("(the paper's Section 6 compact-partitioning observation).")
}
