package hpf

import (
	"sort"
	"testing"

	"genmp/internal/cost"
	"genmp/internal/sweep"
)

// FuzzPlanTemplate feeds arbitrary directive text through the HPF front
// end: Parse, PlanTemplate under the Origin 2000 model for every declared
// template, SweepPlan and Validate. No input may panic; each either errors
// or yields a plan that validates and cuts no MULTI dimension into more
// pieces than it has elements. Inputs declaring more than 64 processors or
// a template extent above 64 are skipped, so the fuzzer cannot ask for
// giant grids; Parse itself rejects a template of more than seven
// dimensions. The seeds under testdata/fuzz are the package's test programs
// and two thin templates.
//
//	go test ./internal/hpf -run '^$' -fuzz FuzzPlanTemplate -fuzztime 60s
func FuzzPlanTemplate(f *testing.F) {
	model := cost.Origin2000()
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(src)
		if err != nil {
			return
		}
		for _, ps := range d.Processors {
			if ps.Size() > 64 {
				return
			}
		}
		var names []string
		for name, tm := range d.Templates {
			for _, e := range tm.Eta {
				if e > 64 {
					return
				}
			}
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			pl, err := d.PlanTemplate(name, &model)
			if err != nil || pl.Multi == nil {
				continue
			}
			gamma := pl.Multi.Gamma()
			for i, s := range pl.Specs {
				if s == SpecMulti && gamma[i] > pl.Template.Eta[i] {
					t.Fatalf("%s: γ %v cuts dimension %d of extent %d into %d", name, gamma, i, pl.Template.Eta[i], gamma[i])
				}
			}
			sp, err := pl.SweepPlan(sweep.Tridiag{})
			if err != nil {
				continue
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("%s: planned schedule fails Validate: %v", name, err)
			}
		}
	})
}
