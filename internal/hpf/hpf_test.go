package hpf

import (
	"fmt"
	"strings"
	"testing"

	"genmp/internal/cost"
	"genmp/internal/numutil"
	"genmp/internal/sweep"
)

const spProgram = `
      program sp
!HPF$ PROCESSORS P(12)
!HPF$ TEMPLATE T(102, 102, 102)
!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P
!HPF$ ALIGN U WITH T
!HPF$ ALIGN RHS WITH T
!HPF$ SHADOW U(2, 2, 2)
      end
`

func TestParseAndPlanMulti(t *testing.T) {
	d, err := Parse(spProgram)
	if err != nil {
		t.Fatal(err)
	}
	if d.Processors["P"].Size() != 12 {
		t.Errorf("P size = %d", d.Processors["P"].Size())
	}
	if !numutil.EqualInts(d.Templates["T"].Eta, []int{102, 102, 102}) {
		t.Errorf("template eta = %v", d.Templates["T"].Eta)
	}
	plan, err := d.PlanTemplate("T", nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Multi == nil {
		t.Fatal("expected a multipartitioned plan")
	}
	if plan.P != 12 {
		t.Errorf("plan P = %d", plan.P)
	}
	if err := plan.Multi.Verify(); err != nil {
		t.Errorf("planned mapping invalid: %v", err)
	}
	if !numutil.EqualInts(plan.ShadowWidths, []int{2, 2, 2}) {
		t.Errorf("shadow widths = %v", plan.ShadowWidths)
	}
	// Planning through an aligned array resolves to the template.
	plan2, err := d.PlanTemplate("RHS", nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Template.Name != "T" {
		t.Errorf("aligned plan template = %s", plan2.Template.Name)
	}
}

func TestMultiDimensionalProcessorsRejected(t *testing.T) {
	// The paper: the number of processors cannot be specified per dimension
	// for a multipartitioned template, so MULTI onto a multi-dimensional
	// arrangement is a plan error (not a silent collapse to the total).
	src := `
!HPF$ PROCESSORS GRID(4, 3)
!HPF$ TEMPLATE T(60, 60, 60)
!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO GRID
`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.PlanTemplate("T", nil)
	if err == nil {
		t.Fatal("MULTI onto a 2-D arrangement should fail to plan")
	}
	for _, want := range []string{"GRID", "per dimension", "GRID(12)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
	// The same arrangement remains fine for a BLOCK distribution.
	src = `
!HPF$ PROCESSORS GRID(4, 3)
!HPF$ TEMPLATE B(60, 60, 60)
!HPF$ DISTRIBUTE B(BLOCK, *, *) ONTO GRID
`
	d, err = Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := d.PlanTemplate("B", nil)
	if err != nil {
		t.Fatal(err)
	}
	if bp.P != 12 || bp.BlockDim != 0 {
		t.Errorf("BLOCK plan = {P:%d BlockDim:%d}, want {12 0}", bp.P, bp.BlockDim)
	}
}

func TestPartialMulti(t *testing.T) {
	// MULTI on two of three dimensions: the third is collapsed (γ = 1),
	// like the 8×8×1 elementary partitionings.
	src := `
!HPF$ PROCESSORS P(8)
!HPF$ TEMPLATE T(64, 64, 16)
!HPF$ DISTRIBUTE T(MULTI, MULTI, *) ONTO P
`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.PlanTemplate("T", nil)
	if err != nil {
		t.Fatal(err)
	}
	gamma := plan.Multi.Gamma()
	if gamma[2] != 1 {
		t.Errorf("collapsed dimension cut %d times", gamma[2])
	}
	if !numutil.EqualInts(numutil.SortedCopy(gamma), []int{1, 8, 8}) {
		t.Errorf("γ = %v, want 8×8×1 up to order", gamma)
	}
	if err := plan.Multi.Verify(); err != nil {
		t.Error(err)
	}
}

func TestPlanWithObjective(t *testing.T) {
	src := `
!HPF$ PROCESSORS P(4)
!HPF$ TEMPLATE T(500, 500, 100)
!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P
`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// K₂ = 0 and a constant K₃ leave λᵢ ∝ η/ηᵢ, the volume objective.
	plan, err := d.PlanTemplate("T", &cost.Model{K3: cost.BusNetwork(1)})
	if err != nil {
		t.Fatal(err)
	}
	// The skewed-domain remark through the HPF front end.
	if !numutil.EqualInts(plan.Multi.Gamma(), []int{4, 4, 1}) {
		t.Errorf("γ = %v, want [4 4 1]", plan.Multi.Gamma())
	}

	// The model is priced at the plan's own p: K₃'s 1/p on 16 processors
	// picks what every other tool picks for this template.
	d, err = Parse(`
!HPF$ PROCESSORS P(16)
!HPF$ TEMPLATE T(100, 100, 20)
!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P
`)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.Origin2000()
	if plan, err = d.PlanTemplate("T", &model); err != nil {
		t.Fatal(err)
	}
	want, err := model.BestPartitioning(16, []int{100, 100, 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !numutil.EqualInts(plan.Multi.Gamma(), want.Gamma) {
		t.Errorf("p=16: γ = %v, want BestPartitioning's %v", plan.Multi.Gamma(), want.Gamma)
	}
}

func TestThinTemplatesPlanWithinExtents(t *testing.T) {
	// Each search is capped at the template's extents, so a thin dimension
	// takes no more cuts than it has elements.
	for _, c := range []struct {
		procs int
		eta   string
		want  []int
	}{
		{8, "50, 50, 2", []int{4, 4, 2}},
		{4, "1, 64, 64", []int{1, 4, 4}},
	} {
		d, err := Parse(fmt.Sprintf("!HPF$ PROCESSORS P(%d)\n!HPF$ TEMPLATE T(%s)\n!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P", c.procs, c.eta))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := d.PlanTemplate("T", nil)
		if err != nil {
			t.Errorf("T(%s) on %d: %v", c.eta, c.procs, err)
			continue
		}
		if !numutil.EqualInts(plan.Multi.Gamma(), c.want) {
			t.Errorf("T(%s) on %d: γ = %v, want %v", c.eta, c.procs, plan.Multi.Gamma(), c.want)
		}
	}
}

func TestBlockPlan(t *testing.T) {
	src := `
!HPF$ PROCESSORS P(8)
!HPF$ TEMPLATE T(64, 32)
!HPF$ DISTRIBUTE T(BLOCK, *) ONTO P
`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.PlanTemplate("T", nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Multi != nil || plan.BlockDim != 0 {
		t.Errorf("expected BLOCK plan on dim 0, got multi=%v blockDim=%d", plan.Multi, plan.BlockDim)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"align bad names", "!HPF$ TEMPLATE T(8)\n!HPF$ ALIGN 1A WITH T", "two names"},
		{"align duplicate", "!HPF$ TEMPLATE T(8)\n!HPF$ ALIGN A WITH T\n!HPF$ ALIGN A WITH T", "aligned twice"},
		{"shadow negative", "!HPF$ SHADOW A(-1)", "non-negative"},
		{"shadow duplicate", "!HPF$ SHADOW A(1)\n!HPF$ SHADOW A(2)", "SHADOW twice"},
		{"name underscore digit", "!HPF$ TEMPLATE _T9(8)\n!HPF$ TEMPLATE T-X(8)", "invalid name"},
		{"empty directive", "!HPF$   ", "empty directive"},
		{"template twice", "!HPF$ TEMPLATE T(8)\n!HPF$ TEMPLATE T(9)", "redeclared"},
		{"distribute twice", "!HPF$ PROCESSORS P(2)\n!HPF$ TEMPLATE T(8,8)\n!HPF$ DISTRIBUTE T(BLOCK, *) ONTO P\n!HPF$ DISTRIBUTE T(*, BLOCK) ONTO P", "distributed twice"},
		{"unknown directive", "!HPF$ FROBNICATE X(2)", "unknown directive"},
		{"cyclic", "!HPF$ PROCESSORS P(2)\n!HPF$ TEMPLATE T(8,8)\n!HPF$ DISTRIBUTE T(CYCLIC, *) ONTO P", "CYCLIC"},
		{"missing onto", "!HPF$ PROCESSORS P(2)\n!HPF$ TEMPLATE T(8,8)\n!HPF$ DISTRIBUTE T(BLOCK, *)", "ONTO"},
		{"undeclared template", "!HPF$ PROCESSORS P(2)\n!HPF$ DISTRIBUTE T(BLOCK) ONTO P", "undeclared template"},
		{"undeclared procs", "!HPF$ TEMPLATE T(8)\n!HPF$ DISTRIBUTE T(BLOCK) ONTO P", "undeclared processors"},
		{"bad extent", "!HPF$ TEMPLATE T(0)", "positive integer"},
		{"redeclared", "!HPF$ PROCESSORS P(2)\n!HPF$ PROCESSORS P(3)", "redeclared"},
		{"spec arity", "!HPF$ PROCESSORS P(2)\n!HPF$ TEMPLATE T(8,8)\n!HPF$ DISTRIBUTE T(BLOCK) ONTO P", "dimensions"},
		{"align undeclared", "!HPF$ ALIGN A WITH T", "undeclared template"},
		{"bad name", "!HPF$ TEMPLATE 9T(8)", "invalid name"},
		{"template overflow", "!HPF$ PROCESSORS P(4)\n!HPF$ TEMPLATE T(4000000000,4000000000,4000000000)\n!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P", "overflow"},
		{"processors overflow", "!HPF$ PROCESSORS P(4294967296, 4294967296)", "overflow"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

// TestRankLimit: a TEMPLATE or PROCESSORS declaration lists at most seven
// extents, Fortran 90's rank limit, and a seven-dimensional template still
// plans.
func TestRankLimit(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"!HPF$ PROCESSORS P(4)\n!HPF$ TEMPLATE T(2, 2, 2, 2, 2, 2, 2, 2)",
			"hpf: line 2: template T declares 8 extents; Fortran 90 allows at most 7"},
		{"!HPF$ PROCESSORS P(1, 1, 1, 1, 1, 1, 1, 2)",
			"hpf: line 1: processors arrangement P declares 8 extents; Fortran 90 allows at most 7"},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
	d, err := Parse("!HPF$ PROCESSORS P(8)\n!HPF$ TEMPLATE T(4, 4, 4, 4, 4, 4, 4)\n" +
		"!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI, MULTI, MULTI, MULTI, MULTI) ONTO P")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := d.PlanTemplate("T", nil)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := pl.SweepPlan(sweep.Tridiag{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanErrors(t *testing.T) {
	mustParse := func(src string) *Directives {
		d, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// MULTI on a single dimension cannot balance p > 1.
	d := mustParse("!HPF$ PROCESSORS P(4)\n!HPF$ TEMPLATE T(8, 8)\n!HPF$ DISTRIBUTE T(MULTI, *) ONTO P")
	if _, err := d.PlanTemplate("T", nil); err == nil {
		t.Error("single-dimension MULTI on p>1 should fail")
	}
	// Mixing MULTI and BLOCK is rejected.
	d = mustParse("!HPF$ PROCESSORS P(4)\n!HPF$ TEMPLATE T(8, 8, 8)\n!HPF$ DISTRIBUTE T(MULTI, MULTI, BLOCK) ONTO P")
	if _, err := d.PlanTemplate("T", nil); err == nil {
		t.Error("MULTI+BLOCK mix should fail")
	}
	// BLOCK needs extent ≥ p.
	d = mustParse("!HPF$ PROCESSORS P(16)\n!HPF$ TEMPLATE T(8, 8)\n!HPF$ DISTRIBUTE T(BLOCK, *) ONTO P")
	if _, err := d.PlanTemplate("T", nil); err == nil {
		t.Error("BLOCK with extent < p should fail")
	}
	// Fully collapsed on p > 1.
	d = mustParse("!HPF$ PROCESSORS P(2)\n!HPF$ TEMPLATE T(8, 8)\n!HPF$ DISTRIBUTE T(*, *) ONTO P")
	if _, err := d.PlanTemplate("T", nil); err == nil {
		t.Error("fully collapsed template on p>1 should fail")
	}
	// No DISTRIBUTE.
	d = mustParse("!HPF$ TEMPLATE T(8, 8)")
	if _, err := d.PlanTemplate("T", nil); err == nil {
		t.Error("missing DISTRIBUTE should fail")
	}
	// Unknown name.
	if _, err := d.PlanTemplate("NOPE", nil); err == nil {
		t.Error("unknown template should fail")
	}
}

func TestCaseInsensitivity(t *testing.T) {
	src := `
!hpf$ processors p(6)
!Hpf$ template t(36, 36, 6)
!HPF$ distribute t(multi, multi, multi) onto p
`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.PlanTemplate("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.P != 6 {
		t.Errorf("P = %d", plan.P)
	}
}

func TestP1Plans(t *testing.T) {
	src := `
!HPF$ PROCESSORS P(1)
!HPF$ TEMPLATE T(8, 8)
!HPF$ DISTRIBUTE T(MULTI, MULTI) ONTO P
!HPF$ TEMPLATE S(8, 8)
!HPF$ DISTRIBUTE S(*, *) ONTO P
`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.PlanTemplate("T", nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Multi == nil || plan.Multi.P() != 1 {
		t.Error("p=1 MULTI plan should be the trivial multipartitioning")
	}
	if _, err := d.PlanTemplate("S", nil); err != nil {
		t.Errorf("fully collapsed on p=1 should be fine: %v", err)
	}
}

func TestOnHomeAndLocalDirectives(t *testing.T) {
	src := `
!HPF$ PROCESSORS P(8)
!HPF$ TEMPLATE T(32, 32, 32)
!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P
!HPF$ ALIGN U WITH T
!HPF$ ALIGN V WITH T
!HPF$ ON_HOME U
!HPF$ LOCAL V
`
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := d.PlanTemplate("T", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.PartialReplication {
		t.Error("ON_HOME on an aligned array should enable partial replication")
	}
	if len(plan.LocalArrays) != 1 || plan.LocalArrays[0] != "V" {
		t.Errorf("LocalArrays = %v, want [V]", plan.LocalArrays)
	}
	// ONHOME spelling also accepted.
	if _, err := Parse("!HPF$ ONHOME X"); err != nil {
		t.Errorf("ONHOME spelling rejected: %v", err)
	}
	// Repetition rejected.
	if _, err := Parse("!HPF$ LOCAL A\n!HPF$ LOCAL A"); err == nil {
		t.Error("repeated LOCAL should fail")
	}
	if _, err := Parse("!HPF$ ON_HOME 9BAD"); err == nil {
		t.Error("bad array name should fail")
	}
}

func TestSpecKindString(t *testing.T) {
	if SpecMulti.String() != "MULTI" || SpecBlock.String() != "BLOCK" || SpecCollapse.String() != "*" {
		t.Error("spec names wrong")
	}
}
