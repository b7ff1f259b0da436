package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genmp/internal/core"
	"genmp/internal/plan"
	"genmp/internal/sweep"
)

func compileTestPlan(t *testing.T) *plan.SweepPlan {
	t.Helper()
	m, err := core.NewGeneralized(4, []int{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(plan.Spec{M: m, Eta: []int{8, 8, 8}, Solver: sweep.Tridiag{}})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestWritePlanJSONRoundTrip(t *testing.T) {
	pl := compileTestPlan(t)
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := WritePlanJSON(path, "test source", pl); err != nil {
		t.Fatal(err)
	}
	pf, err := ReadPlanJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Source != "test source" || pf.Plan.P != 4 || pf.Plan.Solver != pl.Solver {
		t.Errorf("round trip lost header: %+v", pf.Plan)
	}
	if len(pf.Plan.Ranks) != 4 {
		t.Fatalf("ranks = %d, want 4", len(pf.Plan.Ranks))
	}
	if got := len(pf.Plan.Ranks[0].Passes); got != 6 {
		t.Errorf("rank 0 has %d passes, want 6 (3 dims × 2 directions)", got)
	}
	// The dump must carry the real tag values the executor uses.
	ph := pf.Plan.Ranks[0].Passes[0].Phases
	sent := false
	for _, p := range ph {
		if p.SendTo >= 0 {
			sent = true
			if !pl.Tags.Contains(p.SendTag) {
				t.Errorf("dumped send tag %d outside reservation", p.SendTag)
			}
		}
	}
	if !sent {
		t.Error("rank 0 dim 0 forward pass never sends; bad fixture")
	}

	// Writing the same plan again must be byte-identical (the CI fixture
	// contract).
	path2 := filepath.Join(t.TempDir(), "plan2.json")
	if err := WritePlanJSON(path2, "test source", pl); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(path2)
	if string(a) != string(b) {
		t.Error("repeated dumps of one plan differ")
	}

	if _, err := ReadPlanJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing plan file should fail")
	}
	if err := WritePlanJSON(filepath.Join(t.TempDir(), "nil.json"), "", nil); err == nil {
		t.Error("writing a nil plan should fail")
	}
}

// TestReadPlanJSONRejects: the plan reader checks the shared envelope — a
// wrong kind, a future schema and a truncated dump each fail with their own
// message instead of yielding a plan.
func TestReadPlanJSONRejects(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := WritePlanJSON(good, "reject test", compileTestPlan(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, body, want string
	}{
		{"kind", `{"schema":1,"kind":"redist","plan":{}}`, "not a plan file"},
		{"schema", `{"schema":99,"kind":"plan","plan":{}}`, "unsupported plan schema 99"},
		{"truncated", string(data[:len(data)/2]), "parse"},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPlanJSON(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestPlanFromJSONFingerprint: dump → read → reconstruct must be lossless —
// the round-tripped plan's Fingerprint is byte-equal to the original's,
// with and without the overlap annotation. This is the contract plan
// shipping rests on: a worker loading the dump executes the same schedule
// the compiling node ran.
func TestPlanFromJSONFingerprint(t *testing.T) {
	m, err := core.NewGeneralized(4, []int{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []plan.Overlap{{}, {Enabled: true}, {Enabled: true, Frac: 0.3}} {
		pl, err := plan.Compile(plan.Spec{M: m, Eta: []int{8, 8, 8}, Solver: sweep.Tridiag{},
			Halos: []int{2}, Overlap: o})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "plan.json")
		if err := WritePlanJSON(path, "fingerprint test", pl); err != nil {
			t.Fatal(err)
		}
		pf, err := ReadPlanJSON(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PlanFromJSON(pf.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != pl.Fingerprint() {
			t.Errorf("overlap %+v: round-tripped fingerprint differs from the original", o)
		}
		if got.Halos == nil || got.Halos[0] != 2 {
			t.Errorf("overlap %+v: layout metadata lost: halos %v", o, got.Halos)
		}
		// LoadPlan is the one-call worker path.
		got2, err := LoadPlan(path)
		if err != nil {
			t.Fatal(err)
		}
		if got2.Fingerprint() != pl.Fingerprint() {
			t.Errorf("overlap %+v: LoadPlan fingerprint differs", o)
		}
	}

	// A dump naming an unreserved tag space must fail to reconstruct.
	pl := compileTestPlan(t)
	pj := NewPlanJSON(pl)
	pj.TagSpace = "no/such/space"
	if _, err := PlanFromJSON(pj); err == nil {
		t.Error("unknown tag space should fail reconstruction")
	}
	// A dump whose recorded range disagrees with the live reservation too.
	pj = NewPlanJSON(pl)
	pj.TagBase++
	if _, err := PlanFromJSON(pj); err == nil {
		t.Error("mismatched tag base should fail reconstruction")
	}
}

// TestPlanFromJSONRejectsBadGeometry: a dump whose tile rectangle is
// stretched past η, with every line count left as compiled, must come back
// as an error from Validate rather than reach an executor (or panic).
func TestPlanFromJSONRejectsBadGeometry(t *testing.T) {
	pj := NewPlanJSON(compileTestPlan(t))
	tj := &pj.Ranks[1].Passes[2].Phases[0].Tiles[0]
	hi := append([]int(nil), tj.Hi...)
	hi[0] = pj.Eta[0] + 4
	tj.Hi = hi
	pl, err := PlanFromJSON(pj)
	if err == nil {
		t.Fatalf("stretched hi %v accepted (η %v)", hi, pj.Eta)
	}
	if pl != nil || !strings.Contains(err.Error(), "breaks 0 ≤ lo < hi ≤ η") {
		t.Errorf("plan %v, err = %v; want nil and a tile-geometry error", pl, err)
	}
}

func TestAuditPlanBytes(t *testing.T) {
	pl := compileTestPlan(t)
	steps := 2
	prof := &Profile{Phases: []PhaseProfile{
		{Label: "solve0", Bytes: steps * pl.DimSendBytes(0)},
		{Label: "solve1", Bytes: steps*pl.DimSendBytes(1) + 16},
		// solve2 absent from the profile: skipped, not zero-filled.
	}}
	rows := AuditPlanBytes(pl, prof, steps, func(dim int) string {
		return "solve" + string(rune('0'+dim))
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (unprofiled dim skipped)", len(rows))
	}
	if rows[0].Delta() != 0 {
		t.Errorf("solve0 delta = %d, want 0", rows[0].Delta())
	}
	if rows[1].Delta() != 16 {
		t.Errorf("solve1 delta = %d, want the injected 16", rows[1].Delta())
	}
	out := FormatPlanAudit(rows)
	for _, want := range []string{"plan bytes", "solve0", "solve1", "16"} {
		if !strings.Contains(out, want) {
			t.Errorf("audit table missing %q:\n%s", want, out)
		}
	}
}
