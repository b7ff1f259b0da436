package causal_test

import (
	"strings"
	"testing"

	"genmp/internal/obs/causal"
)

// parseCases are what-if expressions and what they parse to; they also
// seed FuzzParsePerturbations.
var parseCases = []struct {
	expr string
	want []causal.Perturbation
}{
	{"identity", []causal.Perturbation{{Kind: causal.Identity, Src: -1, Dst: -1, Tag: -1, Factor: 1, Frac: 0.25}}},
	{"scale-link:0->1:0.5", []causal.Perturbation{{Kind: causal.ScaleLink, Src: 0, Dst: 1, Tag: -1, Factor: 0.5, Frac: 0.25}}},
	{"scale-link:*->3:2", []causal.Perturbation{{Kind: causal.ScaleLink, Src: -1, Dst: 3, Tag: -1, Factor: 2, Frac: 0.25}}},
	{"zero-wait:phase=halo", []causal.Perturbation{{Kind: causal.ZeroWait, Src: -1, Dst: -1, Tag: -1, Phase: "halo", Factor: 1, Frac: 0.25}}},
	{"zero-wait:link=2->0,tag=9", []causal.Perturbation{{Kind: causal.ZeroWait, Src: 2, Dst: 0, Tag: 9, Factor: 1, Frac: 0.25}}},
	{"overlap:phase=solve0", []causal.Perturbation{{Kind: causal.Overlap, Src: -1, Dst: -1, Tag: -1, Phase: "solve0", Factor: 1, Frac: 0.25}}},
	{"overlap:phase=solve1,frac=0.5", []causal.Perturbation{{Kind: causal.Overlap, Src: -1, Dst: -1, Tag: -1, Phase: "solve1", Factor: 1, Frac: 0.5}}},
	{" overlap:phase=a ; scale-link:1->0:4 ", []causal.Perturbation{
		{Kind: causal.Overlap, Src: -1, Dst: -1, Tag: -1, Phase: "a", Factor: 1, Frac: 0.25},
		{Kind: causal.ScaleLink, Src: 1, Dst: 0, Tag: -1, Factor: 4, Frac: 0.25},
	}},
}

func TestParsePerturbations(t *testing.T) {
	for _, c := range parseCases {
		got, err := causal.ParsePerturbations(c.expr)
		if err != nil {
			t.Errorf("%q: %v", c.expr, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("%q: parsed %d perturbations, want %d", c.expr, len(got), len(c.want))
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q[%d] = %+v, want %+v", c.expr, i, got[i], c.want[i])
			}
		}
	}
}

// parseErrorCases are rejected what-if expressions and a substring of
// each error; they also seed FuzzParsePerturbations.
var parseErrorCases = []struct{ expr, wantSub string }{
	{"", "empty"},
	{" ; ", "empty"},
	{"warp-speed:1", "unknown perturbation"},
	{"identity:extra", "no arguments"},
	{"scale-link:0->1", "wants SRC->DST:FACTOR"},
	{"scale-link:0-1:2", "bad link"},
	{"scale-link:0->x:2", "bad rank"},
	{"scale-link:0->1:-3", "factor"},
	{"scale-link:0->1:NaN", "factor"},
	{"scale-link:0->1:Inf", "factor"},
	{"zero-wait:", "at least one filter"},
	{"zero-wait:color=red", "unknown filter"},
	{"zero-wait:tag=-4", "bad tag"},
	{"overlap:frac=0.5", "needs phase"},
	{"overlap:phase=a,frac=1.5", "outside [0, 1]"},
	{"overlap:phase=a,frac=x", "bad frac"},
	{"overlap:phase=x,frac=NaN", "bad frac"},
	{"overlap:phase", "key=value"},
}

func TestParsePerturbationsErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := causal.ParsePerturbations(c.expr)
		if err == nil {
			t.Errorf("%q: parsed without error", c.expr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%q: error %q does not mention %q", c.expr, err, c.wantSub)
		}
	}
}

func TestPerturbationStringRoundTrips(t *testing.T) {
	exprs := []string{
		"identity",
		"scale-link:0->1:0.5",
		"scale-link:*->3:2",
		"zero-wait:phase=halo",
		"zero-wait:link=2->0,tag=9",
		"overlap:phase=solve0,frac=0.25",
	}
	for _, expr := range exprs {
		ps, err := causal.ParsePerturbations(expr)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		back, err := causal.ParsePerturbations(ps[0].String())
		if err != nil {
			t.Errorf("%q: String() %q does not re-parse: %v", expr, ps[0].String(), err)
			continue
		}
		if back[0] != ps[0] {
			t.Errorf("%q: round trip %+v != %+v", expr, back[0], ps[0])
		}
	}
}
