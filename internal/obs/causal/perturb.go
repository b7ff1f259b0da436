package causal

import (
	"fmt"
	"math"
	"path"
	"strconv"
	"strings"
)

// PerturbKind enumerates the what-if perturbations the replayer applies.
type PerturbKind int

const (
	// Identity changes nothing; replay reproduces the recorded makespan
	// bit-exactly.
	Identity PerturbKind = iota
	// ScaleLink multiplies the communication cost of one directed link —
	// the message transit delay and the receive's busy time — by Factor.
	// Factor < 1 models a faster link, > 1 a slower one.
	ScaleLink
	// ZeroWait removes the message dependency of matching receives: the
	// receive starts the moment its rank is ready, as if the message had
	// been perfectly prefetched. Models ideal overlap of that wait.
	ZeroWait
	// Overlap posts matching carry sends early: the send's message departs
	// once Frac of the preceding compute event has finished, while the
	// rank's own timeline is unchanged (the remaining compute still runs).
	// This is the boundary-lines-first optimization of ROADMAP item 2: the
	// carry leaves before the interior finishes.
	Overlap
)

// Perturbation is one what-if change to the schedule. Src/Dst select a
// link for ScaleLink and filter ZeroWait ("-1 matches any rank"); Phase and
// Tag filter ZeroWait and Overlap (empty/negative match all).
type Perturbation struct {
	Kind   PerturbKind
	Src    int
	Dst    int
	Factor float64
	Phase  string
	Tag    int
	Frac   float64
}

// String renders the perturbation in the parseable syntax.
func (p Perturbation) String() string {
	switch p.Kind {
	case ScaleLink:
		return fmt.Sprintf("scale-link:%s->%s:%g", wild(p.Src), wild(p.Dst), p.Factor)
	case ZeroWait:
		var f []string
		if p.Phase != "" {
			f = append(f, "phase="+p.Phase)
		}
		if p.Src >= 0 || p.Dst >= 0 {
			f = append(f, fmt.Sprintf("link=%s->%s", wild(p.Src), wild(p.Dst)))
		}
		if p.Tag >= 0 {
			f = append(f, fmt.Sprintf("tag=%d", p.Tag))
		}
		return "zero-wait:" + strings.Join(f, ",")
	case Overlap:
		s := fmt.Sprintf("overlap:phase=%s,frac=%g", p.Phase, p.Frac)
		if p.Tag >= 0 {
			s += fmt.Sprintf(",tag=%d", p.Tag)
		}
		return s
	default:
		return "identity"
	}
}

func wild(r int) string {
	if r < 0 {
		return "*"
	}
	return strconv.Itoa(r)
}

// matchesRecv reports whether the perturbation's filters select a receive
// event on link (src → dst) with the given phase and tag.
func (p Perturbation) matchesRecv(src, dst int, phase string, tag int) bool {
	if p.Src >= 0 && p.Src != src {
		return false
	}
	if p.Dst >= 0 && p.Dst != dst {
		return false
	}
	if !p.matchesPhase(phase) {
		return false
	}
	if p.Tag >= 0 && p.Tag != tag {
		return false
	}
	return true
}

// matchesPhase reports whether the perturbation's phase pattern selects the
// label. An empty pattern matches everything; otherwise the pattern is a
// '|'-separated list of terms, each an exact label or a glob (path.Match
// syntax) — "solve*" selects every solve phase, "solve0|solve2" exactly
// those two.
func (p Perturbation) matchesPhase(phase string) bool {
	if p.Phase == "" {
		return true
	}
	for _, term := range strings.Split(p.Phase, "|") {
		term = strings.TrimSpace(term)
		if term == phase {
			return true
		}
		if ok, err := path.Match(term, phase); err == nil && ok {
			return true
		}
	}
	return false
}

// ParsePerturbations parses a what-if expression: one or more perturbations
// separated by ';'. Grammar (whitespace around tokens is ignored):
//
//	identity
//	scale-link:SRC->DST:FACTOR      ranks or '*', e.g. scale-link:0->1:0.5
//	zero-wait:FILTERS               e.g. zero-wait:phase=solve0,link=0->1
//	overlap:phase=LABELS[,frac=F][,tag=N]   frac defaults to 0.25
//
// FILTERS is a comma-separated AND of phase=LABELS, link=SRC->DST, tag=N;
// zero-wait needs at least one filter (an unfiltered zero-wait would erase
// every dependence in the run). LABELS is a '|'-separated list of phase
// labels, each an exact name or a glob — overlap:phase=solve* posts every
// solve phase's carries early, phase=solve0|solve2 exactly those two.
func ParsePerturbations(expr string) ([]Perturbation, error) {
	var out []Perturbation
	for _, part := range strings.Split(expr, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := parseOne(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("causal: empty what-if expression")
	}
	return out, nil
}

func parseOne(s string) (Perturbation, error) {
	p := Perturbation{Src: -1, Dst: -1, Tag: -1, Factor: 1, Frac: 0.25}
	head, rest, _ := strings.Cut(s, ":")
	switch strings.TrimSpace(head) {
	case "identity":
		if rest != "" {
			return p, fmt.Errorf("causal: identity takes no arguments, got %q", s)
		}
		return p, nil
	case "scale-link":
		link, factor, ok := strings.Cut(rest, ":")
		if !ok {
			return p, fmt.Errorf("causal: scale-link wants SRC->DST:FACTOR, got %q", s)
		}
		src, dst, err := parseLink(link)
		if err != nil {
			return p, err
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(factor), 64)
		if err != nil || !finite(f) || f < 0 {
			return p, fmt.Errorf("causal: bad scale-link factor %q (want a finite number ≥ 0)", factor)
		}
		p.Kind, p.Src, p.Dst, p.Factor = ScaleLink, src, dst, f
		return p, nil
	case "zero-wait":
		p.Kind = ZeroWait
		if err := parseFilters(&p, rest); err != nil {
			return p, err
		}
		if p.Phase == "" && p.Src < 0 && p.Dst < 0 && p.Tag < 0 {
			return p, fmt.Errorf("causal: zero-wait needs at least one filter (phase=, link= or tag=)")
		}
		return p, nil
	case "overlap":
		p.Kind = Overlap
		if err := parseFilters(&p, rest); err != nil {
			return p, err
		}
		if p.Phase == "" {
			return p, fmt.Errorf("causal: overlap needs phase=LABEL")
		}
		if p.Frac < 0 || p.Frac > 1 {
			return p, fmt.Errorf("causal: overlap frac %g outside [0, 1]", p.Frac)
		}
		return p, nil
	default:
		return p, fmt.Errorf("causal: unknown perturbation %q (want identity, scale-link, zero-wait or overlap)", head)
	}
}

func parseFilters(p *Perturbation, s string) error {
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return fmt.Errorf("causal: bad filter %q (want key=value)", tok)
		}
		val = strings.TrimSpace(val)
		switch strings.TrimSpace(key) {
		case "phase":
			for _, term := range strings.Split(val, "|") {
				if _, err := path.Match(strings.TrimSpace(term), ""); err != nil {
					return fmt.Errorf("causal: bad phase pattern %q: %v", term, err)
				}
			}
			p.Phase = val
		case "link":
			src, dst, err := parseLink(val)
			if err != nil {
				return err
			}
			p.Src, p.Dst = src, dst
		case "tag":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("causal: bad tag %q", val)
			}
			p.Tag = n
		case "frac":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !finite(f) {
				return fmt.Errorf("causal: bad frac %q (want a finite number)", val)
			}
			p.Frac = f
		default:
			return fmt.Errorf("causal: unknown filter %q", key)
		}
	}
	return nil
}

// finite reports whether f is neither NaN nor ±Inf. strconv.ParseFloat
// accepts "NaN" and "Inf", and NaN fails every range comparison.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func parseLink(s string) (src, dst int, err error) {
	a, b, ok := strings.Cut(s, "->")
	if !ok {
		return 0, 0, fmt.Errorf("causal: bad link %q (want SRC->DST)", s)
	}
	src, err = parseRank(a)
	if err != nil {
		return 0, 0, err
	}
	dst, err = parseRank(b)
	return src, dst, err
}

func parseRank(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "*" {
		return -1, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("causal: bad rank %q (want a rank number or '*')", s)
	}
	return n, nil
}
