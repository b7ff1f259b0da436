// Package hpf is the compiler-integration substitute for Section 5 of the
// paper: a front end for the HPF directives with which dHPF programs
// request multipartitioned distributions. It parses a directive subset —
//
//	!HPF$ PROCESSORS P(12)
//	!HPF$ TEMPLATE T(102, 102, 102)
//	!HPF$ DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P
//	!HPF$ ALIGN A WITH T
//	!HPF$ SHADOW A(2, 2, 2)
//
// — and plans the corresponding runtime distribution: a generalized
// multipartitioning for MULTI specs (the paper's extension of BLOCK-style
// HPF partitionings) or a block unipartitioning for BLOCK.
//
// As the paper explains, when a template is multipartitioned "the number of
// processors cannot be specified on a per dimension basis … because each
// hyperplane defined by a partitioning along a multipartitioned template
// dimension is distributed among all processors": distributing MULTI onto a
// multi-dimensional PROCESSORS arrangement is therefore rejected as a plan
// error — declare a one-dimensional arrangement of the total size instead.
//
// A planned MULTI distribution compiles further into the executable
// schedule both runtimes consume: Plan.SweepPlan returns the
// plan.SweepPlan for a given line solver, with halo widths taken from the
// aligned arrays' SHADOW declarations.
package hpf

import (
	"fmt"
	"strconv"
	"strings"

	"genmp/internal/core"
	"genmp/internal/cost"
	"genmp/internal/numutil"
	"genmp/internal/partition"
	"genmp/internal/plan"
	"genmp/internal/sweep"
)

// SpecKind is one per-dimension distribution specifier.
type SpecKind int

const (
	// SpecCollapse is "*": the dimension is not distributed.
	SpecCollapse SpecKind = iota
	// SpecBlock is BLOCK: contiguous slabs, one per processor.
	SpecBlock
	// SpecMulti is MULTI: the dimension participates in a
	// multipartitioning (the dHPF extension).
	SpecMulti
)

// String renders the specifier in directive syntax.
func (k SpecKind) String() string {
	switch k {
	case SpecBlock:
		return "BLOCK"
	case SpecMulti:
		return "MULTI"
	default:
		return "*"
	}
}

// ProcSet is a PROCESSORS declaration.
type ProcSet struct {
	Name  string
	Shape []int
}

// Size returns the total processor count.
func (p ProcSet) Size() int { return numutil.Prod(p.Shape...) }

// Template is a TEMPLATE declaration.
type Template struct {
	Name string
	Eta  []int
}

// Distribution is a DISTRIBUTE directive.
type Distribution struct {
	Template string
	Procs    string
	Specs    []SpecKind
	Line     int
}

// Alignment is an ALIGN directive: Array aligns with Template.
type Alignment struct {
	Array    string
	Template string
}

// Shadow is a SHADOW directive: per-dimension halo widths for an array.
type Shadow struct {
	Array  string
	Widths []int
}

// Directives is a parsed directive set.
type Directives struct {
	Processors    map[string]ProcSet
	Templates     map[string]Template
	Distributions map[string]Distribution // by template name
	Alignments    map[string]Alignment    // by array name
	Shadows       map[string]Shadow       // by array name
	// OnHome marks arrays whose boundary computation is partially
	// replicated into shadow regions (the dHPF extended on-home directive:
	// trades redundant compute for fewer/smaller messages).
	OnHome map[string]bool
	// Local marks arrays for which communication of values already
	// computed in the shadow region is suppressed (the HPF/JA LOCAL
	// directive).
	Local map[string]bool
}

// ParseError reports a directive syntax or semantics problem with its line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("hpf: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads HPF directive lines. Non-directive lines (anything not
// starting with !HPF$, case-insensitive, after trimming) are ignored, so a
// whole Fortran source file can be fed in. Directive keywords and names are
// case-insensitive; names are stored upper-cased.
func Parse(src string) (*Directives, error) {
	d := &Directives{
		Processors:    map[string]ProcSet{},
		Templates:     map[string]Template{},
		Distributions: map[string]Distribution{},
		Alignments:    map[string]Alignment{},
		Shadows:       map[string]Shadow{},
		OnHome:        map[string]bool{},
		Local:         map[string]bool{},
	}
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		s := strings.TrimSpace(raw)
		up := strings.ToUpper(s)
		if !strings.HasPrefix(up, "!HPF$") {
			continue
		}
		body := strings.TrimSpace(up[len("!HPF$"):])
		if body == "" {
			return nil, errf(line, "empty directive")
		}
		word, rest := splitWord(body)
		var err error
		switch word {
		case "PROCESSORS":
			err = d.parseProcessors(line, rest)
		case "TEMPLATE":
			err = d.parseTemplate(line, rest)
		case "DISTRIBUTE":
			err = d.parseDistribute(line, rest)
		case "ALIGN":
			err = d.parseAlign(line, rest)
		case "SHADOW":
			err = d.parseShadow(line, rest)
		case "ONHOME", "ON_HOME":
			err = d.parseArrayFlag(line, rest, d.OnHome, "ON_HOME")
		case "LOCAL":
			err = d.parseArrayFlag(line, rest, d.Local, "LOCAL")
		default:
			err = errf(line, "unknown directive %q", word)
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

func splitWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	for i, r := range s {
		if r == ' ' || r == '\t' || r == '(' {
			return s[:i], strings.TrimSpace(s[i:])
		}
	}
	return s, ""
}

// parseNameArgs parses NAME(arg, arg, …) returning the name and raw args.
func parseNameArgs(line int, s string) (string, []string, error) {
	open := strings.IndexByte(s, '(')
	closeIdx := strings.LastIndexByte(s, ')')
	if open < 1 || closeIdx < open {
		return "", nil, errf(line, "expected NAME(...), got %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if !validName(name) {
		return "", nil, errf(line, "invalid name %q", name)
	}
	args := strings.Split(s[open+1:closeIdx], ",")
	for i := range args {
		args[i] = strings.TrimSpace(args[i])
	}
	return name, args, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'A' && r <= 'Z':
		case r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func parseIntArgs(line int, args []string) ([]int, error) {
	out := make([]int, len(args))
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil || v < 1 {
			return nil, errf(line, "expected positive integer, got %q", a)
		}
		out[i] = v
	}
	if _, ok := numutil.CheckedProd(out...); !ok {
		return nil, errf(line, "extents %s hold more elements than an int counts (overflow)", strings.Join(args, ", "))
	}
	return out, nil
}

// maxRank is Fortran 90's limit on the rank of an array, which bounds the
// extents a TEMPLATE or PROCESSORS declaration may list. It also keeps the
// partition search's space, which grows with the rank to the power of p's
// exponents, small.
const maxRank = 7

// checkRank rejects a declaration of more than maxRank extents.
func checkRank(line int, what, name string, args []string) error {
	if len(args) > maxRank {
		return errf(line, "%s %s declares %d extents; Fortran 90 allows at most %d", what, name, len(args), maxRank)
	}
	return nil
}

func (d *Directives) parseProcessors(line int, rest string) error {
	name, args, err := parseNameArgs(line, rest)
	if err != nil {
		return err
	}
	if err := checkRank(line, "processors arrangement", name, args); err != nil {
		return err
	}
	shape, err := parseIntArgs(line, args)
	if err != nil {
		return err
	}
	if _, dup := d.Processors[name]; dup {
		return errf(line, "processors arrangement %s redeclared", name)
	}
	d.Processors[name] = ProcSet{Name: name, Shape: shape}
	return nil
}

func (d *Directives) parseTemplate(line int, rest string) error {
	name, args, err := parseNameArgs(line, rest)
	if err != nil {
		return err
	}
	if err := checkRank(line, "template", name, args); err != nil {
		return err
	}
	eta, err := parseIntArgs(line, args)
	if err != nil {
		return err
	}
	if _, dup := d.Templates[name]; dup {
		return errf(line, "template %s redeclared", name)
	}
	d.Templates[name] = Template{Name: name, Eta: eta}
	return nil
}

func (d *Directives) parseDistribute(line int, rest string) error {
	ontoIdx := strings.Index(rest, " ONTO ")
	if ontoIdx < 0 {
		return errf(line, "DISTRIBUTE needs an ONTO clause")
	}
	specPart := strings.TrimSpace(rest[:ontoIdx])
	procName := strings.TrimSpace(rest[ontoIdx+len(" ONTO "):])
	if !validName(procName) {
		return errf(line, "invalid processors name %q", procName)
	}
	name, args, err := parseNameArgs(line, specPart)
	if err != nil {
		return err
	}
	tmpl, ok := d.Templates[name]
	if !ok {
		return errf(line, "DISTRIBUTE of undeclared template %s", name)
	}
	if _, ok := d.Processors[procName]; !ok {
		return errf(line, "DISTRIBUTE ONTO undeclared processors %s", procName)
	}
	if len(args) != len(tmpl.Eta) {
		return errf(line, "template %s has %d dimensions, distribution names %d", name, len(tmpl.Eta), len(args))
	}
	specs := make([]SpecKind, len(args))
	for i, a := range args {
		switch a {
		case "MULTI":
			specs[i] = SpecMulti
		case "BLOCK":
			specs[i] = SpecBlock
		case "*":
			specs[i] = SpecCollapse
		case "CYCLIC":
			return errf(line, "CYCLIC distributions are not supported (use BLOCK or MULTI)")
		default:
			return errf(line, "unknown distribution specifier %q", a)
		}
	}
	if _, dup := d.Distributions[name]; dup {
		return errf(line, "template %s distributed twice", name)
	}
	d.Distributions[name] = Distribution{Template: name, Procs: procName, Specs: specs, Line: line}
	return nil
}

func (d *Directives) parseAlign(line int, rest string) error {
	withIdx := strings.Index(rest, " WITH ")
	if withIdx < 0 {
		return errf(line, "ALIGN needs a WITH clause")
	}
	array := strings.TrimSpace(rest[:withIdx])
	tmpl := strings.TrimSpace(rest[withIdx+len(" WITH "):])
	if !validName(array) || !validName(tmpl) {
		return errf(line, "ALIGN needs two names, got %q WITH %q", array, tmpl)
	}
	if _, ok := d.Templates[tmpl]; !ok {
		return errf(line, "ALIGN with undeclared template %s", tmpl)
	}
	if _, dup := d.Alignments[array]; dup {
		return errf(line, "array %s aligned twice", array)
	}
	d.Alignments[array] = Alignment{Array: array, Template: tmpl}
	return nil
}

func (d *Directives) parseShadow(line int, rest string) error {
	name, args, err := parseNameArgs(line, rest)
	if err != nil {
		return err
	}
	widths := make([]int, len(args))
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil || v < 0 {
			return errf(line, "shadow width must be a non-negative integer, got %q", a)
		}
		widths[i] = v
	}
	if _, dup := d.Shadows[name]; dup {
		return errf(line, "array %s given SHADOW twice", name)
	}
	d.Shadows[name] = Shadow{Array: name, Widths: widths}
	return nil
}

func (d *Directives) parseArrayFlag(line int, rest string, set map[string]bool, what string) error {
	name := strings.TrimSpace(rest)
	if !validName(name) {
		return errf(line, "%s needs an array name, got %q", what, name)
	}
	if set[name] {
		return errf(line, "%s repeated for array %s", what, name)
	}
	set[name] = true
	return nil
}

// Plan is the runtime distribution derived from a DISTRIBUTE directive.
type Plan struct {
	Template Template
	P        int
	Specs    []SpecKind
	// Multi is non-nil for MULTI distributions: the generalized
	// multipartitioning over the MULTI dimensions (collapsed dimensions get
	// γ = 1).
	Multi *core.Multipartitioning
	// BlockDim is the partitioned dimension for BLOCK distributions
	// (−1 otherwise).
	BlockDim int
	// ShadowWidths is the maximum declared shadow width per dimension over
	// the arrays aligned with the template (zero when none).
	ShadowWidths []int
	// PartialReplication is set when any aligned array carries ON_HOME:
	// the runtime should recompute boundary shells locally instead of
	// communicating them (dist.OverheadModel.ReplicationDepth).
	PartialReplication bool
	// LocalArrays lists aligned arrays marked LOCAL, whose shadow-region
	// values need no re-communication.
	LocalArrays []string
}

// PlanTemplate resolves the distribution of a template (or of an array
// aligned with one) into a runtime plan. For a MULTI distribution it
// searches γ under model's objective at the plan's processor count,
// restricted to the MULTI dimensions and capped at their extents; a nil
// model weighs every dimension alike.
func (d *Directives) PlanTemplate(name string, model *cost.Model) (*Plan, error) {
	name = strings.ToUpper(name)
	if al, ok := d.Alignments[name]; ok {
		name = al.Template
	}
	tmpl, ok := d.Templates[name]
	if !ok {
		return nil, fmt.Errorf("hpf: no template or aligned array named %s", name)
	}
	dist, ok := d.Distributions[name]
	if !ok {
		return nil, fmt.Errorf("hpf: template %s has no DISTRIBUTE directive", name)
	}
	procs := d.Processors[dist.Procs]
	p := procs.Size()
	dims := len(tmpl.Eta)

	plan := &Plan{Template: tmpl, P: p, Specs: dist.Specs, BlockDim: -1, ShadowWidths: make([]int, dims)}
	for arr, al := range d.Alignments {
		if al.Template != name {
			continue
		}
		if d.OnHome[arr] {
			plan.PartialReplication = true
		}
		if d.Local[arr] {
			plan.LocalArrays = append(plan.LocalArrays, arr)
		}
		if sh, ok := d.Shadows[arr]; ok {
			if len(sh.Widths) != dims {
				return nil, fmt.Errorf("hpf: SHADOW for %s has %d widths, template %s has %d dimensions",
					arr, len(sh.Widths), name, dims)
			}
			for i, w := range sh.Widths {
				if w > plan.ShadowWidths[i] {
					plan.ShadowWidths[i] = w
				}
			}
		}
	}

	var multiDims, blockDims []int
	for i, s := range dist.Specs {
		switch s {
		case SpecMulti:
			multiDims = append(multiDims, i)
		case SpecBlock:
			blockDims = append(blockDims, i)
		}
	}
	switch {
	case len(multiDims) > 0 && len(blockDims) > 0:
		return nil, fmt.Errorf("hpf: template %s mixes MULTI and BLOCK specifiers; a multipartitioned template distributes every hyperplane over all processors", name)
	case len(multiDims) > 0:
		if len(procs.Shape) > 1 {
			return nil, fmt.Errorf("hpf: template %s: MULTI cannot be distributed onto the %d-dimensional arrangement %s; processors cannot be specified per dimension for a multipartitioning — declare %s(%d) instead",
				name, len(procs.Shape), procs.Name, procs.Name, p)
		}
		m, err := planMulti(p, tmpl.Eta, multiDims, model)
		if err != nil {
			return nil, fmt.Errorf("hpf: template %s: %w", name, err)
		}
		plan.Multi = m
	case len(blockDims) == 1:
		if tmpl.Eta[blockDims[0]] < p {
			return nil, fmt.Errorf("hpf: template %s: BLOCK dimension %d has extent %d < %d processors",
				name, blockDims[0], tmpl.Eta[blockDims[0]], p)
		}
		plan.BlockDim = blockDims[0]
	case len(blockDims) > 1:
		return nil, fmt.Errorf("hpf: template %s: this runtime supports BLOCK on exactly one dimension (got %d)", name, len(blockDims))
	default:
		if p != 1 {
			return nil, fmt.Errorf("hpf: template %s is fully collapsed but %s has %d processors", name, dist.Procs, p)
		}
	}
	return plan, nil
}

// SweepPlan compiles the executable sweep schedule of a MULTI plan for the
// given line solver: the plan.SweepPlan instance the dist and dmem
// runtimes execute, the cost model folds over, and obs dumps. Every
// solver vector gets the template's maximum aligned SHADOW width as its
// halo annotation. Non-MULTI plans (BLOCK, collapsed) have no
// multipartitioned sweep schedule and return an error.
func (p *Plan) SweepPlan(solver sweep.Solver) (*plan.SweepPlan, error) {
	if p.Multi == nil {
		return nil, fmt.Errorf("hpf: template %s is not multipartitioned; only MULTI distributions compile to a sweep plan", p.Template.Name)
	}
	width := 0
	for _, w := range p.ShadowWidths {
		if w > width {
			width = w
		}
	}
	halos := make([]int, solver.NumVecs())
	for i := range halos {
		halos[i] = width
	}
	return plan.Compile(plan.Spec{M: p.Multi, Eta: p.Template.Eta, Solver: solver, Halos: halos})
}

// planMulti searches the optimal partitioning over the MULTI dimensions,
// each capped at its extent (others pinned to γ = 1), and builds the
// generalized multipartitioning.
func planMulti(p int, eta []int, multiDims []int, model *cost.Model) (*core.Multipartitioning, error) {
	gamma := make([]int, len(eta))
	for i := range gamma {
		gamma[i] = 1
	}
	if p == 1 {
		return core.NewGeneralized(1, gamma)
	}
	if len(multiDims) < 2 {
		return nil, fmt.Errorf("MULTI on %d dimension(s) cannot be balanced on %d processors; a multipartitioning needs at least two distributed dimensions", len(multiDims), p)
	}
	// Solve the restricted |multiDims|-dimensional problem.
	full := partition.UniformObjective(len(eta))
	if model != nil {
		full = model.Objective(p, eta)
	}
	sub := partition.Objective{Lambda: make([]float64, len(multiDims))}
	caps := make([]int, len(multiDims))
	for k, dim := range multiDims {
		sub.Lambda[k], caps[k] = full.Lambda[dim], eta[dim]
	}
	res, err := partition.OptimalCapped(p, len(multiDims), sub, caps)
	if err != nil {
		return nil, err
	}
	for k, dim := range multiDims {
		gamma[dim] = res.Gamma[k]
	}
	return core.NewGeneralized(p, gamma)
}
