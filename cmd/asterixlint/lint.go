package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Config names the project-specific types and packages the rules key on.
// Tests override the paths to point at fixture packages.
type Config struct {
	// ErrPkgs are package paths (exact, or prefix when ending in "/")
	// whose discarded error returns are flagged.
	ErrPkgs []string
}

// DefaultConfig is the configuration for this repository.
func DefaultConfig() *Config {
	return &Config{
		ErrPkgs: []string{
			"io", "os", "encoding/",
			"asterix/internal/storage", "asterix/internal/txn",
		},
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Rule is one analyzer check. Run is invoked once per package; Finish,
// when set, runs once after every package has been scanned — it is how
// repo-global analyses (lock-order) report on state accumulated across
// packages. The positions a Finish reports must come from the shared
// loader FileSet.
type Rule struct {
	Name   string
	Doc    string
	Run    func(c *Config, p *Package, report func(token.Pos, string))
	Finish func(c *Config, fset *token.FileSet, report func(token.Pos, string))
}

// AllRules returns every rule in stable order. Rules carrying
// cross-package state are built fresh on each call, so independent
// runs (and tests) do not share graphs.
func AllRules() []*Rule {
	return []*Rule{
		ruleLockHeld(),
		ruleErrDiscard(),
		ruleDeferUnlock(),
		ruleLockOrder(),
		ruleCtxFlow(),
	}
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// suppressions maps file:line to the set of rule names ignored there. A
// directive covers its own line and the next line, so it works both as a
// trailing comment and on the line above the flagged statement. Stacked
// directives chain: when the next line holds another lint:ignore
// directive, coverage extends past it, so several single-rule
// directives above one statement all reach the statement — previously
// only the bottom directive of a stack applied, and a line carrying
// findings from two rules could not be suppressed one rule per
// directive line.
type suppressions map[string]map[string]bool

// supDirective is one reasoned lint:ignore directive, kept for the
// stale-suppression audit: a directive that suppresses nothing in the
// whole run is itself reported.
type supDirective struct {
	rules []string
	keys  []string // the "file:line" keys the directive covers
	pos   token.Pos
}

func collectSuppressions(p *Package, report func(token.Pos, string)) (suppressions, []supDirective) {
	sup := suppressions{}
	var out []supDirective
	for _, f := range p.Files {
		// Lines occupied by a lint:ignore directive, for stack chaining.
		directiveLines := map[string]map[int]bool{}
		type directive struct {
			rules    []string
			filename string
			line     int
			pos      token.Pos
		}
		var directives []directive
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					report(c.Pos(), "lint:ignore directive is missing a reason (//lint:ignore rule reason)")
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if directiveLines[pos.Filename] == nil {
					directiveLines[pos.Filename] = map[int]bool{}
				}
				directiveLines[pos.Filename][pos.Line] = true
				directives = append(directives, directive{
					rules:    strings.Split(m[1], ","),
					filename: pos.Filename,
					line:     pos.Line,
					pos:      c.Pos(),
				})
			}
		}
		for _, d := range directives {
			// Own line, then chain down through any stacked directives
			// to the first non-directive line.
			cover := []int{d.line}
			next := d.line + 1
			for directiveLines[d.filename][next] {
				cover = append(cover, next)
				next++
			}
			cover = append(cover, next)
			sd := supDirective{rules: d.rules, pos: d.pos}
			for _, line := range cover {
				sd.keys = append(sd.keys, fmt.Sprintf("%s:%d", d.filename, line))
			}
			out = append(out, sd)
			for _, rule := range d.rules {
				for _, key := range sd.keys {
					if sup[key] == nil {
						sup[key] = map[string]bool{}
					}
					sup[key][rule] = true
				}
			}
		}
	}
	return sup, out
}

// Runner drives the rules over any number of packages, accumulating
// suppressions and diagnostics globally so that cross-package Finish
// hooks are filtered by the same directives as per-package findings.
type Runner struct {
	c     *Config
	fset  *token.FileSet
	rules []*Rule
	sup   suppressions
	diags []Diagnostic
	stats map[string]int

	// ReportStale enables the stale-suppression audit: a reasoned
	// directive that suppressed nothing across the whole run is reported
	// as "stale-suppression". Only meaningful when every rule runs — a
	// partial -rules selection would call live directives stale.
	ReportStale bool
	directives  []supDirective
	supUsed     map[string]bool // "file:line|rule" pairs that suppressed something
}

func NewRunner(c *Config, fset *token.FileSet, rules []*Rule) *Runner {
	return &Runner{c: c, fset: fset, rules: rules, sup: suppressions{},
		stats: map[string]int{}, supUsed: map[string]bool{}}
}

// add records a finding unless a directive ignores rule at pos, in which
// case it marks that directive as used.
func (r *Runner) add(rule string, pos token.Pos, msg string) {
	p := r.fset.Position(pos)
	key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	if r.sup[key][rule] {
		r.supUsed[key+"|"+rule] = true
		return
	}
	r.stats[rule]++
	r.diags = append(r.diags, Diagnostic{Pos: p, Rule: rule, Msg: msg})
}

// Stats returns per-rule unsuppressed finding counts.
func (r *Runner) Stats() map[string]int { return r.stats }

// Package scans one package with every rule's Run hook.
func (r *Runner) Package(p *Package) {
	sup, directives := collectSuppressions(p, func(pos token.Pos, msg string) {
		r.add("lint-directive", pos, msg)
	})
	r.directives = append(r.directives, directives...)
	for key, rules := range sup {
		if r.sup[key] == nil {
			r.sup[key] = map[string]bool{}
		}
		for rule := range rules {
			r.sup[key][rule] = true
		}
	}
	for _, rule := range r.rules {
		if rule.Run == nil {
			continue
		}
		rule := rule
		rule.Run(r.c, p, func(pos token.Pos, msg string) {
			r.add(rule.Name, pos, msg)
		})
	}
}

// Finish runs the cross-package hooks and returns every unsuppressed
// finding sorted by position.
func (r *Runner) Finish() []Diagnostic {
	for _, rule := range r.rules {
		if rule.Finish == nil {
			continue
		}
		rule := rule
		rule.Finish(r.c, r.fset, func(pos token.Pos, msg string) {
			r.add(rule.Name, pos, msg)
		})
	}
	if r.ReportStale {
		for _, d := range r.directives {
			used := false
			for _, key := range d.keys {
				for _, rule := range d.rules {
					if r.supUsed[key+"|"+rule] {
						used = true
					}
				}
			}
			if !used {
				r.add("stale-suppression", d.pos, fmt.Sprintf(
					"//lint:ignore %s suppresses no finding: delete the directive or re-justify it",
					strings.Join(d.rules, ",")))
			}
		}
	}
	sort.Slice(r.diags, func(i, j int) bool {
		a, b := r.diags[i].Pos, r.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return r.diags
}

// RunRules runs the rules over a single package — Run and Finish hooks
// both — and returns unsuppressed findings sorted by position. Multi-
// package runs use a Runner directly.
func RunRules(c *Config, p *Package, rules []*Rule) []Diagnostic {
	r := NewRunner(c, p.Fset, rules)
	r.ReportStale = true
	r.Package(p)
	return r.Finish()
}

// --- shared type helpers ---

// namedType unwraps pointers and returns the named type, if any.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// isPkgType reports whether t (through pointers) is the named type
// pkgPath.name.
func isPkgType(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// calleeFunc resolves a call's callee to its declared *types.Func (methods
// included), or nil for builtins, conversions, and function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// isChanType reports whether t is a channel type.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return isPkgType(t, "context", "Context")
}
