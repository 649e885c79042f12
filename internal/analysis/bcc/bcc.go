// Package bcc holds the pieces every bcclint analyzer shares: the
// repo-relative package gating that scopes an analyzer to the packages
// whose contract it mechanizes, the test-file filter, and the
// //bcclint:allow escape hatch.
//
// # The escape hatch
//
// A diagnostic is suppressed by an allow directive on the same line as
// the offending node or alone on the line directly above it:
//
//	//bcclint:allow(detpure) Wall is operator-facing and never enters a table
//	start := time.Now()
//
// The parenthesized list names the analyzers being waived (one or
// several, comma-separated). The text after the closing parenthesis is
// the reason and is mandatory: an allow directive with no reason is
// itself reported by every analyzer it names, so the tree can hold
// zero unexplained waivers. Directives naming other analyzers are
// inert for this one — a waiver is always per-contract, never blanket.
package bcc

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/analysis/driver"
)

// Prefix is the directive prefix, after the "//" of a line comment.
const Prefix = "bcclint:allow("

// PathMatches reports whether pkgpath is one of the repo-relative
// package paths in names (each like "internal/dist"): either the
// in-repo spelling "repro/<name>" or any import path ending in
// "/<name>". The suffix form is what lets the CI self-check module —
// a separate module with its own path — still trip the analyzers.
func PathMatches(pkgpath string, names ...string) bool {
	for _, n := range names {
		if pkgpath == "repro/"+n || strings.HasSuffix(pkgpath, "/"+n) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. The determinism and degradation contracts govern production
// compute and serving paths; tests legitimately use wall clocks,
// context.Background, and reference math/rand implementations.
func IsTestFile(pass *driver.Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// Allower indexes the //bcclint:allow directives of a package for one
// analyzer and remembers which source lines they waive.
type Allower struct {
	pass  *driver.Pass
	lines map[string]map[int]bool // filename -> waived line set
}

// NewAllower scans every file of the pass for allow directives naming
// pass.Analyzer and reports the ones that carry no reason. It must be
// called before the analyzer's package gate so a reasonless directive
// anywhere in the tree fails the run, not only in covered packages.
func NewAllower(pass *driver.Pass) *Allower {
	a := &Allower{pass: pass, lines: map[string]map[int]bool{}}
	name := pass.Analyzer.Name
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, reason, ok := parseDirective(c.Text)
				if !ok || !contains(names, name) {
					continue
				}
				if reason == "" {
					pass.Reportf(c.Pos(), "bcclint:allow(%s) needs a reason after the closing parenthesis", name)
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				m := a.lines[pos.Filename]
				if m == nil {
					m = map[int]bool{}
					a.lines[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return a
}

// Allowed reports whether a diagnostic at pos is waived: a reasoned
// directive sits on the same line or on the line directly above.
func (a *Allower) Allowed(pos token.Pos) bool {
	p := a.pass.Fset.Position(pos)
	m := a.lines[p.Filename]
	return m != nil && (m[p.Line] || m[p.Line-1])
}

// Reportf reports a diagnostic unless an allow directive waives it.
func (a *Allower) Reportf(pos token.Pos, format string, args ...any) {
	if a.Allowed(pos) {
		return
	}
	a.pass.Reportf(pos, format, args...)
}

// parseDirective parses "//bcclint:allow(name1,name2) reason". The
// block form "/*bcclint:allow(name) reason*/" is accepted too, for the
// rare line that must carry another trailing comment.
func parseDirective(text string) (names []string, reason string, ok bool) {
	body, found := strings.CutPrefix(text, "//")
	if !found {
		if body, found = strings.CutPrefix(text, "/*"); !found {
			return nil, "", false
		}
		body = strings.TrimSuffix(body, "*/")
	}
	body = strings.TrimLeft(body, " \t")
	body, found = strings.CutPrefix(body, Prefix)
	if !found {
		return nil, "", false
	}
	list, rest, found := strings.Cut(body, ")")
	if !found {
		return nil, "", false
	}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(rest), true
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// DeclaredWithin reports whether the object behind id was declared inside
// the source range [lo, hi) — the closure-locality test the shard
// discipline analyzer runs on every written variable.
func DeclaredWithin(pass *driver.Pass, id *ast.Ident, lo, hi token.Pos) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= lo && obj.Pos() < hi
}
