// Package lint implements piranha-vet, the repository's static-analysis
// suite. Three analyzers enforce the properties the simulator's value
// rests on but the compiler cannot check (DESIGN.md §8):
//
//   - determinism: nothing may leak host nondeterminism (wall-clock
//     time, global math/rand, unsorted map iteration feeding output or
//     event scheduling, goroutines outside internal/runner) into a
//     simulation whose serial and parallel runs must be byte-identical.
//   - hotpath: functions annotated //piranha:hotpath must stay free of
//     allocation-introducing constructs (closures, defer, fmt, string
//     concatenation, map/slice literals, interface conversions).
//   - protocoltable: the directory-protocol dispatch in
//     internal/pe/transactions.go must cover the full cross-product of
//     protocol states and message kinds, with deliberate holes recorded
//     in a //piranha:unreachable ledger, and no NAK may be sent.
//
// The suite is built on the standard library's go/ast, go/parser and
// go/types only — no golang.org/x/tools dependency — via the module
// loader in load.go.
//
// Annotation and suppression grammar (all as //-comments):
//
//	//piranha:hotpath                      (function doc comment)
//	//piranha:unreachable STATE MSG reason (protocol file, * wildcards)
//	//piranha:allow analyzer reason        (same line as the finding or
//	                                        the line directly above)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, in module-relative file coordinates.
type Diagnostic struct {
	File     string // module-relative, slash-separated
	Line     int
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Analyzer is one named check, run over every package of the module.
type Analyzer struct {
	Name string
	Run  func(m *Module, p *Package) []Diagnostic
}

// Directive comment prefixes.
const (
	dirAllow       = "//piranha:allow"
	dirHotpath     = "//piranha:hotpath"
	dirUnreachable = "//piranha:unreachable"
)

// Run executes the analyzers over every package, applies
// //piranha:allow suppressions, and returns the surviving diagnostics
// sorted by position.
func Run(m *Module, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, p := range m.Pkgs {
			diags = append(diags, a.Run(m, p)...)
		}
	}
	diags = append(diags, m.checkDirectives()...)
	diags = m.applyAllows(diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// relPos converts a token position to module-relative (file, line).
func (m *Module) relPos(pos token.Pos) (string, int) {
	p := m.Fset.Position(pos)
	rel, err := filepath.Rel(m.Root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line
}

// diag builds a Diagnostic at pos.
func (m *Module) diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	file, line := m.relPos(pos)
	return Diagnostic{File: file, Line: line, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// hasDirective reports whether a doc comment carries the directive
// (exact line, optionally with trailing text after a space).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// allowKey identifies one suppression site.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allows collects every well-formed //piranha:allow directive in the
// module, keyed by (file, line, analyzer).
func (m *Module) allows() map[allowKey]bool {
	out := make(map[allowKey]bool)
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, dirAllow)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						continue // malformed; reported by checkDirectives
					}
					file, line := m.relPos(c.Pos())
					out[allowKey{file, line, fields[0]}] = true
				}
			}
		}
	}
	return out
}

// applyAllows drops diagnostics suppressed by a matching
// //piranha:allow on the same line or the line directly above.
func (m *Module) applyAllows(diags []Diagnostic) []Diagnostic {
	allows := m.allows()
	out := diags[:0]
	for _, d := range diags {
		if allows[allowKey{d.File, d.Line, d.Analyzer}] ||
			allows[allowKey{d.File, d.Line - 1, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// checkDirectives reports malformed //piranha:allow directives (a
// suppression with no analyzer name or no reason silently suppresses
// nothing, which must not pass unnoticed).
func (m *Module) checkDirectives() []Diagnostic {
	var out []Diagnostic
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, dirAllow)
					if !ok {
						continue
					}
					if len(strings.Fields(rest)) < 2 {
						out = append(out, m.diag("directive", c.Pos(),
							"malformed %s: want \"%s analyzer reason\"", dirAllow, dirAllow))
					}
				}
			}
		}
	}
	return out
}

// relPkg returns p's module-relative directory ("" for the root
// package).
func (m *Module) relPkg(p *Package) string {
	if p.Path == m.Path {
		return ""
	}
	return strings.TrimPrefix(p.Path, m.Path+"/")
}

// calleeName returns the bare name of a call's callee: the identifier,
// or the selected method/function name ("" when dynamic).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
