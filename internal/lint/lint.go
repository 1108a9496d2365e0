// Package lint is the project's static-analysis framework: a
// stdlib-only (go/ast + go/parser + go/types, no go/packages) analyzer
// suite that enforces the repo's cross-cutting invariants at the
// source level — determinism at any -parallel width, recording only
// through the nil-safe obs.Tap with event kinds from the taxonomy,
// units-typed cost arithmetic, pooled concurrency, silence in library
// packages, and no suppression that outlives its finding.
//
// The framework loads the whole module (load.go), runs every
// registered Rule over every package, honours per-line
// "//lint:ignore <rule> <reason>" suppressions, and reports findings
// with file:line:col positions. The cmd/utlblint driver walks ./...
// and exits non-zero on any finding; make lint and CI block on it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic: a rule name, a source position and a
// human-readable message.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

// String formats the finding as path:line:col: rule: message, with the
// path as recorded (absolute unless the caller rebased it).
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Rule is one named invariant check. Check sees the whole Program so
// rules can consult other packages (the obs-safety rule harvests the
// event-kind taxonomy from the obs package source), but reports
// findings for pkg only.
type Rule struct {
	// Name is the identifier used in diagnostics and in
	// //lint:ignore comments.
	Name string
	// Doc is a one-line description of the invariant the rule protects.
	Doc string
	// Check reports the rule's findings in pkg.
	Check func(prog *Program, pkg *Package) []Finding
}

// Rules returns the full registered rule set, sorted by name.
func Rules() []Rule {
	rules := []Rule{
		ruleGoroutine(),
		ruleNodeterm(),
		ruleObsSafety(),
		rulePrintf(),
		ruleUnits(),
		ruleStaleIgnore(),
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	return rules
}

// ruleNames reports the set of valid rule names (for suppression
// validation).
func ruleNames(rules []Rule) map[string]bool {
	names := make(map[string]bool, len(rules))
	for _, r := range rules {
		names[r.Name] = true
	}
	return names
}

// suppression is one parsed //lint:ignore directive. The same
// suppression value is shared between the two lines it covers, so
// marking it used from either line sticks — the staleignore pass
// reports the ones that never fired.
type suppression struct {
	rule   string
	reason string
	pos    token.Position
	used   bool
}

// suppressions maps file name → line → directives covering that line.
// A directive covers its own line (trailing comment) and the next line
// (comment above the statement).
type suppressions map[string]map[int][]*suppression

// collectSuppressions parses every //lint:ignore comment in pkg.
// Malformed directives (missing rule or reason, or an unknown rule
// name) are reported as findings under the pseudo-rule "suppression"
// so a typo cannot silently disable a check.
func collectSuppressions(pkg *Package, valid map[string]bool) (suppressions, []Finding) {
	sup := suppressions{}
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
				rule, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				switch {
				case rule == "" || reason == "":
					bad = append(bad, Finding{
						Rule: "suppression", Pos: pos,
						Msg: "malformed //lint:ignore: want //lint:ignore <rule> <reason>",
					})
					continue
				case !valid[rule]:
					bad = append(bad, Finding{
						Rule: "suppression", Pos: pos,
						Msg: fmt.Sprintf("//lint:ignore names unknown rule %q", rule),
					})
					continue
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*suppression{}
					sup[pos.Filename] = byLine
				}
				s := &suppression{rule: rule, reason: reason, pos: pos}
				byLine[pos.Line] = append(byLine[pos.Line], s)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], s)
			}
		}
	}
	return sup, bad
}

// covers reports whether a directive for f.Rule covers f.Pos, marking
// the directive used so the staleignore pass can spot dead ones.
func (s suppressions) covers(f Finding) bool {
	return s.coversExcept(f, nil)
}

// coversExcept is covers with one directive excluded from matching —
// the staleignore pass uses it so a "//lint:ignore staleignore" can
// never suppress the finding about its own deadness.
func (s suppressions) coversExcept(f Finding, except *suppression) bool {
	hit := false
	for _, d := range s[f.Pos.Filename][f.Pos.Line] {
		if d != except && d.rule == f.Rule {
			d.used = true
			hit = true
		}
	}
	return hit
}

// directives returns every distinct directive in s, sorted by
// position.
func (s suppressions) directives() []*suppression {
	seen := map[*suppression]bool{}
	var out []*suppression
	for _, byLine := range s {
		for _, ds := range byLine {
			for _, d := range ds {
				if !seen[d] {
					seen[d] = true
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	return out
}

// LintProgram runs rules over every package of prog and returns the
// unsuppressed findings sorted by position then rule.
func LintProgram(prog *Program, rules []Rule) []Finding {
	valid := ruleNames(rules)
	var out []Finding
	for _, pkg := range prog.Packages {
		sup, bad := collectSuppressions(pkg, valid)
		out = append(out, bad...)
		for _, r := range rules {
			for _, f := range r.Check(prog, pkg) {
				if !sup.covers(f) {
					out = append(out, f)
				}
			}
		}
		// staleignore: every well-formed directive that suppressed
		// nothing above is dead. The finding lands on the directive's
		// own line, so a //lint:ignore staleignore <why> immediately
		// above (or trailing on the same line) can keep it — but a
		// directive never vouches for itself. Ordinary directives are
		// judged first so that keeping one marks its staleignore
		// keeper used before the keeper itself is judged.
		if valid["staleignore"] {
			for _, phase := range []bool{false, true} {
				for _, d := range sup.directives() {
					if d.used || (d.rule == "staleignore") != phase {
						continue
					}
					f := Finding{
						Rule: "staleignore", Pos: d.pos,
						Msg: fmt.Sprintf("//lint:ignore %s suppresses no finding; delete it or restore the contract it documents", d.rule),
					}
					if !sup.coversExcept(f, d) {
						out = append(out, f)
					}
				}
			}
		}
	}
	SortFindings(out)
	return out
}

// SortFindings orders findings by file, line, column, then rule.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// WriteFindings prints one finding per line with paths rebased to be
// relative to base (slash-separated, for stable output across
// machines). It returns the number of findings written.
func WriteFindings(w io.Writer, findings []Finding, base string) int {
	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", name, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
	}
	return len(findings)
}

// walkStack traverses every file of pkg calling fn with the ancestor
// stack (outermost first, not including n) for each node. Rules use it
// where a check needs enclosing context — the statement after a range
// loop, or the function wrapping a call.
func walkStack(file *ast.File, fn func(stack []ast.Node, n ast.Node)) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(stack, n)
		stack = append(stack, n)
		return true
	})
}
