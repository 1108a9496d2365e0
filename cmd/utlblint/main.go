// Command utlblint runs the project's static-analysis suite
// (internal/lint) over the module and exits non-zero on any finding.
// It is the standing correctness gate for the repo's cross-cutting
// invariants: determinism at any -parallel width, recording only
// through the nil-safe obs.Tap with event kinds from the taxonomy,
// units-typed cost arithmetic, pooled concurrency, silence in library
// packages, and no suppression that outlives its finding.
//
// Usage:
//
//	utlblint [packages]     # ./... by default; ./internal/... narrows
//	utlblint -list          # describe the rules
//	utlblint -json [pkgs]   # machine-readable findings for CI annotations
//
// Findings print as path:line:col: rule: message. Intentional
// violations are suppressed in the source with
//
//	//lint:ignore <rule> <reason>
//
// on (or directly above) the offending line; the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"utlb/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the registered rules and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (exit status unchanged)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: utlblint [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	rules := lint.Rules()
	if *list {
		for _, r := range rules {
			fmt.Printf("%-14s %s\n", r.Name, r.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	prog, err := lint.Load(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings := lint.LintProgram(prog, rules)
	findings = filterByPatterns(findings, prog, cwd, patterns)

	if *jsonOut {
		if err := writeJSON(os.Stdout, findings, cwd); err != nil {
			fatal(err)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "utlblint: %d finding(s)\n", len(findings))
			os.Exit(1)
		}
		return
	}
	if n := lint.WriteFindings(os.Stdout, findings, cwd); n > 0 {
		fmt.Fprintf(os.Stderr, "utlblint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// jsonFinding is the CI-annotation shape: one object per finding with
// the path rebased to the invocation directory.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// writeJSON emits the findings as a JSON array (never null: an empty
// run produces []), matching the text output's path rebasing so both
// modes agree line for line.
func writeJSON(w *os.File, findings []lint.Finding, base string) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		out = append(out, jsonFinding{
			File: name, Line: f.Pos.Line, Col: f.Pos.Column, Rule: f.Rule, Msg: f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "utlblint: %v\n", err)
	os.Exit(2)
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// filterByPatterns keeps findings under the directories the go-style
// package patterns name: "./..." keeps everything below its base,
// "./internal/sim" exactly that directory.
func filterByPatterns(findings []lint.Finding, prog *lint.Program, cwd string, patterns []string) []lint.Finding {
	type scope struct {
		dir       string
		recursive bool
	}
	var scopes []scope
	for _, p := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			rec = true
			p = rest
			if p == "." || p == "" {
				p = "."
			}
		}
		dir := p
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		scopes = append(scopes, scope{dir: filepath.Clean(dir), recursive: rec})
	}
	var out []lint.Finding
	for _, f := range findings {
		dir := filepath.Dir(f.Pos.Filename)
		for _, s := range scopes {
			if dir == s.dir || (s.recursive && strings.HasPrefix(dir, s.dir+string(filepath.Separator))) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}
