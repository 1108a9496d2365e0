package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fixtures are the per-rule fixture modules under testdata/src. Each
// is loaded as its own module (named utlb, so package-path-scoped
// rules fire) and linted with the full rule set; the formatted
// findings must match testdata/<name>.golden byte for byte.
var fixtures = []string{
	"goroutine", "nodeterm", "obssafety", "printfpurity",
	"staleignore", "unitshygiene",
}

func lintFixture(t *testing.T, name string) (*Program, []Finding) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return prog, LintProgram(prog, Rules())
}

func TestRuleGoldens(t *testing.T) {
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			prog, findings := lintFixture(t, name)
			var buf bytes.Buffer
			WriteFindings(&buf, findings, prog.Root)

			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("diagnostics drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
			}
		})
	}
}

// TestEachRuleFires asserts every fixture trips its namesake rule at
// least once — the non-zero-exit half of the acceptance criteria.
func TestEachRuleFires(t *testing.T) {
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			_, findings := lintFixture(t, name)
			hit := false
			for _, f := range findings {
				if f.Rule == name {
					hit = true
					break
				}
			}
			if !hit {
				t.Fatalf("fixture %s produced no %s findings: %v", name, name, findings)
			}
		})
	}
}

// TestSuppressionsRespected asserts each fixture contains at least one
// honoured //lint:ignore: the suppressed line must not reappear as a
// finding. (The directives are in the fixture sources; if suppression
// broke, extra findings would also break the goldens — this test makes
// the failure mode explicit.)
func TestSuppressionsRespected(t *testing.T) {
	for _, name := range fixtures {
		prog, findings := lintFixture(t, name)
		sup := 0
		for _, pkg := range prog.Packages {
			s, _ := collectSuppressions(pkg, ruleNames(Rules()))
			for _, byLine := range s {
				sup += len(byLine)
			}
		}
		if sup == 0 {
			t.Errorf("fixture %s has no suppression directives", name)
		}
		for _, f := range findings {
			for _, pkg := range prog.Packages {
				s, _ := collectSuppressions(pkg, ruleNames(Rules()))
				if s.covers(f) {
					t.Errorf("fixture %s: suppressed finding still reported: %v", name, f)
				}
			}
		}
	}
}

// TestRepoIsClean is the self-check: the analyzer must exit clean on
// the repository itself, the same gate cmd/utlblint enforces in CI.
func TestRepoIsClean(t *testing.T) {
	root := repoRoot(t)
	prog, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	findings := LintProgram(prog, Rules())
	if len(findings) > 0 {
		var buf bytes.Buffer
		WriteFindings(&buf, findings, root)
		t.Errorf("utlblint is not clean on the repo:\n%s", buf.String())
	}
}

// TestRepoCoverage guards against the loader silently skipping the
// packages the rules audit: every invariant-bearing package must be
// loaded and type-checked well enough to resolve its own types.
func TestRepoCoverage(t *testing.T) {
	root := repoRoot(t)
	prog, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"utlb",
		"utlb/internal/obs",
		"utlb/internal/units",
		"utlb/internal/sim",
		"utlb/internal/vmmc",
		"utlb/internal/experiments",
		"utlb/internal/tlbcache",
		"utlb/internal/bus",
		"utlb/internal/hostos",
		"utlb/internal/nicsim",
		"utlb/cmd/utlbsim",
	} {
		pkg := prog.ByPath[want]
		if pkg == nil {
			t.Errorf("package %s not loaded", want)
			continue
		}
		if pkg.Types == nil || pkg.TypesInfo == nil || len(pkg.TypesInfo.Defs) == 0 {
			t.Errorf("package %s loaded but not type-checked", want)
		}
	}
	// The kind-name harvest must see the real taxonomy, or the
	// string-literal check silently checks nothing.
	kinds := kindNames(prog, "utlb/internal/obs")
	for _, want := range []string{"cache_hit", "dma_read", "host_pin", "vmmc_send"} {
		if !kinds[want] {
			t.Errorf("kind-name harvest missed %q (got %d names)", want, len(kinds))
		}
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// TestRuleSetComplete pins the full rule roster: the six per-file
// rules, one fixture each. A rule silently dropped from Rules() would
// otherwise fail only when its fixture golden drifted.
func TestRuleSetComplete(t *testing.T) {
	want := fixtures
	rules := Rules()
	if len(rules) != len(want) {
		t.Fatalf("Rules() has %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		if r.Name != want[i] {
			t.Errorf("rule %d = %q, want %q", i, r.Name, want[i])
		}
		if r.Doc == "" {
			t.Errorf("rule %q has no doc line", r.Name)
		}
	}
}

// TestMalformedSuppression pins the framework's handling of bad
// directives: missing reason and unknown rule both surface as
// "suppression" findings instead of silently disabling a check.
func TestMalformedSuppression(t *testing.T) {
	_, findings := lintFixture(t, "nodeterm")
	var got []string
	for _, f := range findings {
		if f.Rule == "suppression" {
			got = append(got, f.Msg)
		}
	}
	if len(got) != 1 || !strings.Contains(got[0], "malformed") {
		t.Errorf("want exactly one malformed-suppression finding, got %v", got)
	}
}
