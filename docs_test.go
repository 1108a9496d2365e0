package utlb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	code      = regexp.MustCompile("(?s)```[a-z]*\n(.*?)```|`([^`]+)`") // a fenced block or a code span
	docPath   = regexp.MustCompile(`[\w./-]+\.go\b|\b(?:internal|cmd)/[\w/.-]*\w`)
	makeCmd   = regexp.MustCompile(`\bmake\s+([a-z][\w-]*)`)
	testName  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*`)
	qualified = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.(?:\(\*(\w+)\)\.(\w+)|(\w+)(?:\.([A-Za-z]\w*))?)`)
	citation  = regexp.MustCompile(`DESIGN(?:\.md)?,? §\w+(?:(?:,| and) §\w+)*`)
)

// TestDocsNameWhatExists holds the prose to the code: every file,
// directory, make target, test and pkg.Ident (or pkg.Type.Method) that
// DESIGN.md, README.md and EXPERIMENTS.md cite must exist, and every
// DESIGN section that they, ROADMAP.md, the Makefile and Go source cite
// by number must be a heading of DESIGN.md. Identifiers resolve against
// each package's declarations as go/parser reads them; a bare §N is
// the paper's section, not DESIGN's.
func TestDocsNameWhatExists(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	paths, tests := map[string]bool{}, map[string]bool{}
	declared := map[string]bool{} // "pkg", "pkg.Name" and "pkg.Type.Method"
	citers := []string{read("ROADMAP.md"), read("Makefile")}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && (p == ".git" || p == ".claude" || p == ".bench_build" || p == "artifacts") {
			return err
		}
		for i := range p { // p and every tail of it after a slash
			if i == 0 || p[i-1] == '/' {
				paths[p[i:]] = true
			}
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.Contains(p, "testdata") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		for _, c := range f.Comments {
			citers = append(citers, c.Text())
		}
		pkg := f.Name.Name
		declared[pkg] = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil { // T, *T, T[K] or *T[K]
					recv, _, _ := strings.Cut(strings.TrimLeft(types.ExprString(n.Recv.List[0].Type), "*"), "[")
					declared[pkg+"."+recv+"."+n.Name.Name] = true
				} else {
					declared[pkg+"."+n.Name.Name] = true
					tests[n.Name.Name] = tests[n.Name.Name] || strings.HasSuffix(p, "_test.go")
				}
				return false
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[pkg+"."+id.Name] = true
				}
			case *ast.TypeSpec:
				declared[pkg+"."+n.Name.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(read("Makefile"), -1) {
		targets[m[1]] = true
	}

	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text := read(doc)
		citers = append(citers, text)
		for _, m := range code.FindAllStringSubmatch(text, -1) {
			c := m[1] + strings.Join(strings.Fields(m[2]), " ")
			for _, p := range docPath.FindAllString(c, -1) {
				if !paths[p] {
					t.Errorf("%s cites %s, which does not exist", doc, p)
				}
			}
			for _, m := range makeCmd.FindAllStringSubmatch(c, -1) {
				if !targets[m[1]] {
					t.Errorf("%s cites make %s, which is no Makefile target", doc, m[1])
				}
			}
		}
		for _, name := range testName.FindAllString(text, -1) {
			if !tests[name] {
				t.Errorf("%s cites %s, which is no test, benchmark, fuzzer or example", doc, name)
			}
		}
		for _, m := range qualified.FindAllStringSubmatch(text, -1) {
			name := strings.TrimSuffix(strings.Join([]string{m[1], m[2] + m[4], m[3] + m[5]}, "."), ".")
			if declared[m[1]] && !strings.HasSuffix(name, ".go") && !strings.Contains(name, "_") && !declared[name] {
				t.Errorf("%s cites %s, which package %s does not declare", doc, name, m[1])
			}
		}
	}

	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\w+)\. `).FindAllStringSubmatch(read("DESIGN.md"), -1) {
		sections[m[1]] = true
	}
	for _, text := range citers {
		for _, c := range citation.FindAllString(strings.Join(strings.Fields(text), " "), -1) {
			for _, n := range regexp.MustCompile(`§(\w+)`).FindAllStringSubmatch(c, -1) {
				if !sections[n[1]] {
					t.Errorf("%q cites DESIGN §%s, which is no section of DESIGN.md", c, n[1])
				}
			}
		}
	}
}
