package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strconv"
	"strings"
	"testing"
)

// TestTranslationPathNeverBlocks holds the translation service's
// locking contract by construction: no shard lock (xlate) and no
// Sink.mu (telemetry) can be held across a blocking operation because
// the code that runs under them has none. It parses the non-test files
// of internal/{xlate,tlbcache,telemetry} and of every module package
// they import, transitively, and fails on a channel type, send or
// receive, a select, a go statement, time.Sleep, a zero-argument
// .Wait() (sync.WaitGroup, sync.Cond) or an import of net or net/...
// Following the imports is what covers a blocking callee: a lock held
// across a call into another package is held across that package's
// code, which this scan reads too.
//
// The same holds for the writer's wait on reader presence (xlate's
// raise): it lasts only as long as a reader's presence section, and
// that section, in xlate's read, calls nothing but atomic Load and
// Store and tlbcache's Probe, so it can neither block nor wait on a
// writer. The test holds read to that list.
func TestTranslationPathNeverBlocks(t *testing.T) {
	const module = "utlb/"
	queue := []string{"internal/xlate", "internal/tlbcache", "internal/telemetry"}
	seen := map[string]bool{}
	for _, dir := range queue {
		seen[dir] = true
	}
	fset := token.NewFileSet()
	blocking := func(n ast.Node, what string) {
		t.Errorf("%s: %s on the translation path; a shard or Sink.mu lock could be held across it", fset.Position(n.Pos()), what)
	}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, path := range programFiles(t, dir) {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			timeName := ""
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				switch {
				case p == "net" || strings.HasPrefix(p, "net/"):
					blocking(imp, "import of "+p)
				case p == "time":
					timeName = "time"
					if imp.Name != nil {
						timeName = imp.Name.Name
					}
				case strings.HasPrefix(p, module):
					if dep := strings.TrimPrefix(p, module); !seen[dep] {
						seen[dep] = true
						queue = append(queue, dep)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ChanType:
					blocking(n, "channel type")
				case *ast.SendStmt:
					blocking(n, "channel send")
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						blocking(n, "channel receive")
					}
				case *ast.SelectStmt:
					blocking(n, "select")
				case *ast.GoStmt:
					blocking(n, "go statement")
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if x, ok := sel.X.(*ast.Ident); ok && timeName != "" && x.Name == timeName && sel.Sel.Name == "Sleep" {
						blocking(n, "time.Sleep")
					}
					if sel.Sel.Name == "Wait" && len(n.Args) == 0 {
						blocking(n, "zero-argument Wait()")
					}
				}
				return true
			})
		}
	}
	checkPresenceSection(t, fset)
	for _, dir := range []string{"internal/obs", "internal/units"} {
		if !seen[dir] {
			t.Errorf("import walk never reached %s; the closure is not being followed", dir)
		}
	}
}

// checkPresenceSection fails t unless xlate's read calls only Load,
// Store and Probe.
func checkPresenceSection(t *testing.T, fset *token.FileSet) {
	allowed := map[string]bool{"Load": true, "Store": true, "Probe": true}
	found := false
	for _, path := range programFiles(t, "internal/xlate") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "read" {
				continue
			}
			found = true
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !allowed[sel.Sel.Name] {
					t.Errorf("%s: read calls %s inside a presence section; it may call only Load, Store and Probe",
						fset.Position(call.Pos()), types.ExprString(call.Fun))
				}
				return true
			})
		}
	}
	if !found {
		t.Error("xlate's read not found; the presence-section check checked nothing")
	}
}
