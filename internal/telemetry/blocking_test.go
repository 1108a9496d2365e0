package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
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
	for _, dir := range []string{"internal/obs", "internal/units"} {
		if !seen[dir] {
			t.Errorf("import walk never reached %s; the closure is not being followed", dir)
		}
	}
}
