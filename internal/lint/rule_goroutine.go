package lint

import (
	"go/ast"
)

// goroutinePkgs are the only module-relative package trees allowed to
// start goroutines: the deterministic worker pool (which serializes
// results back into submission order), the HTTP server (whose handlers
// net/http drives concurrently anyway), the sharded translation
// service it hosts (concurrency is that subsystem's purpose; all
// shared state sits behind per-shard locks). Everywhere else a naked
// go statement bypasses the pool's determinism guarantees.
var goroutinePkgs = []string{"internal/parallel", "internal/serve", "internal/xlate"}

func ruleGoroutine() Rule {
	return Rule{
		Name: "goroutine",
		Doc:  "goroutines may only be started inside internal/parallel, internal/serve and internal/xlate; everything else uses the deterministic pool",
		Check: func(prog *Program, pkg *Package) []Finding {
			allowed := make([]string, len(goroutinePkgs))
			for i, p := range goroutinePkgs {
				allowed[i] = prog.Module + "/" + p
			}
			if hasPrefixAny(pkg.ImportPath, allowed) {
				return nil
			}
			var out []Finding
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						out = append(out, Finding{
							Rule: "goroutine", Pos: pkg.Fset.Position(g.Pos()),
							Msg: "naked go statement outside internal/parallel|serve|xlate; route concurrency through the deterministic pool",
						})
					}
					return true
				})
			}
			return out
		},
	}
}
