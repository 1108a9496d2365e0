package lint

import (
	"fmt"
	"go/ast"
)

// stdoutFuncs are the fmt functions that write to process stdout.
// fmt.Fprintf & friends take an explicit io.Writer and are fine;
// fmt.Sprintf returns a value and is fine.
var stdoutFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
}

// rulePrintf keeps library packages silent: simulation code returns
// values and writes to injected io.Writers; the process's stdout,
// stderr and global logger belong to cmd/.
func rulePrintf() Rule {
	return Rule{
		Name: "printfpurity",
		Doc:  "library packages (internal/...) must not write to stdout or the global logger; output belongs to cmd/",
		Check: func(prog *Program, pkg *Package) []Finding {
			if !hasPrefixAny(pkg.ImportPath, []string{prog.Module + "/internal"}) {
				return nil
			}
			var out []Finding
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "print" || id.Name == "println") {
						out = append(out, Finding{
							Rule: "printfpurity", Pos: pkg.Fset.Position(call.Pos()),
							Msg: fmt.Sprintf("builtin %s writes to stderr; library packages stay silent", id.Name),
						})
						return true
					}
					path, name, ok := pkg.calleePkgFunc(call)
					if !ok {
						return true
					}
					switch {
					case path == "fmt" && stdoutFuncs[name]:
						out = append(out, Finding{
							Rule: "printfpurity", Pos: pkg.Fset.Position(call.Pos()),
							Msg: fmt.Sprintf("fmt.%s writes to stdout from a library package; return values or take an io.Writer", name),
						})
					case path == "log" || path == "log/slog":
						out = append(out, Finding{
							Rule: "printfpurity", Pos: pkg.Fset.Position(call.Pos()),
							Msg: fmt.Sprintf("%s.%s uses the global logger from a library package; output belongs to cmd/", path, name),
						})
					}
					return true
				})
			}
			return out
		},
	}
}
