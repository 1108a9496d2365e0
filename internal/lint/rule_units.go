package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// unitsPkgs are the cost-model packages whose arithmetic mirrors the
// paper's Tables 1–2. Mixing a units-typed quantity with a bare
// integer literal there ("cost + 1500") silently encodes a magic
// number in the wrong unit; the literal must be wrapped in a units
// conversion or a named constant (units.FromMicros, units.Microsecond,
// DefaultCosts fields).
var unitsPkgs = []string{
	"internal/hostos", "internal/bus", "internal/nicsim", "internal/tlbcache",
}

// unitsArithOps are the arithmetic operators the rule audits.
// Comparisons are exempt: "t > 0" is idiomatic and unit-safe.
var unitsArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true,
	token.QUO: true, token.REM: true,
}

func ruleUnits() Rule {
	return Rule{
		Name: "unitshygiene",
		Doc:  "cost-model arithmetic must not mix units-typed quantities with bare integer literals",
		Check: func(prog *Program, pkg *Package) []Finding {
			audited := make([]string, len(unitsPkgs))
			for i, p := range unitsPkgs {
				audited[i] = prog.Module + "/" + p
			}
			if !hasPrefixAny(pkg.ImportPath, audited) {
				return nil
			}
			unitsPath := prog.Module + "/internal/units"
			var out []Finding
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					b, ok := n.(*ast.BinaryExpr)
					if !ok || !unitsArithOps[b.Op] {
						return true
					}
					var lit *ast.BasicLit
					var quantity ast.Expr
					switch {
					case isBareIntLit(b.X) && namedFromPkg(pkg.typeOf(b.Y), unitsPath):
						lit, quantity = b.X.(*ast.BasicLit), b.Y
					case isBareIntLit(b.Y) && namedFromPkg(pkg.typeOf(b.X), unitsPath):
						lit, quantity = b.Y.(*ast.BasicLit), b.X
					default:
						return true
					}
					out = append(out, Finding{
						Rule: "unitshygiene", Pos: pkg.Fset.Position(lit.Pos()),
						Msg: fmt.Sprintf("bare literal %s mixed with %s quantity %s; wrap it in a units conversion or named constant",
							lit.Value, typeLabel(pkg.typeOf(quantity)), types.ExprString(quantity)),
					})
					return true
				})
			}
			return out
		},
	}
}

// isBareIntLit reports whether e is an integer literal other than 0
// (adding or comparing against zero is always unit-safe).
func isBareIntLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value != "0"
}

// typeLabel renders a type concisely (pkgname.Type) for diagnostics.
func typeLabel(t types.Type) string {
	if t == nil {
		return "units"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
