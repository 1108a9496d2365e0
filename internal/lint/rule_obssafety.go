package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// ruleObsSafety enforces the observability subsystem's two contracts:
//
//  1. Recording must stay zero-overhead when disabled, and the type
//     that guarantees it is *obs.Tap, whose nil value is the disabled
//     path. So (obs.Recorder).Record is called only inside internal/obs
//     and by Recorder implementations (a method of a type that has a
//     Record method of its own: a forwarding recorder such as
//     event.Sequencer). Every other layer records through its Tap.
//
//  2. Event kinds are a closed taxonomy: obs.Kind values come from the
//     declared constants. Comparing kind names against string literals
//     or fabricating kinds from numeric literals silently desyncs from
//     the taxonomy when it grows.
func ruleObsSafety() Rule {
	return Rule{
		Name: "obssafety",
		Doc:  "only internal/obs and Recorder implementations call Record (layers record through *obs.Tap), and obs.Kind values must come from the taxonomy constants",
		Check: func(prog *Program, pkg *Package) []Finding {
			obsPath := prog.Module + "/internal/obs"
			if pkg.ImportPath == obsPath {
				// The obs package defines the taxonomy and the
				// recorder implementations; its internals are exempt.
				return nil
			}
			kinds := kindNames(prog, obsPath)
			var out []Finding
			for _, file := range pkg.Files {
				walkStack(file, func(stack []ast.Node, n ast.Node) {
					switch n := n.(type) {
					case *ast.CallExpr:
						out = append(out, checkRecordCall(pkg, obsPath, stack, n)...)
						out = append(out, checkKindConversion(pkg, obsPath, n)...)
					case *ast.BinaryExpr:
						if n.Op == token.EQL || n.Op == token.NEQ {
							out = append(out, checkKindLiteral(pkg, kinds, n.X)...)
							out = append(out, checkKindLiteral(pkg, kinds, n.Y)...)
						}
					case *ast.CaseClause:
						for _, e := range n.List {
							out = append(out, checkKindLiteral(pkg, kinds, e)...)
						}
					}
				})
			}
			return out
		},
	}
}

// kindNames harvests the display names of every event kind from the
// obs package's kindMetas table, so the literal check tracks the
// taxonomy without a hand-maintained copy.
func kindNames(prog *Program, obsPath string) map[string]bool {
	names := map[string]bool{}
	obs := prog.ByPath[obsPath]
	if obs == nil {
		return names
	}
	for _, file := range obs.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range spec.Names {
				if name.Name != "kindMetas" || i >= len(spec.Values) {
					continue
				}
				lit, ok := spec.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					meta, ok := kv.Value.(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, f := range meta.Elts {
						fkv, ok := f.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if id, ok := fkv.Key.(*ast.Ident); !ok || id.Name != "name" {
							continue
						}
						if s, ok := fkv.Value.(*ast.BasicLit); ok && s.Kind == token.STRING {
							if v, err := strconv.Unquote(s.Value); err == nil {
								names[v] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return names
}

// checkRecordCall flags x.Record(...) on an obs.Recorder-typed x
// anywhere but in a method of a type that is itself a recorder.
func checkRecordCall(pkg *Package, obsPath string, stack []ast.Node, call *ast.CallExpr) []Finding {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Record" {
		return nil
	}
	if !namedFrom(pkg.typeOf(sel.X), obsPath, "Recorder") {
		return nil
	}
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok && isRecorderMethod(pkg, fd) {
			return nil
		}
	}
	return []Finding{{
		Rule: "obssafety", Pos: pkg.Fset.Position(call.Pos()),
		Msg: fmt.Sprintf("(obs.Recorder).Record on %s outside a Recorder implementation; record through an *obs.Tap, whose nil value is the disabled path", types.ExprString(sel.X)),
	}}
}

// isRecorderMethod reports whether fd is a method of a type that has a
// Record method.
func isRecorderMethod(pkg *Package, fd *ast.FuncDecl) bool {
	fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ptr := t.(*types.Pointer); !ptr {
		t = types.NewPointer(t)
	}
	return types.NewMethodSet(t).Lookup(nil, "Record") != nil
}

// checkKindLiteral flags a string literal that spells an event-kind
// name where it is being compared or switched on: the comparison
// should use obs.KindX / obs.KindX.String().
func checkKindLiteral(pkg *Package, kinds map[string]bool, e ast.Expr) []Finding {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	v, err := strconv.Unquote(lit.Value)
	if err != nil || !kinds[v] {
		return nil
	}
	return []Finding{{
		Rule: "obssafety", Pos: pkg.Fset.Position(lit.Pos()),
		Msg: fmt.Sprintf("string literal %q duplicates an event-kind name; compare against the obs.Kind constant's String() instead", v),
	}}
}

// checkKindConversion flags obs.Kind(<integer literal>): kinds are a
// closed enum, so numeric construction silently desyncs when the
// taxonomy is reordered or grown.
func checkKindConversion(pkg *Package, obsPath string, call *ast.CallExpr) []Finding {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Kind" || len(call.Args) != 1 {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pkg.pkgPathOf(id) != obsPath {
		return nil
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return nil
	}
	return []Finding{{
		Rule: "obssafety", Pos: pkg.Fset.Position(call.Pos()),
		Msg: fmt.Sprintf("obs.Kind(%s) fabricates a kind from a numeric literal; use the taxonomy constants", lit.Value),
	}}
}
