package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ruleAtomicHygiene enforces all-or-nothing atomicity on shared
// counters, in both styles the repo uses:
//
//   - Old-style sync/atomic calls: a field or package var that is
//     passed to atomic.AddInt64/LoadUint64/... anywhere must be
//     accessed through sync/atomic everywhere. One plain read of a
//     counter that is atomically written is a data race the race
//     detector only catches if the schedule cooperates; the analyzer
//     catches it on every run.
//
//   - Typed atomics (atomic.Int64 & friends): a struct containing
//     them must never be copied — the copy forks the counter state.
//     Value receivers, by-value parameters, by-value range iteration
//     and plain copy assignments are all findings.
//
// Like the lock-class analysis, detection of sync/atomic types is
// syntactic on the import-resolved qualifier (the placeholder stdlib
// never yields real atomic types), while the module-side objects —
// the fields and structs being protected — resolve exactly.
func ruleAtomicHygiene() Rule {
	return Rule{
		Name: "atomichygiene",
		Doc:  "a field accessed via sync/atomic anywhere must be accessed atomically everywhere, and structs with typed atomics must not be copied",
		Check: func(prog *Program, pkg *Package) []Finding {
			a := prog.analysis()
			if a.atomicFindings == nil {
				a.atomicFindings = computeAtomicFindings(prog)
			}
			return a.atomicFindings[pkg.ImportPath]
		},
	}
}

// atomicTypeNames are the typed-atomic wrappers in sync/atomic.
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Pointer": true,
	"Uint32": true, "Uint64": true, "Uintptr": true, "Value": true,
}

// isAtomicTypeExpr reports whether the type expression denotes a
// sync/atomic wrapper type, directly ([N]atomic.Int64 included) or
// behind a generic instantiation (atomic.Pointer[T]).
func isAtomicTypeExpr(pkg *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ArrayType:
		return isAtomicTypeExpr(pkg, e.Elt)
	case *ast.IndexExpr:
		return isAtomicTypeExpr(pkg, e.X)
	case *ast.SelectorExpr:
		q, ok := e.X.(*ast.Ident)
		if !ok || pkg.pkgPathOf(q) != "sync/atomic" {
			return false
		}
		return atomicTypeNames[e.Sel.Name]
	}
	return false
}

// computeAtomicFindings runs both analyses over the whole program and
// groups findings by import path.
func computeAtomicFindings(prog *Program) map[string][]Finding {
	findings := map[string][]Finding{}
	report := func(pkg *Package, pos token.Pos, msg string) {
		findings[pkg.ImportPath] = append(findings[pkg.ImportPath], Finding{
			Rule: "atomichygiene", Pos: pkg.Fset.Position(pos), Msg: msg,
		})
	}

	// Pass 1a: index every variable whose address is taken inside a
	// sync/atomic call — the old-style atomic set — with a stable
	// diagnostic name for messages.
	atomicVars := map[*types.Var]string{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, _, ok := pkg.calleePkgFunc(call); !ok || path != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					un, ok := arg.(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					if v := fieldOrVarOf(pkg, un.X); v != nil {
						if _, seen := atomicVars[v]; !seen {
							atomicVars[v] = diagName(pkg, un.X, v)
						}
					}
				}
				return true
			})
		}
	}

	// Pass 1b: flag every use of an atomic var outside a sync/atomic
	// call argument.
	for _, pkg := range prog.Packages {
		if len(atomicVars) == 0 {
			break
		}
		for _, file := range pkg.Files {
			walkStack(file, func(stack []ast.Node, x ast.Node) {
				id, ok := x.(*ast.Ident)
				if !ok {
					return
				}
				v, ok := pkg.TypesInfo.Uses[id].(*types.Var)
				if !ok {
					return
				}
				name, tracked := atomicVars[v]
				if !tracked || underAtomicCall(pkg, stack) {
					return
				}
				report(pkg, id.Pos(), fmt.Sprintf(
					"%s is accessed via sync/atomic elsewhere; this plain access races", name))
			})
		}
	}

	// Pass 2a: collect module struct types holding typed atomics.
	atomicStructs := map[*types.TypeName]string{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if isAtomicTypeExpr(pkg, field.Type) {
							if tn, ok := pkg.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
								atomicStructs[tn] = pkg.ImportPath + "." + ts.Name.Name
							}
							break
						}
					}
				}
			}
		}
	}

	// Pass 2b: flag copies of those structs.
	for _, pkg := range prog.Packages {
		if len(atomicStructs) == 0 {
			break
		}
		structName := func(t types.Type) (string, bool) {
			if t == nil {
				return "", false
			}
			n, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return "", false
			}
			name, tracked := atomicStructs[n.Obj()]
			return name, tracked
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncDecl:
					if x.Recv != nil {
						for _, field := range x.Recv.List {
							if name, ok := structName(pkg.typeOf(field.Type)); ok {
								report(pkg, field.Pos(), fmt.Sprintf(
									"value receiver copies %s, which contains sync/atomic fields; use a pointer receiver", name))
							}
						}
					}
					for _, field := range x.Type.Params.List {
						if name, ok := structName(pkg.typeOf(field.Type)); ok {
							report(pkg, field.Pos(), fmt.Sprintf(
								"by-value parameter copies %s, which contains sync/atomic fields; pass a pointer", name))
						}
					}
				case *ast.RangeStmt:
					if x.Value != nil {
						t := pkg.typeOf(x.Value)
						if t == nil {
							// A range define (for _, g := range ...) records
							// the value var in Defs, not Types.
							if id, ok := x.Value.(*ast.Ident); ok {
								if v, ok := pkg.TypesInfo.Defs[id].(*types.Var); ok {
									t = v.Type()
								}
							}
						}
						if name, ok := structName(t); ok {
							report(pkg, x.Value.Pos(), fmt.Sprintf(
								"by-value range copies %s elements, which contain sync/atomic fields; iterate by index", name))
						}
					}
				case *ast.AssignStmt:
					for _, rhs := range x.Rhs {
						switch rhs.(type) {
						case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
							if name, ok := structName(pkg.typeOf(rhs)); ok {
								report(pkg, rhs.Pos(), fmt.Sprintf(
									"copy of %s, which contains sync/atomic fields; take its address instead", name))
							}
						}
					}
				}
				return true
			})
		}
	}

	for _, fs := range findings {
		SortFindings(fs)
	}
	return findings
}

// underAtomicCall reports whether the stack crosses a sync/atomic
// call — address-taking argument positions are the legitimate use.
func underAtomicCall(pkg *Package, stack []ast.Node) bool {
	for _, a := range stack {
		if call, ok := a.(*ast.CallExpr); ok {
			if path, _, ok := pkg.calleePkgFunc(call); ok && path == "sync/atomic" {
				return true
			}
		}
	}
	return false
}

// diagName renders a variable's diagnostic name. For a field, the
// owning struct type comes from the selector's receiver at the
// indexing site (types.Var has no owner back-pointer).
func diagName(pkg *Package, at ast.Expr, v *types.Var) string {
	owner := ""
	if v.Pkg() != nil {
		owner = v.Pkg().Path()
	}
	if v.IsField() {
		if sel, ok := at.(*ast.SelectorExpr); ok {
			if t := pkg.typeOf(sel.X); t != nil {
				if p, ok := types.Unalias(t).(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := types.Unalias(t).(*types.Named); ok {
					return fmt.Sprintf("field %s.%s.%s", owner, named.Obj().Name(), v.Name())
				}
			}
		}
		return fmt.Sprintf("field %s.%s", owner, v.Name())
	}
	return fmt.Sprintf("%s.%s", owner, v.Name())
}
