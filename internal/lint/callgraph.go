package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural layer under the summary-based
// lockdiscipline rule and the blocking analysis it rests on: a
// cross-package call graph over every function the loader
// type-checked, built from statically resolvable calls, function and
// method value references, and conservative interface dispatch to the
// module's own implementations. Calls through plain function values
// (parameters, struct fields of func type) and through stdlib
// interfaces are not in the graph — the rule documents those holes and
// the repo's -race suites backstop them.

// EdgeKind distinguishes how a call-graph edge was discovered.
type EdgeKind int

const (
	// EdgeCall is a statically resolved direct call: pkg.F(...), a
	// method call on a concrete receiver, or a local function call.
	EdgeCall EdgeKind = iota
	// EdgeRef is a function or method value reference (f := v.M;
	// handler(s.serve)). The reference site may not call the function,
	// but the summaries treat it as a possible call — conservative in
	// the direction that never hides an effect.
	EdgeRef
	// EdgeIface is an interface-dispatch edge: a call through a
	// module-declared interface method, linked to every module type
	// that implements the interface (class-hierarchy style).
	EdgeIface
)

// Edge is one call-graph edge, anchored at the call or reference site.
type Edge struct {
	Callee *FuncNode
	Pos    token.Pos
	Kind   EdgeKind
}

// FuncNode is one function or method of the module.
type FuncNode struct {
	// ID is the stable diagnostic name:
	// "utlb/internal/xlate.Service.LookupMany" (receiver unstarred) or
	// "utlb/internal/sim.RunWith".
	ID   string
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls holds the outgoing edges in source order.
	Calls []Edge

	sum summary
}

// Callgraph indexes the module's functions and their edges.
type Callgraph struct {
	// Nodes maps the type-checker's function objects to nodes.
	Nodes map[*types.Func]*FuncNode
	// ByID indexes nodes by their diagnostic name.
	ByID map[string]*FuncNode
}

// funcID renders the diagnostic name of f: package path, unstarred
// receiver type for methods, then the function name.
func funcID(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + f.Name()
		}
	}
	return pkg + "." + f.Name()
}

// funcObjOf resolves the callee expression of a call (or a bare
// function/method reference) to its type-checker object, or nil for
// anything dynamic: function-typed locals, unresolved stdlib members.
func (pkg *Package) funcObjOf(e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return pkg.funcObjOf(e.X)
	case *ast.Ident:
		if f, ok := pkg.TypesInfo.Uses[e].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[e]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified: fmt.Println, sim.RunWith.
		if f, ok := pkg.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvInterface reports the interface type f is declared on, or nil
// when f is a concrete function or method.
func recvInterface(f *types.Func) *types.Interface {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}

// buildCallgraph constructs the graph: one node per declared function
// with a body, edges from calls, value references and interface
// dispatch. GoStmt subtrees are excluded everywhere — a spawned
// goroutine's work is not part of the spawner's own execution, and the
// goroutine-confinement rule already polices where spawning happens.
func buildCallgraph(prog *Program) *Callgraph {
	g := &Callgraph{
		Nodes: map[*types.Func]*FuncNode{},
		ByID:  map[string]*FuncNode{},
	}
	// Pass 1: nodes, plus the concrete-method index interface dispatch
	// resolves against.
	methodsByName := map[string][]*FuncNode{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{ID: funcID(obj), Obj: obj, Decl: fd, Pkg: pkg}
				g.Nodes[obj] = n
				g.ByID[n.ID] = n
				if fd.Recv != nil {
					methodsByName[fd.Name.Name] = append(methodsByName[fd.Name.Name], n)
				}
			}
		}
	}
	for _, ms := range methodsByName {
		sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	}
	// Pass 2: edges.
	for _, n := range g.Nodes {
		collectEdges(g, n, methodsByName)
	}
	return g
}

// implementers resolves an interface method to the module methods that
// can satisfy the dispatch: same name, receiver type implementing the
// interface (by value or by pointer).
func implementers(f *types.Func, methodsByName map[string][]*FuncNode) []*FuncNode {
	iface := recvInterface(f)
	if iface == nil {
		return nil
	}
	var out []*FuncNode
	for _, cand := range methodsByName[f.Name()] {
		sig, _ := cand.Obj.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) {
			out = append(out, cand)
			continue
		}
		if _, isPtr := types.Unalias(rt).(*types.Pointer); !isPtr {
			if types.Implements(types.NewPointer(rt), iface) {
				out = append(out, cand)
			}
		}
	}
	return out
}

// collectEdges walks n's body recording call, reference and dispatch
// edges. FuncLit bodies are attributed to the enclosing declaration
// (a closure's calls run on the creator's behalf when invoked); only
// GoStmt subtrees are cut.
func collectEdges(g *Callgraph, n *FuncNode, methodsByName map[string][]*FuncNode) {
	pkg := n.Pkg
	add := func(callee *FuncNode, pos token.Pos, kind EdgeKind) {
		if callee != nil && callee != n {
			n.Calls = append(n.Calls, Edge{Callee: callee, Pos: pos, Kind: kind})
		} else if callee == n {
			// Self-recursion still matters for summary fixpoints.
			n.Calls = append(n.Calls, Edge{Callee: callee, Pos: pos, Kind: kind})
		}
	}
	walkStack(fileOfDecl(n), func(stack []ast.Node, x ast.Node) {
		if !within(n.Decl.Body, x) || underGoStmt(stack, n.Decl.Body) {
			return
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			f := pkg.funcObjOf(x.Fun)
			if f == nil {
				return
			}
			if recvInterface(f) != nil {
				for _, cand := range implementers(f, methodsByName) {
					add(cand, x.Pos(), EdgeIface)
				}
				return
			}
			add(g.Nodes[f], x.Pos(), EdgeCall)
		case *ast.SelectorExpr:
			// A method value (v.M without a following call) is a
			// reference edge. The call case above owns Fun positions.
			if isCalleePos(stack, x) {
				return
			}
			if sel, ok := pkg.TypesInfo.Selections[x]; ok {
				if f, ok := sel.Obj().(*types.Func); ok {
					if recvInterface(f) != nil {
						for _, cand := range implementers(f, methodsByName) {
							add(cand, x.Pos(), EdgeIface)
						}
						return
					}
					add(g.Nodes[f], x.Pos(), EdgeRef)
				}
			}
		case *ast.Ident:
			// A bare function value reference (handler := helper).
			if isCalleePos(stack, x) || isSelectorSel(stack, x) {
				return
			}
			if f, ok := pkg.TypesInfo.Uses[x].(*types.Func); ok {
				add(g.Nodes[f], x.Pos(), EdgeRef)
			}
		}
	})
	sort.SliceStable(n.Calls, func(i, j int) bool { return n.Calls[i].Pos < n.Calls[j].Pos })
}

// fileOfDecl returns the file containing n's declaration (walkStack
// operates on files).
func fileOfDecl(n *FuncNode) *ast.File {
	for _, file := range n.Pkg.Files {
		if file.Pos() <= n.Decl.Pos() && n.Decl.End() <= file.End() {
			return file
		}
	}
	return nil
}

// within reports whether x lies inside node's source range.
func within(node ast.Node, x ast.Node) bool {
	return node != nil && x != nil && node.Pos() <= x.Pos() && x.End() <= node.End()
}

// underGoStmt reports whether the ancestor stack crosses a GoStmt
// after entering limit — i.e. x runs on a spawned goroutine.
func underGoStmt(stack []ast.Node, limit ast.Node) bool {
	seen := false
	for _, a := range stack {
		if a == limit {
			seen = true
		}
		if _, ok := a.(*ast.GoStmt); ok && seen {
			return true
		}
	}
	return false
}

// isCalleePos reports whether x is the Fun of its nearest enclosing
// call (possibly through parens) — handled by the CallExpr case.
func isCalleePos(stack []ast.Node, x ast.Expr) bool {
	var cur ast.Expr = x
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.ParenExpr:
			cur = a
		case *ast.CallExpr:
			return a.Fun == cur
		default:
			return false
		}
	}
	return false
}

// isSelectorSel reports whether x is the Sel half of a selector (the
// SelectorExpr case owns those) or a package qualifier.
func isSelectorSel(stack []ast.Node, x *ast.Ident) bool {
	if len(stack) == 0 {
		return false
	}
	sel, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	return ok && (sel.Sel == x || sel.X == x)
}
