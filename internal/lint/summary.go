package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file computes per-function effect summaries over the call
// graph: whether a function may block (channel operation, select,
// net/* call, time.Sleep, an external synchronizer's Wait, or a call
// whose own summary blocks) and which lock classes it may acquire.
// Summaries start from direct facts and close under the call graph by
// a fixpoint sweep, which handles mutual recursion without special
// cases. The lockdiscipline rule consumes them.

// summary is the interprocedural effect record of one function.
type summary struct {
	// blocks is true when the function may block before returning.
	blocks bool
	// blockPos anchors the first blocking reason found (a direct
	// operation or the call site that inherits a callee's blocking).
	blockPos token.Pos
	// blockWhy names the reason: "channel receive", "time.Sleep",
	// "calls utlb/internal/parallel.Map", ...
	blockWhy string
	// acquires maps lock-class id → a witness position where the
	// function (or a callee) takes that lock.
	acquires map[string]token.Pos
}

// analysis is the shared interprocedural state, built once per
// LintProgram run and cached on the Program. The per-rule finding
// tables are filled lazily by the rules that own them.
type analysis struct {
	graph *Callgraph
	// classes maps a mutex field or package-level mutex var to its
	// lock-class id ("utlb/internal/serve.Server.mu").
	classes map[*types.Var]string

	lockFindings   map[string][]Finding // import path → findings
	atomicFindings map[string][]Finding
}

// analysis returns the cached interprocedural state, building the
// call graph, lock classes and summaries on first use.
func (prog *Program) analysis() *analysis {
	if prog.ipa == nil {
		g := buildCallgraph(prog)
		classes := lockClasses(prog)
		computeSummaries(g, classes)
		prog.ipa = &analysis{graph: g, classes: classes}
	}
	return prog.ipa
}

// sortedNodes returns the graph's nodes in ID order — every global
// sweep iterates this way so findings and fixpoints are deterministic.
func (g *Callgraph) sortedNodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// isSyncMutexExpr reports whether the type expression denotes
// sync.Mutex or sync.RWMutex (possibly behind a pointer), resolving
// the qualifier through import renames.
func isSyncMutexExpr(pkg *Package, e ast.Expr) bool {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	q, ok := sel.X.(*ast.Ident)
	if !ok || pkg.pkgPathOf(q) != "sync" {
		return false
	}
	return sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex"
}

// lockClasses scans every package for mutex-typed struct fields and
// package-level mutex vars, the lockable state the discipline rule
// reasons about. Detection is syntactic on the type expression —
// the placeholder stdlib means sync.Mutex never resolves to a real
// type — but the field/var objects themselves resolve exactly, so
// every use site maps back to its class. Local mutex vars and
// embedded (unnamed) mutex fields are deliberately out of scope:
// locals cannot be shared across the package boundary, and the repo
// style names every mutex field.
func lockClasses(prog *Program) map[*types.Var]string {
	classes := map[*types.Var]string{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				switch gd.Tok {
				case token.TYPE:
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
							if !isSyncMutexExpr(pkg, field.Type) {
								continue
							}
							for _, name := range field.Names {
								if v, ok := pkg.TypesInfo.Defs[name].(*types.Var); ok {
									classes[v] = pkg.ImportPath + "." + ts.Name.Name + "." + name.Name
								}
							}
						}
					}
				case token.VAR:
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || vs.Type == nil || !isSyncMutexExpr(pkg, vs.Type) {
							continue
						}
						for _, name := range vs.Names {
							if v, ok := pkg.TypesInfo.Defs[name].(*types.Var); ok {
								classes[v] = pkg.ImportPath + "." + name.Name
							}
						}
					}
				}
			}
		}
	}
	return classes
}

// lockOps maps the sync.Mutex/RWMutex method names to whether they
// acquire (true) or release (false).
var lockOps = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
	"Unlock": false, "RUnlock": false,
}

// lockSite resolves a call as a lock/unlock operation on a classed
// mutex: x.mu.Lock(), traceMu.RLock(), ... Returns the class id and
// whether the op acquires.
func lockSite(pkg *Package, classes map[*types.Var]string, call *ast.CallExpr) (class string, acquire bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	acquire, known := lockOps[sel.Sel.Name]
	if !known {
		return "", false, false
	}
	v := fieldOrVarOf(pkg, sel.X)
	if v == nil {
		return "", false, false
	}
	class, ok = classes[v]
	return class, acquire, ok
}

// fieldOrVarOf resolves an expression to the variable object it
// denotes: a bare ident, or a (possibly nested) field selection.
func fieldOrVarOf(pkg *Package, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fieldOrVarOf(pkg, e.X)
	case *ast.Ident:
		v, _ := pkg.TypesInfo.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
			return nil
		}
		v, _ := pkg.TypesInfo.Uses[e.Sel].(*types.Var)
		return v
	case *ast.IndexExpr:
		// shards[i].mu resolves via the selector above; a bare indexed
		// expression is not itself a lockable var.
		return nil
	}
	return nil
}

// directBlock classifies n as a directly blocking operation: channel
// send/receive, a select without a default case, ranging over a
// channel, time.Sleep, any call into net/*, or Wait on an external
// synchronizer (sync.WaitGroup, sync.Cond — unresolvable here, which
// is exactly what distinguishes them from module Wait methods the
// call graph tracks).
func directBlock(pkg *Package, n ast.Node) (why string, ok bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "channel receive", true
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "", false // default case: non-blocking poll
			}
		}
		return "select", true
	case *ast.RangeStmt:
		if t := pkg.typeOf(n.X); t != nil {
			if _, isChan := types.Unalias(t).Underlying().(*types.Chan); isChan {
				return "range over channel", true
			}
		}
	case *ast.CallExpr:
		if path, name, ok := pkg.calleePkgFunc(n); ok {
			if path == "time" && name == "Sleep" {
				return "time.Sleep", true
			}
			if path == "net" || strings.HasPrefix(path, "net/") {
				return path + "." + name + " (network I/O)", true
			}
		}
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(n.Args) == 0 {
			// A Wait whose receiver resolves to a module method shows
			// up as a call-graph edge instead. An unresolvable Wait is
			// sync.WaitGroup or sync.Cond — both block.
			if pkg.funcObjOf(n.Fun) == nil {
				return "Wait on external synchronizer", true
			}
		}
	}
	return "", false
}

// computeSummaries fills every node's summary: a direct-facts pass
// over each body (GoStmt subtrees excluded — a spawned goroutine's
// blocking is not the spawner's), then a fixpoint sweep that
// propagates blocking and lock acquisition over call, reference and
// dispatch edges until nothing changes. The sweep converges because
// both facts only ever grow.
func computeSummaries(g *Callgraph, classes map[*types.Var]string) {
	nodes := g.sortedNodes()
	for _, n := range nodes {
		n.sum.acquires = map[string]token.Pos{}
		pkg := n.Pkg
		file := fileOfDecl(n)
		walkStack(file, func(stack []ast.Node, x ast.Node) {
			if !within(n.Decl.Body, x) || underGoStmt(stack, n.Decl.Body) {
				return
			}
			if call, ok := x.(*ast.CallExpr); ok {
				if class, acquire, ok := lockSite(pkg, classes, call); ok {
					if acquire {
						if _, seen := n.sum.acquires[class]; !seen {
							n.sum.acquires[class] = call.Pos()
						}
					}
					return
				}
			}
			if why, ok := directBlock(pkg, x); ok && !n.sum.blocks {
				n.sum.blocks = true
				n.sum.blockPos = x.Pos()
				n.sum.blockWhy = why
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, e := range n.Calls {
				c := e.Callee
				if c == nil || c == n {
					continue
				}
				if c.sum.blocks && !n.sum.blocks {
					n.sum.blocks = true
					n.sum.blockPos = e.Pos
					n.sum.blockWhy = "calls " + c.ID
					changed = true
				}
				for class := range c.sum.acquires {
					if _, seen := n.sum.acquires[class]; !seen {
						n.sum.acquires[class] = e.Pos
						changed = true
					}
				}
			}
		}
	}
}

// Summary exposes a node's computed effects for tests and tooling.
func (n *FuncNode) Summary() (blocks bool, why string, acquires []string) {
	for class := range n.sum.acquires {
		acquires = append(acquires, class)
	}
	sort.Strings(acquires)
	return n.sum.blocks, n.sum.blockWhy, acquires
}
