package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// ImportPath is the module-qualified path (module root = module name).
	ImportPath string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Fset is the program-wide file set (shared with Program.Fset).
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and TypesInfo carry the (possibly degraded, see Load)
	// type-checking results.
	Types     *types.Package
	TypesInfo *types.Info
}

// Program is a loaded module: every non-test package under the module
// root, parsed and type-checked in dependency order.
type Program struct {
	// Module is the module path from go.mod (e.g. "utlb").
	Module string
	// Root is the absolute module root directory.
	Root string
	Fset *token.FileSet
	// Packages is sorted by ImportPath.
	Packages []*Package
	// ByPath indexes Packages by ImportPath.
	ByPath map[string]*Package
}

// Load parses and type-checks every package under root, which must be
// a module root containing go.mod. It skips testdata, vendor, hidden
// and underscore directories, and _test.go files (test-only code may
// legitimately use wall clocks, raw goroutines and prints).
//
// Type checking is deliberately self-contained: module-internal
// imports resolve to the freshly checked packages, while every
// external import (the stdlib) is satisfied by an empty placeholder
// package and its type errors are swallowed. The module's own named
// types — the ones the rules reason about — therefore resolve exactly,
// without shelling out to the go tool or importing export data.
func Load(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Module: module,
		Root:   root,
		Fset:   token.NewFileSet(),
		ByPath: map[string]*Package{},
	}

	if err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		file, err := parser.ParseFile(prog.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parse %s: %w", path, err)
		}
		dir := filepath.Dir(path)
		ip := importPath(module, root, dir)
		pkg := prog.ByPath[ip]
		if pkg == nil {
			pkg = &Package{ImportPath: ip, Dir: dir, Fset: prog.Fset}
			prog.ByPath[ip] = pkg
			prog.Packages = append(prog.Packages, pkg)
		}
		pkg.Files = append(pkg.Files, file)
		return nil
	}); err != nil {
		return nil, err
	}

	for _, pkg := range prog.Packages {
		sort.Slice(pkg.Files, func(i, j int) bool {
			return prog.Fset.File(pkg.Files[i].Pos()).Name() < prog.Fset.File(pkg.Files[j].Pos()).Name()
		})
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].ImportPath < prog.Packages[j].ImportPath
	})

	typeCheck(prog)
	return prog, nil
}

// moduleName extracts the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if name, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(name), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// importPath maps an absolute directory to its module-qualified import
// path.
func importPath(module, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return module
	}
	return module + "/" + filepath.ToSlash(rel)
}

// typeCheck checks every package in dependency order. Intra-module
// import cycles are impossible in compiling code; if the topological
// walk still cannot order a package (syntactically broken input), it
// is checked last in path order with whatever imports resolved.
func typeCheck(prog *Program) {
	checked := map[string]*types.Package{}
	imp := &moduleImporter{checked: checked, fakes: map[string]*types.Package{}}

	var order []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.ImportPath] != 0 {
			return
		}
		state[p.ImportPath] = 1
		for _, file := range p.Files {
			for _, spec := range file.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if dep, ok := prog.ByPath[path]; ok && state[path] == 0 {
					visit(dep)
				}
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
	}
	for _, p := range prog.Packages {
		visit(p)
	}

	for _, pkg := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer:         imp,
			FakeImportC:      true,
			IgnoreFuncBodies: false,
			// External (stdlib) members are unresolved by design; keep
			// checking so module-internal types still come out right.
			Error: func(error) {},
		}
		tpkg, _ := conf.Check(pkg.ImportPath, prog.Fset, pkg.Files, info)
		pkg.Types = tpkg
		pkg.TypesInfo = info
		if tpkg != nil {
			checked[pkg.ImportPath] = tpkg
		}
	}
}

// moduleImporter resolves module-internal imports to the packages this
// run already checked and fabricates empty placeholders for everything
// else (the stdlib). The placeholder's name is the last path element,
// which holds for every stdlib package the repo uses.
type moduleImporter struct {
	checked map[string]*types.Package
	fakes   map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	if p, ok := m.fakes[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	m.fakes[path] = p
	return p, nil
}

// pkgPathOf resolves an identifier used as a package qualifier to the
// import path it denotes, or "" if it is not a package name. This sees
// through import renames because it goes via the type-checker's Uses
// map rather than the import spec text.
func (pkg *Package) pkgPathOf(id *ast.Ident) string {
	if obj, ok := pkg.TypesInfo.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}

// calleePkgFunc reports the (importPath, name) of a direct pkg.Func
// call, or ok=false for anything else (method calls, locals, builtins).
func (pkg *Package) calleePkgFunc(call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	path = pkg.pkgPathOf(id)
	if path == "" {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// typeOf reports the static type of e, or nil when type checking could
// not determine one (degraded stdlib resolution).
func (pkg *Package) typeOf(e ast.Expr) types.Type {
	if tv, ok := pkg.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// namedFrom reports whether t (after unaliasing) is the named type
// pkgPath.name.
func namedFrom(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// namedFromPkg reports whether t is any named type declared in pkgPath
// whose underlying type is a basic (numeric/string) type.
func namedFromPkg(t types.Type, pkgPath string) bool {
	if t == nil {
		return false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	_, basic := n.Underlying().(*types.Basic)
	return basic
}

// hasPrefixAny reports whether path is one of, or below one of, the
// given package-path prefixes.
func hasPrefixAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
