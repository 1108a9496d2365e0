package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestProgramSource parses every non-test Go file of the program (the
// root package, cmd/ and internal/, testdata/ aside) and runs each rule
// below over the files it covers; a rule's exemptions are its except
// list, never a comment in the file. Package names resolve through each
// file's imports, so a renamed import is seen and a dot import fails.
func TestProgramSource(t *testing.T) {
	fset := token.NewFileSet()
	var files []*srcFile
	kinds := map[string]bool{} // every kind's display name: the name fields of obs.go's kindMetas
	named := map[string]bool{} // every kind's constant: kindMetas' keys, true once a producer names it
	for _, p := range programFiles(t, ".", "cmd", "internal") {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(moduleRoot, p)
		sf := &srcFile{filepath.ToSlash(rel), f, map[string]string{}}
		for _, imp := range f.Imports {
			ip := lit(imp.Path, token.STRING)
			if sf.imports[ip] = path.Base(ip); imp.Name != nil && imp.Name.Name == "." {
				t.Errorf("%s dot-imports %s", sf.rel, ip)
			} else if imp.Name != nil {
				sf.imports[ip] = imp.Name.Name
			}
		}
		files = append(files, sf)
		ast.Inspect(f, func(n ast.Node) bool {
			if kv, ok := n.(*ast.KeyValueExpr); ok && isIdent(kv.Key, "name") {
				kinds[lit(kv.Value, token.STRING)] = true
			} else if ok && sf.rel == "internal/obs/obs.go" {
				if id, isID := kv.Key.(*ast.Ident); isID && strings.HasPrefix(id.Name, "Kind") && id.Name != "KindNone" {
					named[id.Name] = false
				}
			}
			return sf.rel == "internal/obs/obs.go" // other files are not descended into
		})
	}
	if !kinds["cache_hit"] || !kinds["vmmc_send"] {
		t.Fatalf("read %d kind names from obs.go, without cache_hit or vmmc_send", len(kinds))
	}
	var inClock []string // clock.go's reads, checked at the end
	rules := []struct {
		name, in string   // in: the path prefix the rule covers
		except   []string // path prefixes it exempts
		check    func(f *srcFile, n ast.Node) string
	}{
		// Every timestamp comes from an injected Clock: tests drive a ManualClock.
		{"clock", "", nil, func(f *srcFile, n ast.Node) string {
			if name := f.sel(n, "time"); wallClock[name] && f.rel == "internal/telemetry/clock.go" {
				inClock = append(inClock, name)
			} else if wallClock[name] {
				return "time." + name + " outside WallClock; inject a telemetry.Clock instead"
			}
			return ""
		}},
		// Concurrency is the order-keeping pool's or the HTTP server's.
		{"goroutine", "", []string{"internal/parallel/", "internal/serve/"}, func(f *srcFile, n ast.Node) string {
			if _, ok := n.(*ast.GoStmt); ok {
				return "go statement outside internal/parallel and internal/serve; run the work through parallel.Map"
			}
			return ""
		}},
		// Stdout, stderr and the global logger are cmd/'s, not a library's.
		{"silent", "internal/", nil, func(f *srcFile, n ast.Node) string {
			switch n := n.(type) {
			case *ast.ImportSpec:
				if p := lit(n.Path, token.STRING); p == "log" || p == "log/slog" {
					return "library package imports " + p
				}
			case *ast.CallExpr:
				if name := f.sel(n.Fun, "fmt"); isIdent(n.Fun, "print") || isIdent(n.Fun, "println") || strings.HasPrefix(name, "Print") {
					return "print to stdout or stderr from a library package; take an io.Writer"
				}
			}
			return ""
		}},
		// Event kinds are named by their constants, not by number or display name.
		{"kinds", "", nil, func(f *srcFile, n ast.Node) string {
			byName := func(e ast.Expr) bool { return kinds[lit(e, token.STRING)] }
			switch n := n.(type) {
			case *ast.CallExpr:
				if f.sel(n.Fun, "utlb/internal/obs") == "Kind" && len(n.Args) == 1 && lit(n.Args[0], token.INT) != "" {
					return "obs.Kind of an integer literal; use the kind's constant"
				}
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (byName(n.X) || byName(n.Y)) {
					return "compares with a kind's display name; compare with its obs.Kind constant"
				}
			case *ast.CaseClause:
				if slices.ContainsFunc(n.List, byName) {
					return "switches on a kind's display name; switch on its obs.Kind constant"
				}
			}
			return ""
		}},
		// Every kind has a producer: some program file outside obs names it.
		{"producers", "", []string{"internal/obs/"}, func(f *srcFile, n ast.Node) string {
			if name := f.sel(n, "utlb/internal/obs"); strings.HasPrefix(name, "Kind") {
				named[name] = true
			}
			return ""
		}},
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, f := range files {
				if strings.HasPrefix(f.rel, r.in) && !slices.ContainsFunc(r.except, func(p string) bool { return strings.HasPrefix(f.rel, p) }) {
					ast.Inspect(f.f, func(n ast.Node) bool {
						if msg := r.check(f, n); msg != "" {
							t.Errorf("%s: %s", fset.Position(n.Pos()), msg)
						}
						return true
					})
				}
			}
		})
	}
	var unnamed []string
	for k, ok := range named {
		if !ok {
			unnamed = append(unnamed, k)
		}
	}
	slices.Sort(unnamed)
	for _, k := range unnamed {
		t.Errorf("producers: obs.%s is named by no program file outside internal/obs: nothing records it", k)
	}
	// WallClock reads the wall epoch once, then only the monotonic clock.
	if want := []string{"Now", "Since"}; !slices.Equal(inClock, want) {
		t.Errorf("clock.go uses time.%v, want exactly time.%v: the wall epoch once, then the monotonic clock", inClock, want)
	}
}

// wallClock are the time functions that read the wall clock or wait on it.
var wallClock = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true}

// srcFile is a parsed program file, its path and its imports' local names.
type srcFile struct {
	rel     string
	f       *ast.File
	imports map[string]string
}

// sel returns X when n is pkg.X for the imported package pkg, else "".
func (f *srcFile) sel(n ast.Node, pkg string) string {
	if s, ok := n.(*ast.SelectorExpr); ok && f.imports[pkg] != "" && isIdent(s.X, f.imports[pkg]) {
		return s.Sel.Name
	}
	return ""
}

func isIdent(n ast.Node, name string) bool {
	id, ok := n.(*ast.Ident)
	return ok && id.Name == name
}

// lit returns n's unquoted text when n is a literal of token kind k, else "".
func lit(n ast.Node, k token.Token) string {
	if b, ok := n.(*ast.BasicLit); ok && b.Kind == k {
		return strings.Trim(b.Value, "`\"")
	}
	return ""
}

// moduleRoot is the module root as seen from this package's directory.
var moduleRoot = filepath.Join("..", "..")

// programFiles returns every non-test Go file under the given
// directories of the module root, fixtures under testdata/ aside; for
// "." it returns the root package's files alone.
func programFiles(t *testing.T, dirs ...string) []string {
	t.Helper()
	var files []string
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(moduleRoot, dir), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && (d.Name() == "testdata" || dir == "." && path != moduleRoot):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}
