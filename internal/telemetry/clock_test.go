package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestWallClockIsTheOnlyClockRead parses every non-test Go file of the
// module's program — the root package, cmd/ and internal/, fixtures
// under testdata/ aside — and fails on any use of time.Now, time.Since
// or time.Until outside clock.go. Inside it, WallClock reads the wall
// epoch once (time.Now) and the monotonic clock on every Now
// (time.Since), and nothing else. Every other timestamp flows through
// an injected Clock, which is what lets tests drive the service with a
// ManualClock.
func TestWallClockIsTheOnlyClockRead(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(moduleRoot, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files = slices.DeleteFunc(files, func(path string) bool { return strings.HasSuffix(path, "_test.go") })
	files = append(files, programFiles(t, "cmd", "internal")...)

	clockGo := filepath.Join(moduleRoot, "internal", "telemetry", "clock.go")
	var inClock []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				name = "time"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			continue
		}
		if name == "." {
			t.Errorf("%s dot-imports time", path)
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != name {
				return true
			}
			switch sel.Sel.Name {
			case "Now", "Since", "Until":
				if path == clockGo {
					inClock = append(inClock, sel.Sel.Name)
				} else {
					t.Errorf("%s: time.%s outside WallClock; inject a telemetry.Clock instead", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
	if want := []string{"Now", "Since"}; !slices.Equal(inClock, want) {
		t.Errorf("clock.go uses time.%v, want exactly time.%v: the wall epoch once, then the monotonic clock", inClock, want)
	}
}

// moduleRoot is the module root as seen from this package's directory.
var moduleRoot = filepath.Join("..", "..")

// programFiles returns every non-test Go file under the given
// directories of the module root, fixtures under testdata/ aside.
func programFiles(t *testing.T, dirs ...string) []string {
	t.Helper()
	var files []string
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(moduleRoot, dir), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
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
