package vlsicad

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// programCallerKeepers are the functions and methods that no program
// reaches but that stay, each with the reason it stays. Entries are
// "Name" for a function and "Recv.Name" for a method.
var programCallerKeepers = map[string]string{
	"NewFakeClock":                     "obs: fake clock shared by the tests of several packages",
	"FakeClock.Advance":                "obs: drives the shared fake clock in tests",
	"RegistrySnapshot.GaugeSeries":     "obs: snapshot reader shared by the tests of several packages",
	"RegistrySnapshot.HistogramSeries": "obs: snapshot reader shared by the tests of several packages",
	"Injector.SetSleep":                "fault: test seam that replaces the injected delay's sleep",
	"FromMinterms":                     "cube: cover builder shared by the tests of several packages",
	"Cover.Primes":                     "cube: reference that espresso's prime generation is tested against",
	"RunFlowOnNetwork":                 "vlsicad: the flow oracle of ROADMAP direction 4 will call it",
	"ExtractPath":                      "drc: per-net wire timing (ROADMAP) will extract routed trees with it",
	"DefaultTech":                      "drc: per-net wire timing (ROADMAP) will read wire parasitics from it",
}

// TestEveryFunctionHasAProgramCaller fails on any top-level function
// or method whose name appears in no non-test Go file of the repo
// except in its own declaration: code that only tests reach has to be
// kept, tested and documented while teaching no one.
func TestEveryFunctionHasAProgramCaller(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}  // identifier occurrences, declarations included
	decls := map[string]int{} // function and method declarations per name
	var funcs []*ast.FuncDecl
	var owner []string // package directory of funcs[i]
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[fd.Name.Name]++
				funcs = append(funcs, fd)
				owner = append(owner, filepath.Dir(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatal("no Go files found")
	}

	var unreached []string
	seen := map[string]bool{}
	for i, fd := range funcs {
		name := fd.Name.Name
		if name == "main" || name == "init" || name == "_" || uses[name] > decls[name] {
			continue
		}
		key := name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			key = recvName(fd.Recv.List[0].Type) + "." + name
		}
		seen[key] = true
		if _, ok := programCallerKeepers[key]; !ok {
			unreached = append(unreached, owner[i]+": "+key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s has no caller outside the tests: call it from a program, move it to a test file or delete it", u)
	}
	for key := range programCallerKeepers {
		if !seen[key] {
			t.Errorf("keeper %s now has a program caller or is gone: drop it from programCallerKeepers", key)
		}
	}
}

// recvName returns the type name of a method receiver, without its
// pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
