package fdbackscatter

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// enginePackages execute inside a simulation, so every result they
// produce must be a pure function of (Scenario, seed).
var enginePackages = []string{"core", "netsim", "mac", "channel", "phy", "sigproc", "rateadapt", "energy"}

// ambient lists the imports and package-level calls that would make an
// engine result depend on something other than the scenario and seed:
// randomness outside the seeded simrand tree, the wall clock, the
// process environment or the host's shape. A rarely taken branch that
// reaches one can pass every golden, so only a source scan holds this.
var ambient = map[string]bool{
	"math/rand": true, "math/rand/v2": true, "crypto/rand": true,
	"time.Now": true, "time.Since": true, "time.Until": true,
	"os.Getenv": true, "os.LookupEnv": true, "os.Environ": true, "os.Hostname": true,
	"runtime.NumCPU": true,
}

func TestEnginePackagesArePure(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range enginePackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files for engine package %s (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			// Local import name -> import path, so an aliased import of
			// a banned package is still caught.
			imports := map[string]string{}
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if ambient[ip] {
					t.Errorf("%s: engine package imports %s", fset.Position(imp.Pos()), ip)
				}
				name := ip[strings.LastIndex(ip, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = ip
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					if call := imports[x.Name] + "." + sel.Sel.Name; ambient[call] {
						t.Errorf("%s: engine package uses %s", fset.Position(sel.Pos()), call)
					}
				}
				return true
			})
		}
	}
}
