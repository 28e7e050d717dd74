// Package noalloc statically enforces the zero-alloc contract on
// functions annotated `//fdlint:noalloc` in their doc comment — the hot
// paths the testing.AllocsPerRun budgets guard at runtime
// (core.TransferFrameInto, the netsim round loop, the streaming
// snapshot path) — naming the offending construct at its line.
//
// Heap allocations come from the compiler: each package holding an
// annotated function is built once with `go build -gcflags=-m` in its
// directory, and every "escapes to heap", "... argument escapes to
// heap" or "moved to heap" line inside an annotated body is a finding.
// make/new, &T{...}, slice and map literals, closures, interface
// boxing, fmt arguments and string building are reported when, and
// only when, they escape. The compiler prints an escape inside an
// inlined callee at the call's position, so it is reported at the call
// line; a callee that is not inlined is not looked into (the runtime
// budgets cover it). A failed compile is an error, never zero findings.
//
// AST rules cover the allocations -m does not report: go statements,
// every defer (one inside a loop heap-allocates its record; hot paths
// need none), and append to a destination that is not cap-managed —
// re-sliced somewhere in the function (x = x[:0], or initialized from
// a slice expression), the engine's idiom for growing into reused
// scratch capacity.
//
// A finding is suppressed by `//fdlint:alloc-ok <reason>` on its line;
// a bare alloc-ok with no reason is itself a diagnostic.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/annotate"
)

// Analyzer is the noalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "functions annotated //fdlint:noalloc must not allocate: every " +
		"heap escape go build -gcflags=-m reports in the body (an inlined " +
		"callee's at its call line), plus go, defer and uncapped append, " +
		"which -m does not report",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	var checkers []*checker
	for _, f := range pass.Files {
		af := annotate.NewFile(pass.Fset, f)
		for _, d := range af.All() {
			if d.Verb == "alloc-ok" && d.Reason == "" {
				pass.Reportf(d.Pos, "//fdlint:alloc-ok suppression is missing a reason")
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := annotate.FuncHas(pass.Fset, fd, "noalloc"); ok {
				c := &checker{pass: pass, af: af, fd: fd, capManaged: capManagedPaths(fd.Body)}
				ast.Inspect(fd.Body, c.visit)
				checkers = append(checkers, c)
			}
		}
	}
	if len(checkers) == 0 {
		return nil, nil
	}
	return nil, reportEscapes(pass, checkers)
}

// escapeLine matches the -m lines that report a heap allocation:
// "x escapes to heap", "... argument escapes to heap", "moved to heap: x".
var escapeLine = regexp.MustCompile(`(?m)^(.+):(\d+):(\d+): (.*escapes to heap|moved to heap: .*)$`)

// reportEscapes compiles the pass's package with -gcflags=-m in its
// directory and reports each distinct heap-allocation line that falls
// inside an annotated body.
func reportEscapes(pass *analysis.Pass, checkers []*checker) error {
	files := map[string]*token.File{}
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		files[filepath.Base(tf.Name())] = tf
	}
	dir := filepath.Dir(pass.Fset.File(pass.Files[0].Pos()).Name())
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=-m", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0") // compile the files load listed
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build -gcflags=-m in %s: %v\n%s", dir, err, out)
	}
	seen := map[string]bool{}
	for _, m := range escapeLine.FindAllStringSubmatch(string(out), -1) {
		tf := files[filepath.Base(m[1])]
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		if tf == nil || ln < 1 || ln > tf.LineCount() || seen[m[0]] {
			continue
		}
		seen[m[0]] = true
		pos := tf.LineStart(ln) + token.Pos(col-1)
		for _, c := range checkers {
			if c.fd.Body.Pos() <= pos && pos < c.fd.Body.End() {
				c.report(pos, "%s", m[4])
			}
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	af   *annotate.File
	fd   *ast.FuncDecl
	// capManaged holds the expression paths the function re-slices:
	// append destinations rooted at one of these reuse capacity.
	capManaged map[string]bool
}

// report emits a finding unless the line carries an alloc-ok (a bare
// one is reported once per directive in run).
func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
	if _, ok := c.af.At(pos, "alloc-ok"); ok {
		return
	}
	c.pass.Reportf(pos, "//fdlint:noalloc function %s: "+format,
		append([]interface{}{c.fd.Name.Name}, args...)...)
}

func (c *checker) visit(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.GoStmt:
		c.report(v.Pos(), "spawns a goroutine")
	case *ast.DeferStmt:
		c.report(v.Pos(), "defers (defer records allocate)")
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && len(v.Args) > 0 {
			if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				c.checkAppend(v)
			}
		}
	}
	return true
}

// checkAppend enforces the cap-managed destination rule.
func (c *checker) checkAppend(call *ast.CallExpr) {
	dst := ast.Unparen(call.Args[0])
	// Appending to a fresh re-slice (append(x[:0], ...)) reuses x's
	// capacity directly.
	if _, ok := dst.(*ast.SliceExpr); ok {
		return
	}
	if path := exprPath(dst); path != "" && c.capManaged[path] {
		return
	}
	c.report(call.Pos(), "appends to %q, which is never re-sliced in this function; grow into reused capacity (x = x[:0]) or justify with //fdlint:alloc-ok", types.ExprString(dst))
}

// capManagedPaths collects every expression path the function
// re-slices: the X of any slice expression, and any variable whose
// initializer contains a slice expression.
func capManagedPaths(body *ast.BlockStmt) map[string]bool {
	paths := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SliceExpr:
			if p := exprPath(ast.Unparen(v.X)); p != "" {
				paths[p] = true
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				if containsSliceExpr(v.Rhs[i]) {
					if p := exprPath(ast.Unparen(lhs)); p != "" {
						paths[p] = true
					}
				}
			}
		}
		return true
	})
	return paths
}

func containsSliceExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.SliceExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// exprPath renders ident/selector chains ("e.activeCells"); other
// shapes yield "".
func exprPath(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if base := exprPath(ast.Unparen(v.X)); base != "" {
			return base + "." + v.Sel.Name
		}
	}
	return ""
}
