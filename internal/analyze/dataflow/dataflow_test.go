package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"

	"repro/internal/analyze/dataflow"
)

// fixture is one type-checked source file.
type fixture struct {
	t    *testing.T
	file *ast.File
	info *types.Info
}

func check(t *testing.T, src string) *fixture {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, file: f, info: info}
}

// chains builds the def-use chains of the named function.
func (fx *fixture) chains(name string) *dataflow.Chains {
	fx.t.Helper()
	for _, d := range fx.file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return dataflow.New(fx.info, fd)
		}
	}
	fx.t.Fatalf("no func %s", name)
	return nil
}

// obj returns the variable the fixture declares under name (names are
// unique within each fixture).
func (fx *fixture) obj(name string) types.Object {
	fx.t.Helper()
	for id, o := range fx.info.Defs {
		if _, isVar := o.(*types.Var); isVar && id.Name == name {
			return o
		}
	}
	fx.t.Fatalf("no variable %s", name)
	return nil
}

// defs renders obj's definitions as "X" or "range X" / "range-key X".
func (fx *fixture) defs(c *dataflow.Chains, name string) []string {
	var out []string
	for _, d := range c.Defs(fx.obj(name)) {
		s := "<nil>"
		if d.X != nil {
			s = types.ExprString(d.X)
		}
		switch {
		case d.Key:
			s = "range-key " + s
		case d.Range:
			s = "range " + s
		}
		out = append(out, s)
	}
	return out
}

// Definitions are recorded from :=, =, var declarations (paired and
// tuple forms) and range clauses, in source order.
func TestDefs(t *testing.T) {
	fx := check(t, `
func pair() (int, int) { return 1, 2 }

func f(p int, xs []int) int {
	a := p + 1
	a = 2
	var b, c = 3, 4
	var z int
	d, e := pair()
	for i, v := range xs {
		a = i + v
	}
	for _, w := range xs {
		_ = w
	}
	return a + b + c + d + e + z
}`)
	c := fx.chains("f")
	for name, want := range map[string][]string{
		"a": {"p + 1", "2", "i + v"},
		"b": {"3"},
		"c": {"4"},
		"z": {"<nil>"},
		"d": {"pair()"},
		"e": {"pair()"},
		"i": {"range-key xs"},
		"v": {"range xs"},
		"w": {"range xs"},
		"p": nil,
	} {
		if got := fx.defs(c, name); !slices.Equal(got, want) {
			t.Errorf("Defs(%s) = %q, want %q", name, got, want)
		}
	}
}

// DeclaredInLoop reports the innermost loop around an object's FIRST
// definition: later in-loop assignments do not move it.
func TestDeclaredInLoop(t *testing.T) {
	fx := check(t, `
func f(n int, xs []int) {
	out := 0
	for i := 0; i < n; i++ {
		in := i
		out = in
		for _, v := range xs {
			deep := v
			_ = deep
		}
	}
	_ = out
}`)
	c := fx.chains("f")
	var loops []ast.Stmt
	ast.Inspect(fx.file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
		}
		return true
	})
	outer, inner := loops[0], loops[1]
	for name, want := range map[string]ast.Stmt{
		"out":  nil,
		"i":    outer,
		"in":   outer,
		"v":    inner,
		"deep": inner,
	} {
		if got := c.DeclaredInLoop(fx.obj(name)); got != want {
			t.Errorf("DeclaredInLoop(%s) = %v, want %v", name, got, want)
		}
	}
}

// Params lists named non-receiver parameters in order; the receiver is
// reported separately and is not a parameter.
func TestParamsReceiver(t *testing.T) {
	fx := check(t, `
type T struct{}

func (r *T) m(a, b int, c float64) {
	local := a
	_ = local
}

func (T) anon(d int) {}

func plain(e string) {}`)
	c := fx.chains("m")
	var names []string
	for _, p := range c.Params() {
		names = append(names, p.Name())
	}
	if !slices.Equal(names, []string{"a", "b", "c"}) {
		t.Errorf("Params() = %q, want [a b c]", names)
	}
	if c.Receiver() != fx.obj("r") {
		t.Errorf("Receiver() = %v, want r", c.Receiver())
	}
	for name, want := range map[string]bool{"a": true, "c": true, "r": false, "local": false} {
		if got := c.IsParam(fx.obj(name)); got != want {
			t.Errorf("IsParam(%s) = %v, want %v", name, got, want)
		}
	}
	if r := fx.chains("anon").Receiver(); r != nil {
		t.Errorf("anonymous receiver: Receiver() = %v, want nil", r)
	}
	if r := fx.chains("plain").Receiver(); r != nil {
		t.Errorf("function: Receiver() = %v, want nil", r)
	}
}

// The evaluator joins the values of every definition, and terminates on
// self- and mutually-recursive definitions, which contribute Bottom.
func TestEvaluator(t *testing.T) {
	const (
		lit dataflow.Value = iota + 1
		param
	)
	fx := check(t, `
func f(h int) int {
	x := 1
	x = x + 1
	y := x
	y = h
	var p, q int
	p = q
	q = p
	var u, w int
	u = w
	w = u
	w = h
	return x + y + p + q + u + w
}`)
	c := fx.chains("f")
	ev := dataflow.NewEvaluator(c, func(e ast.Expr, eval func(ast.Expr) dataflow.Value) dataflow.Value {
		switch v := e.(type) {
		case *ast.BasicLit:
			return lit
		case *ast.Ident:
			if c.IsParam(c.Obj(v)) {
				return param
			}
		case *ast.BinaryExpr:
			return dataflow.Join(eval(v.X), eval(v.Y))
		}
		return dataflow.Bottom
	})
	ident := func(name string) *ast.Ident {
		for id, o := range fx.info.Defs {
			if o == fx.obj(name) {
				return id
			}
		}
		return nil
	}
	// Order matters: evaluating w first visits u while w is still in
	// progress, and u must not keep that cut-short value.
	for _, tc := range []struct {
		name string
		want dataflow.Value
	}{
		{"x", lit},             // x = x + 1 cycles; the literal survives
		{"y", param},           // join of lit and param
		{"p", dataflow.Bottom}, // p and q only define each other
		{"q", dataflow.Bottom},
		{"w", param}, // the cycle u <-> w reaches h through w
		{"u", param},
		{"h", param},
	} {
		if got := ev.Eval(ident(tc.name)); got != tc.want {
			t.Errorf("Eval(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
	if dataflow.Join(lit, param) != param || dataflow.Join(param, dataflow.Bottom) != param {
		t.Error("Join is not max")
	}
}
