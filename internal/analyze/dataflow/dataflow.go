// Package dataflow is the intra-procedural dataflow layer of the
// fdlint suite: def-use chains over one type-checked function body,
// a memoized evaluator that folds a client-defined provenance lattice
// over those chains, and the type predicates its clients share
// (IsSource, IsIntegral, Callee).
//
// The model is deliberately flow-insensitive within a function: an
// identifier's abstract value is the JOIN over every expression ever
// assigned to it (its definition set), with the client's Transfer
// function classifying roots (parameters, named globals, literals) and
// composite expressions. That is sound for the "where could this value
// have come from" questions the suite asks — seed provenance in
// streamtree, shard-index provenance in shardwrite — where any single
// suspicious definition should taint the identifier, and it keeps the
// evaluator a few dozen lines instead of an SSA builder. Cycles
// (i = i + 1, accumulator loops) resolve to the join of their acyclic
// definitions.
package dataflow

import (
	"go/ast"
	"go/types"
)

// Value is one element of a client lattice. Clients define their own
// ascending constants; Bottom (zero) means "no information", and Join
// is max, so the lattice order IS the constant order.
type Value int8

// Bottom is the least lattice element: nothing known yet.
const Bottom Value = 0

// Join returns the least upper bound of two lattice elements (max).
func Join(a, b Value) Value {
	if a > b {
		return a
	}
	return b
}

// Def is one recorded definition of an identifier.
type Def struct {
	// X is the defining expression: the assignment RHS, or for range
	// definitions the expression being ranged over.
	X ast.Expr
	// Range reports a `for k, v := range X` definition; Key
	// distinguishes the key/index variable from the value variable.
	Range bool
	Key   bool
}

// Chains holds the def-use information of one function body.
type Chains struct {
	info *types.Info

	recv   types.Object
	params []types.Object
	defs   map[types.Object][]Def
	// declLoop maps a locally defined object to the innermost
	// for/range statement enclosing its definition (absent when defined
	// outside every loop) — the loop-invariance query streamtree's
	// aliasing rule needs.
	declLoop map[types.Object]ast.Stmt
}

// New builds the def-use chains of fd's body.
func New(info *types.Info, fd *ast.FuncDecl) *Chains {
	c := &Chains{
		info:     info,
		defs:     map[types.Object][]Def{},
		declLoop: map[types.Object]ast.Stmt{},
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, n := range f.Names {
				if obj := info.Defs[n]; obj != nil {
					c.recv = obj
				}
			}
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, n := range f.Names {
				if obj := info.Defs[n]; obj != nil {
					c.params = append(c.params, obj)
				}
			}
		}
	}
	if fd.Body == nil {
		return c
	}
	var loops []ast.Stmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, v.(ast.Stmt))
			if rs, ok := v.(*ast.RangeStmt); ok {
				c.recordRange(rs, loops)
			}
			for _, sub := range childNodes(v) {
				ast.Inspect(sub, walk)
			}
			loops = loops[:len(loops)-1]
			return false
		case *ast.AssignStmt:
			c.recordAssign(v, loops)
		case *ast.DeclStmt:
			if gd, ok := v.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						var x ast.Expr
						if len(vs.Values) == len(vs.Names) {
							x = vs.Values[i]
						} else if len(vs.Values) == 1 {
							x = vs.Values[0]
						}
						c.define(name, Def{X: x}, loops)
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	return c
}

// childNodes lists the direct sub-nodes of a for/range statement that
// the walk must recurse into after recording the loop context. The
// range definitions themselves are recorded here.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	add := func(x ast.Node) {
		if x != nil && !isNilNode(x) {
			out = append(out, x)
		}
	}
	switch v := n.(type) {
	case *ast.ForStmt:
		add(v.Init)
		add(v.Cond)
		add(v.Post)
		add(v.Body)
	case *ast.RangeStmt:
		add(v.X)
		add(v.Body)
	}
	return out
}

func isNilNode(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.BlockStmt:
		return v == nil
	case ast.Expr:
		return v == nil
	case ast.Stmt:
		return v == nil
	}
	return false
}

// recordAssign records the definitions of one ordinary assignment.
// Range clauses never reach here: the walk flattens RangeStmt through
// childNodes and records their key/value idents via recordRange.
func (c *Chains) recordAssign(as *ast.AssignStmt, loops []ast.Stmt) {
	n := len(as.Lhs)
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		var x ast.Expr
		if len(as.Rhs) == n {
			x = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			// Tuple assignment from one call/map/type-assert: every LHS
			// is defined by the whole RHS; clients classify the call.
			x = as.Rhs[0]
		}
		c.define(id, Def{X: x}, loops)
	}
}

// define appends one definition for the identifier's object.
func (c *Chains) define(id *ast.Ident, d Def, loops []ast.Stmt) {
	obj := c.info.Defs[id]
	if obj == nil {
		obj = c.info.Uses[id]
	}
	if obj == nil {
		return
	}
	if _, seen := c.defs[obj]; !seen && len(loops) > 0 {
		c.declLoop[obj] = loops[len(loops)-1]
	}
	c.defs[obj] = append(c.defs[obj], d)
}

// recordRange records the key/value definitions of a range clause,
// marking them Range so the evaluator can treat "drawn by ranging X"
// differently from "assigned X" if a client ever needs to.
func (c *Chains) recordRange(rs *ast.RangeStmt, loops []ast.Stmt) {
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		c.define(id, Def{X: rs.X, Range: true, Key: true}, loops)
	}
	if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
		c.define(id, Def{X: rs.X, Range: true}, loops)
	}
}

// Obj resolves an identifier to its object (definition or use).
func (c *Chains) Obj(id *ast.Ident) types.Object {
	if obj := c.info.Uses[id]; obj != nil {
		return obj
	}
	return c.info.Defs[id]
}

// Defs returns the recorded definitions of obj, in source order.
func (c *Chains) Defs(obj types.Object) []Def { return c.defs[obj] }

// Receiver returns the receiver object (nil for functions and
// anonymous receivers).
func (c *Chains) Receiver() types.Object { return c.recv }

// Params returns the named non-receiver parameter objects in
// declaration order.
func (c *Chains) Params() []types.Object { return c.params }

// IsParam reports whether obj is one of the function's non-receiver
// parameters.
func (c *Chains) IsParam(obj types.Object) bool {
	for _, p := range c.params {
		if p == obj {
			return true
		}
	}
	return false
}

// DeclaredInLoop returns the innermost loop statement enclosing obj's
// first definition, or nil when it was defined outside every loop.
func (c *Chains) DeclaredInLoop(obj types.Object) ast.Stmt { return c.declLoop[obj] }

// Transfer is the client's lattice: it classifies one expression,
// calling eval to resolve sub-expressions. For a plain identifier the
// Transfer sees the identifier itself and should classify only its
// ROOT meaning (parameter, blessed global, literal); the evaluator
// joins the identifier's recorded definitions in on top.
type Transfer func(e ast.Expr, eval func(ast.Expr) Value) Value

// Evaluator folds a Transfer over the chains with per-object
// memoization and cycle cut-off: re-entering an object whose
// evaluation is in progress contributes Bottom. A value computed
// under such a cut is provisional — it may miss what the cycle's
// entry point still has to join in — so only values whose every cut
// stops at the object itself are memoized, which makes each result
// independent of evaluation order.
type Evaluator struct {
	C  *Chains
	TF Transfer

	memo map[types.Object]Value
	// busy maps each object under evaluation to its stack depth; low
	// is the shallowest busy depth the current evaluation has cut at.
	busy map[types.Object]int
	low  int
}

// NewEvaluator returns an evaluator over c with the given transfer.
func NewEvaluator(c *Chains, tf Transfer) *Evaluator {
	return &Evaluator{C: c, TF: tf, memo: map[types.Object]Value{}, busy: map[types.Object]int{}}
}

// Eval returns the lattice value of e: the client's classification of
// e itself, joined — when e is an identifier with recorded
// definitions — with the values of every defining expression.
func (ev *Evaluator) Eval(e ast.Expr) Value {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return ev.TF(e, ev.Eval)
	}
	obj := ev.C.Obj(id)
	if obj == nil {
		return ev.TF(e, ev.Eval)
	}
	if v, done := ev.memo[obj]; done {
		return v
	}
	if d, busy := ev.busy[obj]; busy {
		ev.low = min(ev.low, d)
		return Bottom
	}
	depth := len(ev.busy)
	ev.busy[obj] = depth
	outer := ev.low
	ev.low = depth
	v := ev.TF(e, ev.Eval)
	for _, d := range ev.C.Defs(obj) {
		if d.X == nil {
			continue
		}
		// Range definitions propagate the ranged expression's value
		// unchanged: ranging a derived partition slice yields derived
		// indices/elements, ranging an unknown container yields unknown.
		v = Join(v, ev.Eval(d.X))
	}
	delete(ev.busy, obj)
	if ev.low == depth {
		ev.memo[obj] = v
	}
	ev.low = min(outer, ev.low)
	return v
}

// Callee resolves the function or method object a call invokes (nil
// for calls through function values and conversions of unnamed types).
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// IsIntegral reports whether t is an integer type after unwrapping
// named types.
func IsIntegral(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// IsSource reports whether t is *simrand.Source (matched by package
// and type name, so corpus simrand shims qualify).
func IsSource(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && IsSourceValue(ptr.Elem())
}

// IsSourceValue reports whether t is simrand.Source itself: a stream
// held by value, whose every copy continues from the same position.
func IsSourceValue(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Source" && obj.Pkg() != nil && obj.Pkg().Name() == "simrand"
}
