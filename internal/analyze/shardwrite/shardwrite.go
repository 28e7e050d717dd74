// Package shardwrite statically enforces the engine's sharding
// contract: byte-identical results at any worker count require that
// parallel sections touch only per-worker or per-shard state, and that
// the serial-only RNG streams never cross into them.
//
// Three annotations carry the contract:
//
//	//fdlint:workerpool  on the one function allowed to create
//	                     goroutines (the persistent pool constructor).
//	                     Any `go` statement elsewhere in the package is
//	                     a diagnostic: ad-hoc goroutines bypass the
//	                     pool's deterministic shard dispatch.
//	//fdlint:parallel    on functions that execute on pool workers.
//	                     Inside them go statements, channel operations
//	                     and select are forbidden (workers must be pure
//	                     compute between dispatch barriers), every
//	                     *simrand.Source must be the shard's own, and
//	                     writes to engine-shared storage must be too.
//	//fdlint:serial      trailing a declaration whose value is a
//	                     serial-only stream (the placement/traffic/
//	                     slot/mobility splits). Within the declaring
//	                     function the value must not be stored into a
//	                     struct field or composite literal, or passed to
//	                     a //fdlint:parallel function — either would let
//	                     worker scheduling perturb the draw sequence.
//
// Ownership is one rule for draws and writes, decided by the
// index-provenance lattice over the dataflow def-use chains:
// parameters are derived roots; arithmetic, slicing, conversions, and
// calls propagate derivation from their operands; indexing with a
// derived index narrows shared storage to a shard-owned element (so
// `acc := &e.cellAcc[ci]` makes *acc and acc.field writes shard-owned,
// and e.tagSrc[ci] a shard-owned stream). A source must be rooted at a
// non-receiver parameter — the receiver is the shared engine, the
// parameters are the dispatcher's grant — or be such an element; local
// aliases are chased through their definitions. A write into the
// receiver's struct-of-arrays columns (or aliases of them) must land at
// a derived index: cross-index writes (a literal slot, a field-loaded
// cursor, another shard's variable) and whole-column writes (slice
// replace, copy/clear/append over a shared column) are flagged. A local
// variable is its own storage: writing a field of a local struct copy
// of shared state is shard-local, unless the write goes through a
// pointer or a reference the copy carries.
//
// The write rules apply to //fdlint:parallel functions in any package;
// the goroutine, channel, stream and serial rules to internal/netsim.
// The escape hatch is //fdlint:shard-ok REASON on the offending write,
// for writes whose ownership argument lives outside the function (a
// column partitioned by a scheme the lattice cannot see).
package shardwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/annotate"
	"repro/internal/analyze/dataflow"
)

// Analyzer is the shardwrite analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "shardwrite",
	Doc: "//fdlint:parallel shard bodies draw only the shard's own RNG streams and " +
		"write engine-shared columns only at indices derived from the shard's own " +
		"parameters; in netsim, goroutines only in the worker pool, no channels on " +
		"workers, serial-only streams stay serial",
	Run: run,
}

// Governs reports whether the goroutine, channel, stream and serial
// rules apply to the package path (the write rules apply everywhere).
func Governs(path string) bool {
	const sfx = "internal/netsim"
	return path == sfx || strings.HasSuffix(path, "/"+sfx)
}

// The index-provenance lattice: an expression either is or is not
// provably derived from the shard's parameters.
const derived dataflow.Value = 1

func run(pass *analysis.Pass) (interface{}, error) {
	netsim := Governs(pass.Pkg.Path())
	parallelFuncs := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, par := annotate.FuncHas(pass.Fset, fd, "parallel"); par {
				parallelFuncs[pass.TypesInfo.Defs[fd.Name]] = true
			}
		}
	}
	for _, f := range pass.Files {
		af := annotate.NewFile(pass.Fset, f)
		for _, d := range af.All() {
			if d.Verb == "shard-ok" && d.Reason == "" {
				pass.Reportf(d.Pos, "//fdlint:shard-ok suppression requires a reason")
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if netsim {
				if _, isPool := annotate.FuncHas(pass.Fset, fd, "workerpool"); !isPool {
					checkNoGo(pass, fd)
				}
				checkSerial(pass, af, fd, parallelFuncs)
			}
			if !parallelFuncs[pass.TypesInfo.Defs[fd.Name]] {
				continue
			}
			ck := &checker{pass: pass, af: af, fd: fd}
			ck.chains = dataflow.New(pass.TypesInfo, fd)
			ck.eval = dataflow.NewEvaluator(ck.chains, ck.transfer)
			if netsim {
				ast.Inspect(fd.Body, ck.walkWorker)
			}
			if ck.hasIntParam() {
				// Per-worker prep with no range grant has no shard
				// parameter to derive write indices from: the isolation
				// argument for its writes lives with the caller.
				ast.Inspect(fd.Body, ck.walk)
			}
		}
	}
	return nil, nil
}

// checkNoGo flags goroutine creation outside the worker pool.
func checkNoGo(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Pos(), "go statement outside the //fdlint:workerpool function: ad-hoc goroutines bypass deterministic shard dispatch")
		}
		return true
	})
}

// checkSerial finds //fdlint:serial declarations in fd and verifies the
// declared values stay serial: never stored into a struct field or a
// composite literal, never passed to a //fdlint:parallel function.
func checkSerial(pass *analysis.Pass, af *annotate.File, fd *ast.FuncDecl, parallelFuncs map[types.Object]bool) {
	serial := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if _, ok := af.Has(as, "serial"); !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					serial[obj] = true
				}
			}
		}
		return true
	})
	if len(serial) == 0 {
		return
	}
	mentionsSerial := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && serial[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if _, ok := lhs.(*ast.SelectorExpr); ok && i < len(v.Rhs) && mentionsSerial(v.Rhs[i]) {
					pass.Reportf(v.Pos(), "serial-only stream stored into a struct field: //fdlint:serial values must not outlive the serial section")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if id, ok := ast.Unparen(val).(*ast.Ident); ok && serial[pass.TypesInfo.Uses[id]] {
					pass.Reportf(val.Pos(), "serial-only stream stored into a composite literal: //fdlint:serial values must not outlive the serial section")
				}
			}
		case *ast.CallExpr:
			callee := dataflow.Callee(pass.TypesInfo, v)
			if callee == nil || !parallelFuncs[callee] {
				return true
			}
			for _, arg := range v.Args {
				if mentionsSerial(arg) {
					pass.Reportf(arg.Pos(), "serial-only stream passed to //fdlint:parallel function %s: worker interleaving would perturb its draw sequence", callee.Name())
				}
			}
		}
		return true
	})
}

type checker struct {
	pass   *analysis.Pass
	af     *annotate.File
	fd     *ast.FuncDecl
	chains *dataflow.Chains
	eval   *dataflow.Evaluator
}

// hasIntParam reports whether the function takes at least one
// integer-typed parameter — the shard's range grant.
func (ck *checker) hasIntParam() bool {
	for _, p := range ck.chains.Params() {
		if dataflow.IsIntegral(p.Type()) {
			return true
		}
	}
	return false
}

// walkWorker enforces the worker-purity rules: no channel traffic,
// and every *simrand.Source the body touches is the shard's own.
func (ck *checker) walkWorker(n ast.Node) bool {
	name := ck.fd.Name.Name
	switch v := n.(type) {
	case *ast.SelectStmt:
		ck.pass.Reportf(v.Pos(), "//fdlint:parallel function %s uses select: workers must be pure compute between dispatch barriers", name)
		return false
	case *ast.SendStmt:
		ck.pass.Reportf(v.Pos(), "//fdlint:parallel function %s sends on a channel: workers must be pure compute between dispatch barriers", name)
		return false
	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			ck.pass.Reportf(v.Pos(), "//fdlint:parallel function %s receives from a channel: workers must be pure compute between dispatch barriers", name)
		}
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		e := n.(ast.Expr)
		if !dataflow.IsSource(ck.pass.TypesInfo.Types[e].Type) {
			return true
		}
		if !ck.owned(e, map[types.Object]bool{}) {
			ck.pass.Reportf(e.Pos(), "//fdlint:parallel function %s uses a *simrand.Source not rooted at a parameter: engine-shared sources make results depend on worker interleaving", name)
		}
		// A source's selector path holds no further sources; an index
		// expression may draw in its index.
		_, isIndex := n.(*ast.IndexExpr)
		return isIndex
	}
	return true
}

func (ck *checker) walk(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.FuncLit:
		return false
	case *ast.AssignStmt:
		for _, lhs := range v.Lhs {
			ck.checkLvalue(lhs)
		}
	case *ast.IncDecStmt:
		ck.checkLvalue(v.X)
	case *ast.CallExpr:
		ck.checkBulkCall(v)
	}
	return true
}

// checkLvalue enforces the write rules on one assignment target:
// every index step over shared storage must be derived, and a target
// with no index step must not be shared storage at all.
func (ck *checker) checkLvalue(lv ast.Expr) {
	if !ck.hasIndexStep(lv) {
		if id, ok := ast.Unparen(lv).(*ast.Ident); ok {
			// Plain local/param rebinding (x := ..., x = append(x, ...)).
			if obj := ck.chains.Obj(id); obj != nil && !ck.isReceiver(obj) {
				return
			}
		}
		if ck.sharedStorage(lv) && !ck.suppressed(lv) {
			ck.pass.Reportf(lv.Pos(),
				"parallel shard writes engine-shared state without an element index: whole-column and shared-field writes race across shards (//fdlint:shard-ok REASON if ownership is external)")
		}
		return
	}
	ck.checkIndexSteps(lv)
}

// checkIndexSteps walks the access path and flags every index over
// shared storage that is not derived from the shard parameters.
func (ck *checker) checkIndexSteps(e ast.Expr) {
	switch v := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		if ck.shared(v.X, map[types.Object]bool{}) && ck.eval.Eval(v.Index) != derived && !ck.suppressed(v) {
			ck.pass.Reportf(v.Index.Pos(),
				"parallel shard writes a shared column at an index not derived from the shard's own parameters: cross-index writes race across shards (//fdlint:shard-ok REASON if the partition is external)")
		}
		ck.checkIndexSteps(v.X)
	case *ast.SelectorExpr:
		ck.checkIndexSteps(v.X)
	case *ast.StarExpr:
		ck.checkIndexSteps(v.X)
	}
}

// checkBulkCall flags copy/clear/append whose destination is shared
// storage not narrowed to a shard-owned range.
func (ck *checker) checkBulkCall(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if obj, isBuiltin := ck.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin || obj == nil {
		return
	}
	switch id.Name {
	case "copy", "clear", "append":
	default:
		return
	}
	if ck.shared(call.Args[0], map[types.Object]bool{}) && !ck.suppressed(call) {
		ck.pass.Reportf(call.Args[0].Pos(),
			"parallel shard applies %s to an engine-shared column: bulk writes race across shards (//fdlint:shard-ok REASON if the range is shard-owned)", id.Name)
	}
}

// sharedStorage reports whether assigning to the index-free lvalue e
// writes engine-shared memory. Unlike shared, which asks whether a
// value may reference shared memory, it treats a local variable as its
// own storage: a field of a local struct copy (c := e.cfg; c.x = 1) is
// shard-local even though the copy's source is shared. Selecting
// through a pointer falls back to shared on the pointer.
func (ck *checker) sharedStorage(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := ck.pass.TypesInfo.Selections[v]; ok && sel.Kind() == types.FieldVal && !sel.Indirect() {
			return ck.sharedStorage(v.X)
		}
	case *ast.Ident:
		obj, isVar := ck.chains.Obj(v).(*types.Var)
		if isVar && !ck.isReceiver(obj) && obj.Parent() != obj.Pkg().Scope() {
			return false
		}
	}
	return ck.shared(e, map[types.Object]bool{})
}

// shared reports whether the expression denotes engine-shared storage
// NOT narrowed to a shard-owned element: rooted at the receiver or a
// package-level variable, with no derived index step on the path.
// Local aliases are chased through their definitions (any shared
// definition makes the alias shared).
func (ck *checker) shared(e ast.Expr, visited map[types.Object]bool) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := ck.chains.Obj(v)
		if obj == nil || visited[obj] {
			return false
		}
		visited[obj] = true
		if ck.isReceiver(obj) {
			return true
		}
		if ck.chains.IsParam(obj) {
			// Parameters are the dispatcher's grant to this shard.
			return false
		}
		defs := ck.chains.Defs(obj)
		if len(defs) == 0 {
			// Free variable: package-level state is shared; anything
			// else (a closed-over local) is out of scope here.
			_, isVar := obj.(*types.Var)
			return isVar && obj.Parent() == obj.Pkg().Scope()
		}
		for _, d := range defs {
			if d.X != nil && ck.shared(d.X, visited) {
				return true
			}
		}
		return false
	case *ast.SelectorExpr:
		return ck.shared(v.X, visited)
	case *ast.StarExpr:
		return ck.shared(v.X, visited)
	case *ast.UnaryExpr:
		return ck.shared(v.X, visited)
	case *ast.IndexExpr:
		// A derived index narrows shared storage to an element this
		// shard owns; an unproven index leaves it shared.
		if ck.eval.Eval(v.Index) == derived {
			return false
		}
		return ck.shared(v.X, visited)
	case *ast.SliceExpr:
		if v.Low != nil && v.High != nil &&
			ck.eval.Eval(v.Low) == derived && ck.eval.Eval(v.High) == derived {
			return false
		}
		return ck.shared(v.X, visited)
	}
	return false
}

// owned reports whether the expression is provably the shard's own:
// rooted at a non-receiver parameter (through selectors, derefs and
// method calls such as w.src.Split()), or an element of any storage
// selected by a derived index. Local aliases are chased through their
// definitions, and every definition must be owned.
func (ck *checker) owned(e ast.Expr, visited map[types.Object]bool) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := ck.chains.Obj(v)
		if obj == nil || ck.isReceiver(obj) {
			return false
		}
		if ck.chains.IsParam(obj) || visited[obj] {
			return true
		}
		visited[obj] = true
		n := 0
		for _, d := range ck.chains.Defs(obj) {
			if d.X == nil {
				continue
			}
			if !ck.owned(d.X, visited) {
				return false
			}
			n++
		}
		return n > 0
	case *ast.SelectorExpr:
		return ck.owned(v.X, visited)
	case *ast.StarExpr:
		return ck.owned(v.X, visited)
	case *ast.UnaryExpr:
		return v.Op == token.AND && ck.owned(v.X, visited)
	case *ast.IndexExpr:
		return ck.eval.Eval(v.Index) == derived || ck.owned(v.X, visited)
	case *ast.CallExpr:
		// A method call on an owned value stays owned; a package
		// function (simrand.New) roots at a package name, never owned.
		sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
		return ok && ck.owned(sel.X, visited)
	}
	return false
}

// hasIndexStep reports whether the lvalue chain contains an index or
// slice step.
func (ck *checker) hasIndexStep(e ast.Expr) bool {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.IndexExpr, *ast.SliceExpr:
			return true
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return false
		}
	}
}

func (ck *checker) isReceiver(obj types.Object) bool {
	return ck.chains.Receiver() != nil && obj == ck.chains.Receiver()
}

// suppressed reports whether a reasoned //fdlint:shard-ok governs the
// node's line.
func (ck *checker) suppressed(n ast.Node) bool {
	d, ok := ck.af.Has(n, "shard-ok")
	return ok && d.Reason != ""
}

// transfer is the index-provenance lattice: parameters are derived
// roots; arithmetic, conversions, slicing, indexing, and calls join
// their operands' derivation; fields and literals prove nothing.
func (ck *checker) transfer(e ast.Expr, eval func(ast.Expr) dataflow.Value) dataflow.Value {
	switch v := e.(type) {
	case *ast.Ident:
		obj := ck.chains.Obj(v)
		if obj != nil && ck.chains.IsParam(obj) {
			return derived
		}
		return dataflow.Bottom
	case *ast.BinaryExpr:
		return dataflow.Join(eval(v.X), eval(v.Y))
	case *ast.UnaryExpr:
		return eval(v.X)
	case *ast.IndexExpr:
		// An element selected by a derived index is shard-owned data
		// (one level of indirection through partition columns:
		// e.activeCells[ci], e.slotChoice[i]).
		return dataflow.Join(eval(v.X), eval(v.Index))
	case *ast.SliceExpr:
		val := eval(v.X)
		if v.Low != nil {
			val = dataflow.Join(val, eval(v.Low))
		}
		if v.High != nil {
			val = dataflow.Join(val, eval(v.High))
		}
		return val
	case *ast.CallExpr:
		if tv, ok := ck.pass.TypesInfo.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return eval(v.Args[0])
		}
		val := dataflow.Bottom
		for _, a := range v.Args {
			val = dataflow.Join(val, eval(a))
		}
		return val
	}
	return dataflow.Bottom
}
