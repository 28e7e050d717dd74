// Package streamtree enforces the engine's determinism contract at its
// root: every simulation result must be a pure function of
// (Scenario, seed). It has two halves.
//
// Ambient state: engine packages may not import an unseeded RNG or
// use a wall clock, the process environment or the host's shape. All
// randomness must flow from the seeded simrand split tree, whose
// sources are threaded explicitly through the code — including through
// interfaces.
//
// Seed provenance: every *simrand.Source must be constructed (or
// reseeded) from a value derived from the run seed through the blessed
// operations — simrand.Mix64, integer arithmetic on seed values, and
// package helpers that provably return seed-derived values (tracked as
// object facts). Sources seeded from literals or ambient state are
// flagged, as is storing one loop-invariant source — pointer or value —
// into per-element storage (two tags or shards would then share — alias
// — a single stream, or draw identical copies of it).
//
// The escape hatch is //fdlint:stream-ok REASON on the offending line,
// for sources that are provably re-seeded before every use (per-window
// Reseed loops).
package streamtree

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/annotate"
	"repro/internal/analyze/dataflow"
)

// enginePackages are the import-path suffixes streamtree governs: the
// packages that execute inside a simulation and therefore must stay
// pure. Matching by suffix keeps the analyzer honest on corpus
// packages and on a future module rename.
var enginePackages = []string{
	"internal/core",
	"internal/netsim",
	"internal/mac",
	"internal/channel",
	"internal/phy",
	"internal/sigproc",
	"internal/rateadapt",
	"internal/energy",
}

// Governs reports whether streamtree applies to the package path.
func Governs(path string) bool {
	for _, sfx := range enginePackages {
		if path == sfx || strings.HasSuffix(path, "/"+sfx) {
			return true
		}
	}
	return false
}

// ambient maps the ambient-state escape hatches to the reason they are
// banned: imports by path, package-level functions and variables by
// "pkgname.Name". Engine packages may not use them, and a seed
// expression that reaches one is tainted.
var ambient = map[string]string{
	"math/rand":      "unseeded global randomness; thread a simrand.Source instead",
	"math/rand/v2":   "RNG outside the seeded split tree; thread a simrand.Source instead",
	"crypto/rand":    "nondeterministic entropy; thread a simrand.Source instead",
	"time.Now":       "wall-clock time makes results time-dependent",
	"time.Since":     "wall-clock time makes results time-dependent",
	"time.Until":     "wall-clock time makes results time-dependent",
	"os.Getenv":      "environment reads make results host-dependent",
	"os.LookupEnv":   "environment reads make results host-dependent",
	"os.Environ":     "environment reads make results host-dependent",
	"os.Hostname":    "host identity makes results host-dependent",
	"runtime.NumCPU": "hardware shape must not influence simulation output",
}

// Analyzer is the streamtree analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "streamtree",
	Doc: "every *simrand.Source must be seeded from the run seed via the " +
		"blessed split/hash constructors; literal-, clock-, or ambient-seeded " +
		"sources and sources aliased across loop elements are flagged",
	Run: run,
}

// DerivesSeed is the object fact exported for a function whose every
// return value is provably seed-derived (given seed-derived inputs);
// calls to such a function propagate derivation to their result when
// any argument is itself seed-derived.
type DerivesSeed struct{}

// AFact marks DerivesSeed as an analysis fact.
func (*DerivesSeed) AFact() {}

// The seed-provenance lattice, ascending. Join is max, so taint
// (ambient state) dominates derivation, which dominates a literal:
// seed ^ 0xfdb5 is derived, seed ^ time.Now().UnixNano() is tainted.
const (
	provUnknown dataflow.Value = iota
	provLiteral
	provDerived
	provTainted
)

func run(pass *analysis.Pass) (interface{}, error) {
	if !Governs(pass.Pkg.Path()) {
		return nil, nil
	}
	exportDeriveFacts(pass)
	for _, f := range pass.Files {
		checkAmbient(pass, f)
		af := annotate.NewFile(pass.Fset, f)
		for _, d := range af.All() {
			if d.Verb == "stream-ok" && d.Reason == "" {
				pass.Reportf(d.Pos, "//fdlint:stream-ok suppression requires a reason")
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, af, fd)
		}
	}
	return nil, nil
}

// checkAmbient reports the file's imports of banned packages and its
// uses of banned package-level functions and variables.
func checkAmbient(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if why, bad := ambient[path]; bad {
			pass.Reportf(imp.Pos(), "engine package imports %s: %s", path, why)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		// Package-level functions and variables only: methods have a
		// receiver and are reached through explicitly threaded values.
		switch obj.(type) {
		case *types.Func, *types.Var:
		default:
			return true
		}
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
		name := obj.Pkg().Name() + "." + obj.Name()
		if why, bad := ambient[name]; bad {
			pass.Reportf(sel.Pos(), "engine package uses %s: %s", name, why)
		}
		return true
	})
}

// exportDeriveFacts runs the provenance evaluator over every function
// body in the package and exports DerivesSeed for those whose every
// return expression is seed-derived. Iterated to a fixpoint so helpers
// calling helpers resolve regardless of declaration order.
func exportDeriveFacts(pass *analysis.Pass) {
	if pass.ExportObjectFact == nil || pass.ImportObjectFact == nil {
		return
	}
	for changed := true; changed; {
		changed = false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
					continue
				}
				obj := pass.TypesInfo.Defs[fd.Name]
				if obj == nil {
					continue
				}
				var have DerivesSeed
				if pass.ImportObjectFact(obj, &have) {
					continue
				}
				if returnsDerived(pass, fd) {
					pass.ExportObjectFact(obj, &DerivesSeed{})
					changed = true
				}
			}
		}
	}
}

// returnsDerived reports whether every return expression of fd
// evaluates to provDerived (and at least one return exists).
func returnsDerived(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if !dataflow.IsIntegral(resultType(pass, fd)) {
		return false
	}
	c := dataflow.New(pass.TypesInfo, fd)
	ev := dataflow.NewEvaluator(c, transfer(pass, c))
	found := false
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) != 1 {
			return true
		}
		found = true
		if ev.Eval(ret.Results[0]) != provDerived {
			ok = false
		}
		return true
	})
	return found && ok
}

func resultType(pass *analysis.Pass, fd *ast.FuncDecl) types.Type {
	obj := pass.TypesInfo.Defs[fd.Name]
	if obj == nil {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return nil
	}
	return sig.Results().At(0).Type()
}

// checkFunc reports unproven seed arguments of simrand.New/Reseed
// calls and loop-aliased source stores within one function.
func checkFunc(pass *analysis.Pass, af *annotate.File, fd *ast.FuncDecl) {
	c := dataflow.New(pass.TypesInfo, fd)
	ev := dataflow.NewEvaluator(c, transfer(pass, c))

	var loops []ast.Stmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, v.(ast.Stmt))
			switch s := v.(type) {
			case *ast.ForStmt:
				ast.Inspect(s.Body, walk)
			case *ast.RangeStmt:
				ast.Inspect(s.Body, walk)
			}
			loops = loops[:len(loops)-1]
			return false
		case *ast.CallExpr:
			checkSeedCall(pass, af, ev, v)
		case *ast.AssignStmt:
			checkAliasStore(pass, af, c, v, loops)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkSeedCall classifies the seed argument of simrand.New and
// (*simrand.Source).Reseed calls.
func checkSeedCall(pass *analysis.Pass, af *annotate.File, ev *dataflow.Evaluator, call *ast.CallExpr) {
	obj := dataflow.Callee(pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Name() != "simrand" || len(call.Args) != 1 {
		return
	}
	switch obj.Name() {
	case "New", "Reseed":
	default:
		return
	}
	if suppressed(pass, af, call) {
		return
	}
	switch ev.Eval(call.Args[0]) {
	case provDerived:
	case provLiteral:
		pass.Reportf(call.Args[0].Pos(),
			"simrand source seeded from a literal, not the run seed; derive the seed via simrand.Mix64 or Split (or //fdlint:stream-ok REASON)")
	case provTainted:
		pass.Reportf(call.Args[0].Pos(),
			"simrand source seeded from ambient state (wall clock, environment, or ambient RNG); results are no longer a pure function of (Scenario, seed)")
	default:
		pass.Reportf(call.Args[0].Pos(),
			"simrand source seed is not provably derived from the run seed (want a seed-rooted value through simrand.Mix64 or a DerivesSeed helper)")
	}
}

// checkAliasStore flags storing a loop-invariant *simrand.Source into
// per-element storage: every element then shares one stream, so two
// tags/shards draw from the same position — stream aliasing. Copying a
// loop-invariant simrand.Source value is the same defect: every element
// starts at the same position and draws the same sequence.
func checkAliasStore(pass *analysis.Pass, af *annotate.File, c *dataflow.Chains, as *ast.AssignStmt, loops []ast.Stmt) {
	if len(loops) == 0 || len(as.Lhs) != len(as.Rhs) {
		return
	}
	innermost := loops[len(loops)-1]
	for i, lhs := range as.Lhs {
		if !containsIndex(lhs) {
			continue
		}
		rhs := ast.Unparen(as.Rhs[i])
		byValue := dataflow.IsSourceValue(pass.TypesInfo.TypeOf(rhs))
		if !byValue && !dataflow.IsSource(pass.TypesInfo.TypeOf(rhs)) {
			continue
		}
		if star, ok := rhs.(*ast.StarExpr); ok && byValue {
			// *base copies whatever stream base points at.
			rhs = ast.Unparen(star.X)
		}
		switch v := rhs.(type) {
		case *ast.Ident:
			obj := c.Obj(v)
			if obj == nil || c.DeclaredInLoop(obj) == innermost {
				continue
			}
		case *ast.SelectorExpr:
			// A field read (e.src, w.lossSrc): invariant unless the
			// selector path itself is indexed by something loop-local.
			if containsIndex(v) {
				continue
			}
		default:
			// Calls (Split, New) mint a fresh source per element.
			continue
		}
		if suppressed(pass, af, as) {
			continue
		}
		if byValue {
			pass.Reportf(as.Pos(),
				"loop-invariant simrand.Source value copied into per-element storage: every element would draw the same sequence; seed each element with SetState from a Split or a seed-derived Reseed")
			continue
		}
		pass.Reportf(as.Pos(),
			"loop-invariant *simrand.Source stored into per-element storage: elements would alias one stream; mint one per element with Split or a seed-derived New")
	}
}

// suppressed reports whether a reasoned //fdlint:stream-ok governs the
// node's line.
func suppressed(pass *analysis.Pass, af *annotate.File, n ast.Node) bool {
	d, ok := af.Has(n, "stream-ok")
	return ok && d.Reason != ""
}

// transfer is the seed-provenance lattice over one function's chains.
func transfer(pass *analysis.Pass, c *dataflow.Chains) dataflow.Transfer {
	var tf dataflow.Transfer
	tf = func(e ast.Expr, eval func(ast.Expr) dataflow.Value) dataflow.Value {
		switch v := e.(type) {
		case *ast.Ident:
			obj := c.Obj(v)
			// The name heuristic roots the lattice: a parameter, free
			// variable, or package value named like a seed is trusted at
			// its declaration site (its own initializer is checked
			// there). Locals with recorded definitions are judged by
			// those definitions instead, so `seed := 42` stays literal.
			if obj != nil && len(c.Defs(obj)) == 0 && seedName(v.Name) && dataflow.IsIntegral(obj.Type()) {
				return provDerived
			}
			return provUnknown
		case *ast.SelectorExpr:
			if seedName(v.Sel.Name) {
				if tv, ok := pass.TypesInfo.Types[e]; ok && dataflow.IsIntegral(tv.Type) {
					return provDerived
				}
			}
			return provUnknown
		case *ast.BasicLit:
			if v.Kind == token.INT {
				return provLiteral
			}
			return provUnknown
		case *ast.BinaryExpr:
			return dataflow.Join(eval(v.X), eval(v.Y))
		case *ast.UnaryExpr:
			return eval(v.X)
		case *ast.IndexExpr:
			return eval(v.X)
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
				// Conversion: uint64(x) carries x's provenance.
				return eval(v.Args[0])
			}
			obj := dataflow.Callee(pass.TypesInfo, v)
			if obj == nil || obj.Pkg() == nil {
				return provUnknown
			}
			if _, bad := ambient[obj.Pkg().Path()]; bad {
				return provTainted
			}
			if _, bad := ambient[obj.Pkg().Name()+"."+obj.Name()]; bad {
				return provTainted
			}
			// Taint flows THROUGH any call (time.Now().UnixNano(),
			// f(rand.Int())); derivation flows only through the blessed
			// operations below.
			spill := joinArgs(v, eval)
			if sel, isSel := ast.Unparen(v.Fun).(*ast.SelectorExpr); isSel {
				if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() != nil {
					spill = dataflow.Join(spill, eval(sel.X))
				}
			}
			if spill == provTainted {
				return provTainted
			}
			if obj.Pkg().Name() == "simrand" && obj.Name() == "Mix64" {
				return spill
			}
			var fact DerivesSeed
			if pass.ImportObjectFact != nil && pass.ImportObjectFact(obj, &fact) {
				// A derive helper launders derivation, not literals:
				// fadeSeed(f.seed, i) is derived, fadeSeed(0, 0) is not.
				if spill == provDerived {
					return provDerived
				}
			}
			return provUnknown
		}
		return provUnknown
	}
	return tf
}

func joinArgs(call *ast.CallExpr, eval func(ast.Expr) dataflow.Value) dataflow.Value {
	v := dataflow.Bottom
	for _, a := range call.Args {
		v = dataflow.Join(v, eval(a))
	}
	return v
}

// seedName reports whether an identifier names a seed value.
func seedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// containsIndex reports whether the expression chain contains an index
// operation (an element access).
func containsIndex(e ast.Expr) bool {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
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
