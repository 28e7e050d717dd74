// Package orderedrange enforces the byte-identical-output contract at
// its weakest link: Go map iteration order is deliberately randomized,
// so a `range` over a map must never be allowed to leak its order into
// an output sink — a trace table, an NDJSON/SSE encoder, or any
// fmt.Fprint-style writer.
//
// A map range is reported when ordering can escape:
//
//   - its body calls an output sink directly, or
//   - its body collects values into a slice that later reaches a sink
//     or a return statement.
//
// Two idioms establish order and suppress the report:
//
//   - key harvest: the body only appends the range KEY to a slice that
//     is later passed to any sort call — map keys are unique, so any
//     sort yields a deterministic permutation; iterate the sorted keys
//     and index the map instead of ranging it near output.
//   - total-order element sort: the collected slice is passed to
//     sort.Strings / sort.Ints / sort.Float64s / slices.Sort, whose
//     element ordering is total. Comparator sorts (sort.Slice,
//     sort.SliceStable, sort.Sort, slices.SortFunc, ...) do NOT
//     qualify for value collections: the analyzer cannot prove the
//     less function induces a total order, and an unstable sort with
//     comparator ties re-exposes map order.
//
// The escape hatch is an explicit `//fdlint:ordered <reason>`
// annotation on the range statement (or the line above); a bare
// annotation with no reason is itself a diagnostic. orderedrange also
// owns fdlint annotation hygiene: unknown //fdlint: verbs anywhere are
// reported here.
package orderedrange

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/annotate"
)

// Analyzer is the orderedrange analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "orderedrange",
	Doc: "map iteration order must not reach output sinks: sort keys " +
		"first, use a total-order element sort, or annotate " +
		"//fdlint:ordered with a reason",
	Run: run,
}

// SinkMethods are method names treated as output sinks wherever they
// appear — writers, encoders, and the trace table mutators. Matching
// by name keeps the check path-insensitive: a rename or a new writer
// type stays covered as long as it follows io conventions.
var SinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteTo": true,
	"Encode": true, "EncodeToken": true,
	"AddRow": true, "AddCells": true, "WriteText": true, "WriteCSV": true,
	"writeLine": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		af := annotate.NewFile(pass.Fset, f)
		for _, d := range af.All() {
			if !annotate.Known(d.Verb) {
				pass.Reportf(d.Pos, "unknown fdlint directive %q (known: noalloc, alloc-ok, ordered, parallel, workerpool, serial, stream-ok, shard-ok)", d.Verb)
			}
		}
		// Examine each function (decl or literal) independently: the
		// leak scope for a collected slice is its enclosing function.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, af, body)
			}
			return true
		})
	}
	return nil, nil
}

// checkFunc examines every map range directly inside one function
// body (nested function literals are visited separately by run).
func checkFunc(pass *analysis.Pass, af *annotate.File, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, af, body, rs)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, af *annotate.File, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	if d, ok := af.Has(rs, "ordered"); ok {
		if d.Reason == "" {
			pass.Reportf(rs.Pos(), "//fdlint:ordered suppression is missing a reason")
		}
		return
	}

	// Direct sinks inside the body.
	if pos, sink := findSink(pass, rs.Body); sink != "" {
		pass.Reportf(pos, "map iteration order reaches output sink %s; sort the keys first or annotate //fdlint:ordered with a reason", sink)
		return
	}

	// Collections: slices appended to inside the body.
	keyObj := rangeKeyObject(pass, rs)
	for _, col := range findCollections(pass, rs.Body) {
		if !leaks(pass, fnBody, rs, col.obj) {
			continue
		}
		keyOnly := keyObj != nil && col.keyOnly(pass, keyObj)
		anySort, totalSort := sortedBy(pass, fnBody, rs, col.obj)
		if keyOnly && anySort {
			continue // sorted key harvest: deterministic by key uniqueness
		}
		if totalSort {
			continue // total-order element sort: deterministic
		}
		if anySort {
			pass.Reportf(rs.Pos(),
				"map values collected into %q reach output ordered only by a comparator sort, which the analyzer cannot prove total; harvest and sort the keys instead (or annotate //fdlint:ordered with a reason)",
				col.obj.Name())
		} else {
			pass.Reportf(rs.Pos(),
				"map iteration order leaks through %q to an output path; sort before output or annotate //fdlint:ordered with a reason",
				col.obj.Name())
		}
		return
	}
}

// rangeKeyObject returns the object of the range key variable, if any.
func rangeKeyObject(pass *analysis.Pass, rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// collection is one slice variable appended to inside a range body.
type collection struct {
	obj  types.Object
	args [][]ast.Expr // argument lists of the appends feeding it
}

// keyOnly reports whether every append fed the slice nothing but the
// range key variable.
func (c *collection) keyOnly(pass *analysis.Pass, key types.Object) bool {
	for _, args := range c.args {
		for _, a := range args {
			id, ok := a.(*ast.Ident)
			if !ok || identObject(pass, id) != key {
				return false
			}
		}
	}
	return true
}

// identObject resolves an ident to its object, whether it is a use or
// a definition site.
func identObject(pass *analysis.Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// findCollections finds `v = append(v, ...)` statements in the body.
func findCollections(pass *analysis.Pass, body *ast.BlockStmt) []*collection {
	byObj := map[types.Object]*collection{}
	var out []*collection
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || len(call.Args) < 2 {
			return true
		}
		obj := identObject(pass, lhs)
		if obj == nil {
			return true
		}
		col := byObj[obj]
		if col == nil {
			col = &collection{obj: obj}
			byObj[obj] = col
			out = append(out, col)
		}
		col.args = append(col.args, call.Args[1:])
		return true
	})
	return out
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// leaks reports whether obj reaches a sink call or a return statement
// in the function, outside the range statement itself.
func leaks(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if n == rs || found {
			return false
		}
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if mentions(pass, r, obj) {
					found = true
				}
			}
		case *ast.CallExpr:
			if name := sinkName(pass, s); name != "" {
				for _, a := range s.Args {
					if mentions(pass, a, obj) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// sortedBy reports whether obj is passed to a sort call in the
// function: any sort at all, and whether one of them was a total-order
// element sort.
func sortedBy(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) (anySort, totalSort bool) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if n == rs {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind := sortKind(pass, call)
		if kind == sortNone {
			return true
		}
		for _, a := range call.Args {
			if mentions(pass, a, obj) {
				anySort = true
				if kind == sortTotal {
					totalSort = true
				}
			}
		}
		return true
	})
	return anySort, totalSort
}

type sortClass int

const (
	sortNone sortClass = iota
	sortTotal
	sortComparator
)

// sortKind classifies a call as a total-order element sort, a
// comparator sort, or not a sort.
func sortKind(pass *analysis.Pass, call *ast.CallExpr) sortClass {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return sortNone
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return sortNone
	}
	switch obj.Pkg().Path() {
	case "sort":
		switch obj.Name() {
		case "Strings", "Ints", "Float64s":
			return sortTotal
		case "Slice", "SliceStable", "Sort", "Stable":
			return sortComparator
		}
	case "slices":
		switch obj.Name() {
		case "Sort":
			return sortTotal
		case "SortFunc", "SortStableFunc":
			return sortComparator
		}
	}
	return sortNone
}

// findSink returns the position and name of the first direct sink call
// inside the body.
func findSink(pass *analysis.Pass, body *ast.BlockStmt) (token.Pos, string) {
	var pos token.Pos
	var name string
	ast.Inspect(body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if s := sinkName(pass, call); s != "" {
			pos, name = call.Pos(), s
			return false
		}
		return true
	})
	return pos, name
}

// mentions reports whether expr references obj.
func mentions(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// sinkName classifies a call as an output sink, returning a printable
// name ("" when not a sink): fmt's print family targeting writers or
// stdout, and any method named like a writer/encoder/table mutator.
func sinkName(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return ""
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		if strings.HasPrefix(obj.Name(), "Fprint") || strings.HasPrefix(obj.Name(), "Print") {
			return "fmt." + obj.Name()
		}
		return ""
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && SinkMethods[obj.Name()] {
		return "(" + types.TypeString(sig.Recv().Type(), nil) + ")." + obj.Name()
	}
	return ""
}
