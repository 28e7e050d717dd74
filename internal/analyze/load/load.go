// Package load turns Go import patterns into parsed, type-checked
// packages for the fdlint analyzers — the role golang.org/x/tools'
// go/packages plays for real drivers, reimplemented on the standard
// library because this build environment has no module proxy to fetch
// x/tools from.
//
// The approach is the classic pre-go/packages driver recipe:
// `go list -deps -json` enumerates every package the patterns need —
// already in dependency order, standard library included, with the
// build-context-filtered file lists — and each package is then
// type-checked in that order, with imports resolved from the packages
// checked before it. Parsing runs ahead of the type-check on its own
// goroutine, and Walk hands each root package to its caller as soon as
// it is checked.
// Dependencies are checked with IgnoreFuncBodies (their exported API is
// all importers need), so the expensive body-level work happens only
// for the packages under analysis. cgo is disabled for the enumeration,
// which keeps every listed file pure Go; FakeImportC covers any stray
// `import "C"`.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package under analysis.
type Package struct {
	// ImportPath is the package's import path.
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// Files holds the parsed source files, in go list order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo carries the body-level type information the analyzers
	// consult (nil for dependency-only packages).
	TypesInfo *types.Info
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
}

// Loader parses and type-checks packages on demand, caching every
// package (dependencies included) across calls. A Loader is not safe
// for concurrent use.
type Loader struct {
	// Dir is the working directory for `go list` (defaults to the
	// current directory, which must be inside the module).
	Dir string
	// Overlay, when non-nil, resolves an import path to a directory of
	// source files checked before falling back to `go list` — the hook
	// the analysistest harness uses to graft corpus packages (and their
	// corpus-local imports) onto the real module and standard library.
	Overlay func(path string) (dir string, ok bool)

	fset *token.FileSet
	pkgs map[string]*types.Package
	errs map[string]error
}

// New returns an empty Loader.
func New() *Loader {
	return &Loader{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		errs: map[string]error{},
	}
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Walk loads the packages matching the given go list patterns (./...
// style) and calls fn with each non-dependency one — the packages the
// patterns named — fully type-checked with bodies and TypesInfo, in
// dependency order. Parsing and type-checking run on their own
// goroutines ahead of fn, so fn's work (an analyzer's compile, say)
// overlaps the loading of later packages; a package handed to fn is
// complete and only read from then on, and fn must not call the Loader
// other than Fset. Walk returns the first load or fn error, after
// stopping and waiting for both goroutines.
func (l *Loader) Walk(fn func(*Package) error, patterns ...string) error {
	entries, err := l.goList(patterns)
	if err != nil {
		return err
	}
	var todo []listEntry
	for _, e := range entries {
		if _, done := l.pkgs[e.ImportPath]; done {
			if e.DepOnly {
				continue
			}
			// A root listed twice (or previously loaded as a dep):
			// re-check with bodies so TypesInfo exists.
			delete(l.pkgs, e.ImportPath)
			delete(l.errs, e.ImportPath)
		}
		todo = append(todo, e)
	}
	// Parsing needs no imports, so it runs ahead of the type-check,
	// which must follow dependency order. Every channel has room for
	// all its sends, so neither goroutine blocks once fn stops reading.
	parsed := make([]chan parseResult, len(todo))
	for i := range parsed {
		parsed[i] = make(chan parseResult, 1)
	}
	roots := make(chan checkResult, len(todo))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, e := range todo {
			select {
			case <-stop:
				return
			default:
			}
			files, err := l.parseFiles(e.Dir, e.GoFiles, !e.DepOnly)
			parsed[i] <- parseResult{files, err}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(roots)
		for i, e := range todo {
			var p parseResult
			select {
			case <-stop:
				return
			case p = <-parsed[i]:
			}
			if p.err != nil {
				roots <- checkResult{err: fmt.Errorf("%s: %v", e.ImportPath, p.err)}
				return
			}
			pkg, err := l.checkFiles(e, p.files, !e.DepOnly)
			if err != nil {
				roots <- checkResult{err: err}
				return
			}
			if !e.DepOnly {
				roots <- checkResult{pkg: pkg}
			}
		}
	}()
	for r := range roots {
		if r.err != nil {
			return r.err
		}
		if err := fn(r.pkg); err != nil {
			return err
		}
	}
	return nil
}

// parseResult is one package's parsed files, or its parse error.
type parseResult struct {
	files []*ast.File
	err   error
}

// checkResult is one type-checked root package, or the load error that
// ends a Walk.
type checkResult struct {
	pkg *Package
	err error
}

// goList runs `go list -deps -json` for the patterns and decodes the
// entry stream, which arrives in dependency order.
func (l *Loader) goList(patterns []string) ([]listEntry, error) {
	args := append([]string{
		"list", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Imports,Standard,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(&out)
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// check parses and type-checks one listed package. Bodies are checked
// (and TypesInfo recorded) only when full is true.
func (l *Loader) check(e listEntry, full bool) (*Package, error) {
	files, err := l.parseFiles(e.Dir, e.GoFiles, full)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", e.ImportPath, err)
	}
	return l.checkFiles(e, files, full)
}

// checkFiles type-checks one listed package's parsed files.
func (l *Loader) checkFiles(e listEntry, files []*ast.File, full bool) (*Package, error) {
	if e.ImportPath == "unsafe" {
		l.pkgs["unsafe"] = types.Unsafe
		return &Package{ImportPath: "unsafe", Types: types.Unsafe}, nil
	}
	var info *types.Info
	if full {
		info = newInfo()
	}
	tpkg, err := l.typeCheck(e.ImportPath, files, info, full)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: e.ImportPath, Dir: e.Dir,
		Files: files, Types: tpkg, TypesInfo: info,
	}, nil
}

// parseFiles parses the named files of dir. Dependencies (full false)
// need neither comments, since directives live in the packages under
// analysis, nor the parser's object resolution, which go/types never
// reads. parseFiles only touches the concurrency-safe file set.
func (l *Loader) parseFiles(dir string, names []string, full bool) ([]*ast.File, error) {
	mode := parser.SkipObjectResolution
	if full {
		mode |= parser.ParseComments
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck runs go/types over parsed files, resolving imports from
// the loader's cache (loading missing ones on demand).
func (l *Loader) typeCheck(path string, files []*ast.File, info *types.Info, full bool) (*types.Package, error) {
	conf := types.Config{
		Importer:         importerFunc(l.importPkg),
		FakeImportC:      true,
		IgnoreFuncBodies: !full,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.pkgs[path] = tpkg
	return tpkg, nil
}

// importPkg resolves one import path for the type checker.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	// Standard-library sources import their vendored dependencies by the
	// unvendored path; `go list -deps` enumerates them (in dependency
	// order, so already cached here) under the vendor/ prefix.
	if pkg, ok := l.pkgs["vendor/"+path]; ok {
		return pkg, nil
	}
	if err, ok := l.errs[path]; ok {
		return nil, err
	}
	pkg, err := l.loadImport(path)
	if err != nil {
		l.errs[path] = err
		return nil, err
	}
	return pkg, nil
}

// loadImport loads a package not yet in the cache: from the overlay if
// it resolves there, otherwise via `go list -deps` for the path.
func (l *Loader) loadImport(path string) (*types.Package, error) {
	if l.Overlay != nil {
		if dir, ok := l.Overlay(path); ok {
			return l.loadOverlayDir(path, dir)
		}
	}
	entries, err := l.goList([]string{path})
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if _, done := l.pkgs[e.ImportPath]; done {
			continue
		}
		if _, err := l.check(e, false); err != nil {
			return nil, err
		}
	}
	pkg, ok := l.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("go list resolved nothing for %q", path)
	}
	return pkg, nil
}

// loadOverlayDir type-checks every .go file in an overlay directory as
// the package for path. Overlay packages are checked with bodies: the
// corpus relies on body-level types, and overlay imports resolve
// through the same importer (overlay first, module second).
func (l *Loader) loadOverlayDir(path, dir string) (*types.Package, error) {
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(dir, names, true)
	if err != nil {
		return nil, err
	}
	return l.typeCheck(path, files, nil, true)
}

// LoadDir parses and fully type-checks one directory of sources as the
// package for the given import path — the analysistest entry point.
func (l *Loader) LoadDir(path, dir string) (*Package, error) {
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseFiles(dir, names, true)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	tpkg, err := l.typeCheck(path, files, info, true)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: path, Dir: dir,
		Files: files, Types: tpkg, TypesInfo: info,
	}, nil
}

// sourceFiles lists the non-test .go files of dir, sorted by go's
// directory order (ReadDir returns names sorted).
func sourceFiles(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go source files in %s", dir)
	}
	return names, nil
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
