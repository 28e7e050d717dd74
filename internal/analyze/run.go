package analyze

import (
	"fmt"
	"go/token"
	"sort"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/load"
)

// Finding is one resolved diagnostic from a suite run.
type Finding struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

// String renders the finding the way the driver prints it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Suite applies a fixed set of analyzers through one shared loader, so
// repeated Run calls (multiple pattern sets, benchmark iterations)
// type-check the module once instead of re-listing dependencies per
// call. Each analyzer owns one FactStore for the suite's lifetime:
// `go list -deps` yields packages in dependency order, so facts
// exported while analyzing a dependency are importable when its
// importers are analyzed — the x/tools driver contract.
type Suite struct {
	analyzers []*analysis.Analyzer
	loader    *load.Loader
	facts     map[*analysis.Analyzer]*analysis.FactStore
}

// NewSuite returns a suite over the given analyzers — All() when nil —
// rooted at dir ("" for the current directory).
func NewSuite(dir string, analyzers []*analysis.Analyzer) *Suite {
	if analyzers == nil {
		analyzers = All()
	}
	l := load.New()
	l.Dir = dir
	s := &Suite{
		analyzers: analyzers,
		loader:    l,
		facts:     map[*analysis.Analyzer]*analysis.FactStore{},
	}
	for _, a := range analyzers {
		s.facts[a] = analysis.NewFactStore()
	}
	return s
}

// Run loads the packages matching patterns and applies the suite's
// analyzers, returning every diagnostic sorted by position.
func (s *Suite) Run(patterns ...string) ([]Finding, error) {
	var findings []Finding
	err := s.loader.Walk(func(pkg *load.Package) error {
		for _, a := range s.analyzers {
			a := a
			pass := &analysis.Pass{
				Analyzer: a, Fset: s.loader.Fset(), Files: pkg.Files,
				Pkg: pkg.Types, TypesInfo: pkg.TypesInfo,
				Report: func(d analysis.Diagnostic) {
					findings = append(findings, Finding{
						Pos:      s.loader.Fset().Position(d.Pos),
						Message:  d.Message,
						Analyzer: a.Name,
					})
				},
			}
			s.facts[a].Bind(pass)
			if _, err := a.Run(pass); err != nil {
				return fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
			}
		}
		return nil
	}, patterns...)
	if err != nil {
		return nil, err
	}
	sortFindings(findings)
	return findings, nil
}

// Run loads the packages matching patterns (rooted at dir, "" for the
// current directory) and applies the given analyzers — All() when nil —
// returning every diagnostic sorted by position.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	return NewSuite(dir, analyzers).Run(patterns...)
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
