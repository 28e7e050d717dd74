// Package annotate parses the //fdlint: source directives the analyzer
// suite keys on. A directive is a line comment of the form
//
//	//fdlint:<verb> [argument text]
//
// attached either as a trailing comment on the line it governs or as a
// standalone comment on the line directly above it. The recognized
// verbs and their meanings:
//
//	noalloc          this function's body must be allocation-free
//	                 (contract marker, enforced by the noalloc analyzer)
//	alloc-ok REASON  suppress one noalloc finding on this line
//	ordered REASON   suppress one orderedrange finding on this line
//	parallel         this function executes on engine pool workers
//	                 (contract marker, enforced by the shardwrite analyzer)
//	workerpool       this function owns goroutine creation for a
//	                 persistent worker pool (shardwrite allows `go` here)
//	serial           the value declared here is a serial-only stream:
//	                 it must never reach a parallel section
//	stream-ok REASON suppress one streamtree finding on this line
//	                 (e.g. a scratch source reseeded before every use)
//	shard-ok REASON  suppress one shardwrite finding on this line
//
// Suppression verbs (alloc-ok, ordered, stream-ok, shard-ok) require a
// reason; a bare suppression is itself a diagnostic — the analyzers
// enforce that for the verbs they own.
//
// A comment may carry several directives back to back
// (`//fdlint:parallel //fdlint:noalloc`); text after a plain `//` that
// is not a directive prefix (a trailing explanation, a corpus `// want`
// expectation) is not directive input.
package annotate

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the directive comment prefix.
const Prefix = "//fdlint:"

// Directive is one parsed //fdlint: comment.
type Directive struct {
	// Verb is the directive name (noalloc, ordered, ...).
	Verb string
	// Reason is the argument text after the verb (the justification for
	// suppression verbs), trimmed.
	Reason string
	// Pos is the comment's position.
	Pos token.Pos
}

// Known reports whether verb is a recognized directive verb.
func Known(verb string) bool {
	switch verb {
	case "noalloc", "alloc-ok", "ordered", "parallel", "workerpool", "serial",
		"stream-ok", "shard-ok":
		return true
	}
	return false
}

// Parse extracts the directives of one comment, handling multiple
// back-to-back //fdlint: verbs, trailing plain comments, corpus
// `// want` expectations, and CRLF line endings. Non-directive comments
// yield nil. Every directive shares the comment's position.
func Parse(c *ast.Comment) []Directive {
	text, ok := strings.CutPrefix(c.Text, Prefix)
	if !ok {
		return nil
	}
	// The go scanner normally strips carriage returns, but be robust to
	// CRLF text reaching us through other paths (overlays, synthesized
	// files).
	text = strings.TrimRight(text, "\r")
	var out []Directive
	for {
		seg := text
		text = ""
		if i := strings.Index(seg, "//"); i >= 0 {
			if after, isDir := strings.CutPrefix(seg[i:], Prefix); isDir {
				// Another directive follows in the same comment.
				text = after
			}
			// Otherwise: a trailing plain comment (including a corpus
			// `// want`) ends directive input for this comment.
			seg = seg[:i]
		}
		verb, reason, _ := strings.Cut(strings.TrimSpace(seg), " ")
		if verb != "" {
			out = append(out, Directive{Verb: verb, Reason: strings.TrimSpace(reason), Pos: c.Pos()})
		}
		if text == "" {
			return out
		}
	}
}

// File indexes one file's directives by the line they govern.
type File struct {
	fset *token.FileSet
	// byLine maps a source line to the directives governing it: a
	// trailing directive governs its own line, a standalone directive
	// comment governs the line below it.
	byLine map[int][]Directive
	// all lists every directive in the file, in source order.
	all []Directive
}

// NewFile parses the directives of f.
func NewFile(fset *token.FileSet, f *ast.File) *File {
	af := &File{fset: fset, byLine: map[int][]Directive{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			ds := Parse(c)
			if len(ds) == 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if startsLine(fset, f, c) {
				// Standalone comment: governs the following line.
				line++
			}
			af.all = append(af.all, ds...)
			af.byLine[line] = append(af.byLine[line], ds...)
		}
	}
	return af
}

// startsLine reports whether the comment is the first token on its
// line (a standalone directive) rather than trailing code.
func startsLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	// If any node of the file starts on the same line before the
	// comment's column, the comment trails code. Scanning declarations
	// is enough: statements inherit their line from the file text, so
	// compare against the file content-free heuristic below instead.
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		p := fset.Position(n.Pos())
		if p.Line == pos.Line && p.Column < pos.Column {
			found = true
			return false
		}
		// Prune subtrees that end before the comment's line.
		if end := fset.Position(n.End()); end.Line < pos.Line {
			return false
		}
		return true
	})
	return !found
}

// Has reports whether a directive with the verb governs the line node
// starts on, returning it.
func (af *File) Has(n ast.Node, verb string) (Directive, bool) {
	return af.At(n.Pos(), verb)
}

// At reports whether a directive with the verb governs pos's line,
// returning it.
func (af *File) At(pos token.Pos, verb string) (Directive, bool) {
	for _, d := range af.byLine[af.fset.Position(pos).Line] {
		if d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}

// All returns every directive in the file in source order.
func (af *File) All() []Directive { return af.all }

// FuncHas reports whether the function declaration carries the verb,
// either on its own first line or anywhere in its doc comment.
func FuncHas(fset *token.FileSet, fd *ast.FuncDecl, verb string) (Directive, bool) {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			for _, d := range Parse(c) {
				if d.Verb == verb {
					return d, true
				}
			}
		}
	}
	return Directive{}, false
}
