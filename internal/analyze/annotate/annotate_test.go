package annotate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, text string) []Directive {
	t.Helper()
	return Parse(&ast.Comment{Slash: 1, Text: text})
}

func TestParseSingleDirective(t *testing.T) {
	ds := parseOne(t, "//fdlint:ordered index map is rebuilt per round")
	if len(ds) != 1 {
		t.Fatalf("got %d directives, want 1", len(ds))
	}
	if ds[0].Verb != "ordered" || ds[0].Reason != "index map is rebuilt per round" {
		t.Errorf("got %+v", ds[0])
	}
}

func TestParseMultipleVerbsOneLine(t *testing.T) {
	ds := parseOne(t, "//fdlint:parallel //fdlint:noalloc")
	if len(ds) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(ds), ds)
	}
	if ds[0].Verb != "parallel" || ds[0].Reason != "" {
		t.Errorf("first: got %+v", ds[0])
	}
	if ds[1].Verb != "noalloc" || ds[1].Reason != "" {
		t.Errorf("second: got %+v", ds[1])
	}
}

func TestParseMultipleVerbsWithReasons(t *testing.T) {
	ds := parseOne(t, "//fdlint:serial seed split //fdlint:ordered fixed iteration")
	if len(ds) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(ds), ds)
	}
	if ds[0].Verb != "serial" || ds[0].Reason != "seed split" {
		t.Errorf("first: got %+v", ds[0])
	}
	if ds[1].Verb != "ordered" || ds[1].Reason != "fixed iteration" {
		t.Errorf("second: got %+v", ds[1])
	}
}

func TestParseTrailingComment(t *testing.T) {
	ds := parseOne(t, "//fdlint:alloc-ok pooled buffer // reviewed in PR 8")
	if len(ds) != 1 {
		t.Fatalf("got %d directives, want 1: %+v", len(ds), ds)
	}
	if ds[0].Reason != "pooled buffer" {
		t.Errorf("trailing comment leaked into reason: %q", ds[0].Reason)
	}
}

func TestParseWantExpectationStripped(t *testing.T) {
	ds := parseOne(t, `//fdlint:alloc-ok // want "bare suppression"`)
	if len(ds) != 1 {
		t.Fatalf("got %d directives, want 1: %+v", len(ds), ds)
	}
	if ds[0].Verb != "alloc-ok" || ds[0].Reason != "" {
		t.Errorf("got %+v", ds[0])
	}
}

func TestParseDirectiveAfterTrailingCommentIgnored(t *testing.T) {
	// Once a plain trailing comment starts, the rest of the line is not
	// directive input — even if it happens to contain the prefix.
	ds := parseOne(t, "//fdlint:noalloc // explanation mentioning //fdlint:ordered")
	if len(ds) != 1 || ds[0].Verb != "noalloc" {
		t.Fatalf("got %+v, want single noalloc", ds)
	}
}

func TestParseEmptySuppressionReason(t *testing.T) {
	for _, verb := range []string{"alloc-ok", "ordered", "stream-ok", "shard-ok"} {
		ds := parseOne(t, "//fdlint:"+verb)
		if len(ds) != 1 {
			t.Fatalf("%s: got %d directives, want 1", verb, len(ds))
		}
		if ds[0].Verb != verb || ds[0].Reason != "" {
			t.Errorf("%s: got %+v, want empty reason preserved", verb, ds[0])
		}
	}
}

func TestParseCarriageReturnStripped(t *testing.T) {
	ds := parseOne(t, "//fdlint:serial seed split\r")
	if len(ds) != 1 {
		t.Fatalf("got %d directives, want 1", len(ds))
	}
	if strings.ContainsRune(ds[0].Reason, '\r') || ds[0].Reason != "seed split" {
		t.Errorf("CR survived parsing: %q", ds[0].Reason)
	}
}

func TestParseNonDirectiveComment(t *testing.T) {
	if ds := parseOne(t, "// ordinary comment"); ds != nil {
		t.Errorf("non-directive comment parsed as %+v", ds)
	}
}

func TestKnownVerbs(t *testing.T) {
	for _, verb := range []string{
		"noalloc", "alloc-ok", "ordered", "parallel", "workerpool", "serial",
		"stream-ok", "shard-ok",
	} {
		if !Known(verb) {
			t.Errorf("Known(%q) = false", verb)
		}
	}
	for _, verb := range []string{"", "nolint", "Parallel", "stream_ok"} {
		if Known(verb) {
			t.Errorf("Known(%q) = true", verb)
		}
	}
}

// parseFile parses src and returns the annotate index plus the fset.
func parseFile(t *testing.T, src string) (*token.FileSet, *File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, NewFile(fset, f)
}

func TestNewFileCRLFSource(t *testing.T) {
	src := strings.Join([]string{
		"package p",
		"",
		"//fdlint:noalloc",
		"func f() {",
		"\tx := 1 //fdlint:alloc-ok boxed on purpose",
		"\t_ = x",
		"}",
		"",
	}, "\r\n")
	_, af := parseFile(t, src)
	all := af.All()
	if len(all) != 2 {
		t.Fatalf("got %d directives, want 2: %+v", len(all), all)
	}
	for _, d := range all {
		if strings.ContainsRune(d.Verb, '\r') || strings.ContainsRune(d.Reason, '\r') {
			t.Errorf("CR survived CRLF source: %+v", d)
		}
	}
	if all[1].Reason != "boxed on purpose" {
		t.Errorf("trailing directive reason = %q", all[1].Reason)
	}
}

func TestNewFileGoverningLines(t *testing.T) {
	src := `package p

func f() {
	//fdlint:ordered stable by construction
	for i := 0; i < 3; i++ {
		_ = i //fdlint:alloc-ok scratch //fdlint:ordered same line
	}
}
`
	_, af := parseFile(t, src)
	// Standalone directive on line 4 governs line 5; the trailing pair
	// governs line 6.
	if ds := af.byLine[5]; len(ds) != 1 || ds[0].Verb != "ordered" {
		t.Errorf("line 5: got %+v", ds)
	}
	ds := af.byLine[6]
	if len(ds) != 2 || ds[0].Verb != "alloc-ok" || ds[1].Verb != "ordered" {
		t.Errorf("line 6: got %+v", ds)
	}
	if ds[0].Reason != "scratch" || ds[1].Reason != "same line" {
		t.Errorf("line 6 reasons: got %+v", ds)
	}
}

func TestFuncHasMultiVerbDoc(t *testing.T) {
	src := `package p

//fdlint:parallel //fdlint:noalloc
func shard(lo, hi int) {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "z.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	if _, ok := FuncHas(fset, fd, "parallel"); !ok {
		t.Error("parallel not found in multi-verb doc")
	}
	if _, ok := FuncHas(fset, fd, "noalloc"); !ok {
		t.Error("noalloc not found in multi-verb doc")
	}
	if _, ok := FuncHas(fset, fd, "serial"); ok {
		t.Error("serial falsely found")
	}
}
