package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway Go module for -C runs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goMod = "module fdlintdemo\n\ngo 1.24\n"

// Exit code 0: a clean module.
func TestExitClean(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  goMod,
		"demo.go": "package fdlintdemo\n\nfunc Demo() int { return 1 }\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &out, &errb); code != exitClean {
		t.Fatalf("exit = %d, want %d; stdout=%q stderr=%q", code, exitClean, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run printed findings: %q", out.String())
	}
}

// Exit code 1: findings. An unknown //fdlint: verb trips orderedrange's
// directive hygiene check in any package, no imports needed.
func TestExitFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  goMod,
		"demo.go": "package fdlintdemo\n\n//fdlint:bogus not a verb\nfunc Demo() int { return 1 }\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &out, &errb); code != exitFindings {
		t.Fatalf("exit = %d, want %d; stderr=%q", code, exitFindings, errb.String())
	}
	if !strings.Contains(out.String(), `unknown fdlint directive "bogus"`) {
		t.Fatalf("stdout missing the finding: %q", out.String())
	}
	if !strings.Contains(errb.String(), "1 finding(s)") {
		t.Fatalf("stderr missing the summary: %q", errb.String())
	}
}

// Exit code 2: load failure (no module at the target directory) —
// distinct from findings so CI can tell a broken lint run from a
// broken contract.
func TestExitLoadFailure(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", t.TempDir(), "./..."}, &out, &errb); code != exitLoadFail {
		t.Fatalf("exit = %d, want %d; stderr=%q", code, exitLoadFail, errb.String())
	}
	if errb.Len() == 0 {
		t.Fatal("load failure printed no error")
	}
}

// -json emits one NDJSON object per finding with the documented fields.
func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  goMod,
		"demo.go": "package fdlintdemo\n\n//fdlint:bogus not a verb\nfunc Demo() int { return 1 }\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "-json", "./..."}, &out, &errb); code != exitFindings {
		t.Fatalf("exit = %d, want %d; stderr=%q", code, exitFindings, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 NDJSON line, got %d: %q", len(lines), out.String())
	}
	var f jsonFinding
	if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
		t.Fatalf("bad NDJSON %q: %v", lines[0], err)
	}
	if !strings.HasSuffix(f.Path, "demo.go") || f.Line != 3 || f.Col == 0 ||
		f.Analyzer != "orderedrange" || !strings.Contains(f.Message, "bogus") {
		t.Fatalf("finding fields wrong: %+v", f)
	}
}

// -list names every analyzer in the suite.
func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != exitClean {
		t.Fatalf("exit = %d, want %d", code, exitClean)
	}
	for _, name := range []string{"noalloc", "orderedrange", "shardwrite", "streamtree"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list missing %s: %q", name, out.String())
		}
	}
}

// noalloc compiles the target module with -gcflags=-m: an escaping
// make inside an annotated function is a finding on its own line, which
// only the compile in the -C directory can report.
func TestNoallocCompilesTarget(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"demo.go": "package fdlintdemo\n\nvar sink []byte\n\n//fdlint:noalloc\nfunc Demo(n int) {\n" +
			"\tsink = make([]byte, n)\n}\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "-json", "./..."}, &out, &errb); code != exitFindings {
		t.Fatalf("exit = %d, want %d; stdout=%q stderr=%q", code, exitFindings, out.String(), errb.String())
	}
	var f jsonFinding
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &f); err != nil {
		t.Fatalf("want one NDJSON finding, got %q: %v", out.String(), err)
	}
	if !strings.HasSuffix(f.Path, "demo.go") || f.Line != 7 || f.Analyzer != "noalloc" ||
		!strings.Contains(f.Message, "escapes to heap") {
		t.Fatalf("finding fields wrong: %+v", f)
	}
}

// A package that type-checks but does not build (a bodyless func with
// no assembly) cannot be compiled with -m: that is a failed run, exit
// 2, never a clean one.
func TestNoallocCompileFailure(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  goMod,
		"demo.go": "package fdlintdemo\n\nfunc ext()\n\n//fdlint:noalloc\nfunc Demo() { ext() }\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &out, &errb); code != exitLoadFail {
		t.Fatalf("exit = %d, want %d; stdout=%q stderr=%q", code, exitLoadFail, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "go build -gcflags=-m") {
		t.Fatalf("stderr does not name the failed compile: %q", errb.String())
	}
}
