package load

import (
	"testing"
	"time"
)

// The loader must type-check the repository's heaviest dependency
// chains — netsvc pulls net/http, encoding/json and the whole engine —
// from source, offline, with TypesInfo populated for the roots.
func TestRootsTypeCheckRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check")
	}
	start := time.Now()
	l := New()
	var roots []*Package
	err := l.Walk(func(p *Package) error {
		roots = append(roots, p)
		return nil
	}, "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) < 16 {
		t.Fatalf("expected at least 16 root packages, got %d", len(roots))
	}
	seen := map[string]bool{}
	for _, p := range roots {
		seen[p.ImportPath] = true
		if p.TypesInfo == nil {
			t.Errorf("%s: root package loaded without TypesInfo", p.ImportPath)
		}
		if len(p.Files) == 0 {
			t.Errorf("%s: root package has no files", p.ImportPath)
		}
	}
	for _, want := range []string{
		"repro", "repro/internal/netsim", "repro/internal/netsvc",
		"repro/cmd/fdnetd", "repro/internal/core",
	} {
		if !seen[want] {
			t.Errorf("root set is missing %s", want)
		}
	}
	t.Logf("loaded %d roots in %v", len(roots), time.Since(start))
}
