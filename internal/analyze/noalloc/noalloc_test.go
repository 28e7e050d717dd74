package noalloc_test

import (
	"testing"

	"repro/internal/analyze/analysistest"
	"repro/internal/analyze/noalloc"
)

// The corpus proves the analyzer reports each heap escape the
// compiler finds in //fdlint:noalloc functions plus the go, defer and
// uncapped-append rules, leaves non-escaping forms and the cap-reuse
// idioms the engine hot paths use alone, honors justified alloc-ok
// suppressions, and reports bare ones.
func TestNoalloc(t *testing.T) {
	analysistest.Run(t, "testdata", noalloc.Analyzer, "alloctest")
}
