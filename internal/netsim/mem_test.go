package netsim

import (
	"runtime"
	"testing"
)

// maxBytesPerTag bounds what Run allocates per tag on the million
// preset: the per-tag columns, the TagStats rows the result returns
// and every setup slice. A new per-tag column, or a config copy in
// every row, shows up here before it shows up as resident memory at a
// million tags.
const maxBytesPerTag = 510

func TestMillionBytesPerTag(t *testing.T) {
	sc, err := Preset("million")
	if err != nil {
		t.Fatal(err)
	}
	sc.Tags = 1 << 14
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Run(sc, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perTag := float64(after.TotalAlloc-before.TotalAlloc) / float64(sc.Tags)
	t.Logf("million at %d tags: %.1f B/tag allocated", sc.Tags, perTag)
	if perTag > maxBytesPerTag {
		t.Fatalf("Run allocated %.1f B/tag on the million preset, want <= %d", perTag, maxBytesPerTag)
	}
}
