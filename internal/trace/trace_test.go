package trace

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "alpha") {
		t.Fatalf("text table missing content:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Fatal("NumRows mismatch")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", 2.0)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "\"x,y\"") {
		t.Fatalf("CSV quoting broken:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("CSV header broken:\n%s", out)
	}
}

func TestTableCSVEmpty(t *testing.T) {
	// No rows: the CSV is just the header line.
	tb := NewTable("empty", "x", "y")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "x,y\n" {
		t.Fatalf("empty table CSV = %q", sb.String())
	}
	// No rows and no columns: a single empty record terminator.
	none := NewTable("")
	sb.Reset()
	if err := none.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "\n" {
		t.Fatalf("columnless table CSV = %q", sb.String())
	}
	if none.NumRows() != 0 || len(none.Rows()) != 0 {
		t.Fatal("empty table must report zero rows")
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "cell", "note")
	tb.AddRow(`plain`, `with,comma`)
	tb.AddRow(`has "quotes"`, "line\nbreak")
	tb.AddRow(`,"both",`, `clean`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`plain,"with,comma"`,
		`"has ""quotes""","line` + "\n" + `break"`,
		`",""both"","` + `,clean`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
	// A quoted header cell must be escaped the same way.
	hdr := NewTable("", `a,b`, "c")
	sb.Reset()
	if err := hdr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), `"a,b",c`+"\n") {
		t.Fatalf("header quoting broken: %q", sb.String())
	}
}

// Rows must round-trip through AddRow formatting into the exact cells
// WriteCSV emits for unquoted values, and reflect insertion order.
func TestTableRowsRoundTrip(t *testing.T) {
	tb := NewTable("rt", "k", "v")
	tb.AddRow(3, 0.5)
	tb.AddRow(1, "s")
	tb.AddRow(2, 1e-9)
	rows := tb.Rows()
	if len(rows) != tb.NumRows() {
		t.Fatalf("Rows() length %d != NumRows %d", len(rows), tb.NumRows())
	}
	rebuilt := NewTable("rt", "k", "v")
	for _, r := range rows {
		cells := make([]interface{}, len(r))
		for i, c := range r {
			cells[i] = c
		}
		rebuilt.AddRow(cells...)
	}
	var a, b strings.Builder
	if err := tb.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("Rows() round-trip diverged:\n%s\nvs\n%s", a.String(), b.String())
	}
	if got := [3]string{rows[0][0], rows[1][0], rows[2][0]}; got != [3]string{"3", "1", "2"} {
		t.Fatalf("Rows() must preserve insertion order, got %v", got)
	}
}

func TestTableRaggedRow(t *testing.T) {
	// A row narrower than the header must still render in both formats.
	tb := NewTable("ragged", "a", "b", "c")
	tb.AddRow("only")
	var txt, csv strings.Builder
	if err := tb.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "only") || !strings.Contains(csv.String(), "only\n") {
		t.Fatalf("ragged row lost: text=%q csv=%q", txt.String(), csv.String())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(1e-9)
	tb.AddRow(123456789.0)
	tb.AddRow(float32(2.5))
	var sb strings.Builder
	tb.WriteCSV(&sb)
	out := sb.String()
	if !strings.Contains(out, "0\n") || !strings.Contains(out, "e-09") || !strings.Contains(out, "e+08") {
		t.Fatalf("float formatting unexpected:\n%s", out)
	}
}

func TestTableRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(1, "x")
	tb.AddRow(2.5, "y")
	rows := tb.Rows()
	if len(rows) != 2 || rows[0][0] != "1" || rows[1][1] != "y" {
		t.Fatalf("Rows() unexpected: %v", rows)
	}
	// Mutating the copy must not touch the table.
	rows[0][0] = "mutated"
	if tb.Rows()[0][0] != "1" {
		t.Fatal("Rows() must return a copy")
	}
}

// Typed cells (AddCells) must render byte-identically to the classic
// boxed AddRow path for every value kind the experiments emit.
func TestAddCellsMatchesAddRow(t *testing.T) {
	boxed := NewTable("t", "a", "b", "c", "d", "e")
	boxed.AddRow(0.5, 1e-9, 42, "text", -0.0)
	boxed.AddRow(123456.0, float32(2.5), int64(-7), "with,comma", 0.30000000000000004)

	typed := NewTable("t", "a", "b", "c", "d", "e")
	typed.Grow(2)
	typed.AddCells([]Cell{F(0.5), F(1e-9), I(42), S("text"), F(-0.0)})
	typed.AddCells([]Cell{F(123456.0), V(float32(2.5)), V(int64(-7)), S("with,comma"), F(0.30000000000000004)})

	var wantText, gotText strings.Builder
	if err := boxed.WriteText(&wantText); err != nil {
		t.Fatal(err)
	}
	if err := typed.WriteText(&gotText); err != nil {
		t.Fatal(err)
	}
	if wantText.String() != gotText.String() {
		t.Fatalf("text render differs:\n%q\nvs\n%q", wantText.String(), gotText.String())
	}
	var wantCSV, gotCSV strings.Builder
	if err := boxed.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if err := typed.WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if wantCSV.String() != gotCSV.String() {
		t.Fatalf("CSV render differs:\n%q\nvs\n%q", wantCSV.String(), gotCSV.String())
	}
}

// AddCells must not allocate beyond the row append itself once the
// table has grown capacity — the hot-loop contract the harness uses.
func TestAddCellsAllocBudget(t *testing.T) {
	tbl := NewTable("t", "x")
	rows := make([][]Cell, 100)
	for i := range rows {
		rows[i] = []Cell{I(i)}
	}
	tbl.Grow(len(rows))
	i := 0
	allocs := testing.AllocsPerRun(99, func() {
		tbl.AddCells(rows[i%len(rows)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("AddCells after Grow allocates %.1f objects/row", allocs)
	}
}
