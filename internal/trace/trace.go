// Package trace provides the result tables the experiment harness
// prints: typed cells (Cell) collected into a Table and rendered as
// aligned text or CSV.
package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Cell is one typed table entry. Cells carry the raw value and format
// lazily at render time, so the hot experiment loops that produce rows
// never box values into interfaces or build strings; construct them
// with F, I, S or V.
type Cell struct {
	kind cellKind
	f    float64
	i    int64
	s    string
}

type cellKind uint8

const (
	cellString cellKind = iota
	cellFloat
	cellInt
)

// F returns a float cell (rendered with the table's float formatting).
func F(v float64) Cell { return Cell{kind: cellFloat, f: v} }

// I returns an integer cell.
func I(v int) Cell { return Cell{kind: cellInt, i: int64(v)} }

// S returns a string cell.
func S(v string) Cell { return Cell{kind: cellString, s: v} }

// V converts an arbitrary value to a Cell, matching AddRow's formatting
// rules: strings stay as-is, floats use the table float format, and
// anything else renders with %v.
func V(c interface{}) Cell {
	switch v := c.(type) {
	case Cell:
		return v
	case string:
		return S(v)
	case float64:
		return F(v)
	case float32:
		return F(float64(v))
	case int:
		return I(v)
	case int64:
		return Cell{kind: cellInt, i: v}
	default:
		return S(fmt.Sprintf("%v", c))
	}
}

// String renders the cell exactly as AddRow has always formatted it.
func (c Cell) String() string {
	switch c.kind {
	case cellFloat:
		return formatFloat(c.f)
	case cellInt:
		return strconv.FormatInt(c.i, 10)
	default:
		return c.s
	}
}

// Table renders experiment rows with aligned columns or as CSV.
type Table struct {
	Title   string
	Columns []string
	rows    [][]Cell
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v unless already
// strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		row[i] = V(c)
	}
	t.rows = append(t.rows, row)
}

// AddCells appends a row of typed cells, taking ownership of the slice.
// This is the allocation-lean path the experiment harness uses: no
// interface boxing, no render-time work.
func (t *Table) AddCells(row []Cell) {
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e5 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Grow pre-allocates capacity for n further rows.
func (t *Table) Grow(n int) {
	if cap(t.rows)-len(t.rows) >= n {
		return
	}
	grown := make([][]Cell, len(t.rows), len(t.rows)+n)
	copy(grown, t.rows)
	t.rows = grown
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the formatted data rows, in insertion order.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		row := make([]string, len(r))
		for j, c := range r {
			row[j] = c.String()
		}
		out[i] = row
	}
	return out
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	rows := t.Rows()
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (quoting cells containing commas).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(quoteCSV(c))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(quoteCSV(c.String()))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// quoteCSV escapes one CSV cell (quotes around cells containing
// commas, quotes or newlines; embedded quotes doubled).
func quoteCSV(c string) string {
	if strings.ContainsAny(c, ",\"\n") {
		return "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
	}
	return c
}
