// Package exp is the experiment harness: the dataset registry, the
// per-experiment runners that print every table (T1–T12) and figure
// series (F1–F3) of the reproduction (run them with
// `go run ./cmd/bcbench`), and fixed-width table rendering. cmd/bcbench is a thin CLI over this package;
// bench_test.go at the repository root carries a testing.B benchmark
// per experiment kernel.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table renders fixed-width text tables with a title and optional notes
// — the format every experiment prints.
type Table struct {
	Title   string
	Notes   []string
	headers []string
	rows    [][]string
	widths  []int
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	t := &Table{Title: title, headers: headers, widths: make([]int, len(headers))}
	for i, h := range headers {
		t.widths[i] = len(h)
	}
	return t
}

// Note appends a free-text footnote rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Add appends a row; cells are formatted with %v except float64, which
// uses a compact %.4g (errors and estimates span orders of magnitude).
func (t *Table) Add(cells ...any) {
	if len(cells) != len(t.headers) {
		panic(fmt.Sprintf("exp: row has %d cells, table has %d columns", len(cells), len(t.headers)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
		if len(row[i]) > t.widths[i] {
			t.widths[i] = len(row[i])
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table to w.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	for i, h := range t.headers {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", t.widths[i], h)
	}
	sb.WriteByte('\n')
	for i := range t.headers {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", t.widths[i]))
	}
	sb.WriteByte('\n')
	for _, row := range t.rows {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", t.widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	sb.WriteByte('\n')
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}
