// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Fig*/Table* function runs the corresponding simulation or
// measurement campaign and returns a Table: the same rows/series the paper
// plots, printable as text or CSV. The cmd/h2pbench tool and the repository
// benchmarks are thin wrappers over this package.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "FIG14").
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Columns labels the data columns.
	Columns []string
	// Rows holds the data, already formatted.
	Rows [][]string
	// Notes carries paper-vs-measured commentary.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteText renders the table as aligned text.
func (t *Table) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			width := 0
			if i < len(widths) {
				width = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", width, c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV (columns header plus rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table as text.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.WriteText(&sb)
	return sb.String()
}
