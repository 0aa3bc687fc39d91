package report

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"github.com/h2p-sim/h2p/internal/experiments"
)

func sampleTable() *experiments.Table {
	t := &experiments.Table{
		ID:      "FIG14",
		Title:   "Generated electricity",
		Columns: []string{"trace", "watts"},
		Notes:   []string{"a note with | pipe"},
	}
	t.AddRow("drastic", "4.175")
	t.AddRow("common|x", "4.121")
	return t
}

func TestWriteMarkdownShape(t *testing.T) {
	var buf bytes.Buffer
	opts := DefaultOptions(experiments.EvalParams{Servers: 100, Seed: 42})
	if err := Write(&buf, opts, []*experiments.Table{sampleTable()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# H2P reproduction report",
		"100 servers, seed 42",
		"- [FIG14](#fig14)",
		"## FIG14",
		"| trace | watts |",
		"| --- | --- |",
		"| drastic | 4.175 |",
		"| common\\|x | 4.121 |",
		"> a note with \\| pipe",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in report:\n%s", want, out)
		}
	}
}

func TestWriteTruncatesLongTables(t *testing.T) {
	tab := &experiments.Table{ID: "BIG", Title: "big", Columns: []string{"i"}}
	for i := 0; i < 100; i++ {
		tab.AddRow(strconv.Itoa(i))
	}
	var buf bytes.Buffer
	opts := DefaultOptions(experiments.EvalParams{Servers: 10, Seed: 1})
	opts.MaxRowsPerTable = 10
	if err := Write(&buf, opts, []*experiments.Table{tab}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "90 further rows omitted") {
		t.Errorf("truncation note missing:\n%s", out)
	}
	if strings.Count(out, "\n| ") > 13 { // header + sep + 10 rows + margin
		t.Error("table not truncated")
	}
}

func TestWriteErrors(t *testing.T) {
	var buf bytes.Buffer
	opts := DefaultOptions(experiments.EvalParams{})
	if err := Write(&buf, opts, nil); err == nil {
		t.Error("no tables should error")
	}
	bad := &experiments.Table{ID: "X", Title: "x"}
	if err := Write(&buf, opts, []*experiments.Table{bad}); err == nil {
		t.Error("column-less table should error")
	}
}

func TestGenerateSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in short mode")
	}
	var buf bytes.Buffer
	opts := DefaultOptions(experiments.EvalParams{Servers: 60, Seed: 42})
	tables, err := experiments.RunAll(opts.Params)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, opts, tables); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every registered experiment appears.
	for _, id := range []string{"FIG3", "FIG14", "TAB1", "CIRC", "QS-VALID", "MPPT"} {
		if !strings.Contains(out, "## "+id) {
			t.Errorf("experiment %s missing from report", id)
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n <= 0 {
		return 0, errShort
	}
	return len(p), nil
}

var errShort = errorsNew("short write")

func errorsNew(s string) error { return &strErr{s} }

type strErr struct{ s string }

func (e *strErr) Error() string { return e.s }

func TestWritePropagatesWriterErrors(t *testing.T) {
	opts := DefaultOptions(experiments.EvalParams{Servers: 1, Seed: 1})
	tabs := []*experiments.Table{sampleTable()}
	// Fail at several depths to exercise the different write sites.
	for _, budget := range []int{1, 40, 120, 200} {
		if err := Write(&failWriter{n: budget}, opts, tabs); err == nil {
			t.Errorf("budget %d: expected write error", budget)
		}
	}
}
