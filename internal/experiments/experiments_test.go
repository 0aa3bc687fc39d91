package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// smallParams keeps the trace-driven experiments quick in unit tests.
func smallParams() EvalParams { return EvalParams{Servers: 100, Seed: 42} }

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("cell (%d,%d) out of range in %s", row, col, tab.ID)
	}
	return tab.Rows[row][col]
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) of %s is not numeric: %v", row, col, tab.ID, err)
	}
	return v
}

func TestFig3Table(t *testing.T) {
	tab, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 15 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// CPU0 (column 1) must exceed CPU1 (column 2) during the loaded
	// phases by a wide margin.
	mid := len(tab.Rows) / 2
	if cellFloat(t, tab, mid, 1) < cellFloat(t, tab, mid, 2)+20 {
		t.Error("TEG-sandwiched CPU not visibly hotter mid-experiment")
	}
}

func TestFig7Table(t *testing.T) {
	tab, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	// Voltage grows along deltaT and (slightly) along flow.
	if cellFloat(t, tab, last, 1) <= cellFloat(t, tab, 0, 1) {
		t.Error("voltage not increasing with deltaT")
	}
	if cellFloat(t, tab, last, 4) <= cellFloat(t, tab, last, 1) {
		t.Error("voltage not increasing with flow")
	}
}

func TestFig8Table(t *testing.T) {
	tab, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	// 12-TEG power at 25°C (last power column) near the paper's 1.8 W.
	// Eq. 7 at deltaT=25 gives 12*0.1811 = 2.173 W; the paper states the
	// 12-TEG module exceeds 1.8 W above 25 °C.
	p12 := cellFloat(t, tab, last, len(tab.Columns)-1)
	if p12 < 1.8 || p12 > 2.3 {
		t.Errorf("P(12, 25°C) = %v, want ~2.17 (>1.8)", p12)
	}
}

func TestFig9Through11Tables(t *testing.T) {
	for _, f := range []func() (*Table, error){Fig9, Fig10, Fig11} {
		tab, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", tab.ID)
		}
	}
}

func TestFig12And13Tables(t *testing.T) {
	tab, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 50 {
		t.Fatalf("point cloud too small: %d", len(tab.Rows))
	}
	t13, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(t13.Rows) != 2 {
		t.Fatalf("Fig13 rows = %d", len(t13.Rows))
	}
	// A_avg (row 1) admits a warmer best inlet and more power than A_max
	// (row 0).
	if cellFloat(t, t13, 1, 6) <= cellFloat(t, t13, 0, 6) {
		t.Error("A_avg best inlet not warmer than A_max")
	}
	if cellFloat(t, t13, 1, 7) <= cellFloat(t, t13, 0, 7) {
		t.Error("A_avg best power not above A_max")
	}
}

func TestFig14And15SmallScale(t *testing.T) {
	tab, err := Fig14(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 3 traces + average
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for r := 0; r < 3; r++ {
		orig := cellFloat(t, tab, r, 1)
		lb := cellFloat(t, tab, r, 3)
		if lb <= orig {
			t.Errorf("row %d: LoadBalance %v not above Original %v", r, lb, orig)
		}
	}
	t15, err := Fig15(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if pre := cellFloat(t, t15, r, 2); pre < 8 || pre > 22 {
			t.Errorf("row %d: PRE %v%% implausible", r, pre)
		}
	}
}

// TestFig14ShardedMatchesDefault pins the shard count (EvalParams.Workers,
// which h2pbench -workers sets): spreading each run over one or three engine
// shards must leave every table cell identical — the tables are formatted
// from the folded results, so equal strings mean bit-equal aggregates.
func TestFig14ShardedMatchesDefault(t *testing.T) {
	want, err := Fig14(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		p := smallParams()
		p.Workers = shards
		got, err := Fig14(p)
		if err != nil {
			t.Fatal(err)
		}
		var wb, gb bytes.Buffer
		if err := want.WriteCSV(&wb); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteCSV(&gb); err != nil {
			t.Fatal(err)
		}
		if wb.String() != gb.String() {
			t.Errorf("Workers=%d: Fig14 differs from the default:\n--- default ---\n%s--- workers ---\n%s",
				shards, wb.String(), gb.String())
		}
	}
}

func TestTableISmallScale(t *testing.T) {
	tab, err := TableI(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	var reduction float64
	found := false
	for _, row := range tab.Rows {
		if row[0] == "TCO reduction" {
			var err error
			reduction, err = strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("TCO reduction row missing")
	}
	if reduction < 0.3 || reduction > 0.9 {
		t.Errorf("LoadBalance TCO reduction = %v%%, want ~0.57%%", reduction)
	}
}

func TestCirculationTable(t *testing.T) {
	tab, err := Circulation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "optimum") {
		t.Error("optimum note missing")
	}
}

func TestAblationTables(t *testing.T) {
	flow, err := AblationFlow()
	if err != nil {
		t.Fatal(err)
	}
	for r := range flow.Rows {
		free := cellFloat(t, flow, r, 5)   // free net power
		pinned := cellFloat(t, flow, r, 9) // pinned net power
		if free <= pinned {
			t.Errorf("row %d: flow freedom (%v) should beat pinned flow (%v) net of pump power", r, free, pinned)
		}
	}
	store, err := AblationStorage()
	if err != nil {
		t.Fatal(err)
	}
	if len(store.Rows) != 3 {
		t.Fatalf("storage rows = %d", len(store.Rows))
	}
	// Hybrid (row 0) covers at least as well as battery-only (row 1).
	if cellFloat(t, store, 0, 1) < cellFloat(t, store, 1, 1)-1e-9 {
		t.Error("hybrid coverage below battery-only")
	}
	tecTab, err := AblationTEC()
	if err != nil {
		t.Fatal(err)
	}
	// Coverage decreases with episode severity.
	prev := 1e18
	for r := range tecTab.Rows {
		cov := cellFloat(t, tecTab, r, 5)
		if cov > prev+1e-9 {
			t.Errorf("coverage not non-increasing at row %d", r)
		}
		prev = cov
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 33 {
		t.Errorf("registered experiments = %d, want 33", len(ids))
	}
	if _, err := Run("nope", smallParams()); err == nil {
		t.Error("unknown id should error")
	}
	tab, err := Run("fig8", smallParams())
	if err != nil || tab.ID != "FIG8" {
		t.Errorf("Run(fig8) = %v, %v", tab, err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "a note")
	var text bytes.Buffer
	if err := tab.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	if !strings.Contains(out, "== X: t ==") || !strings.Contains(out, "note: a note") {
		t.Errorf("text rendering:\n%s", out)
	}
	var csvBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvBuf.String(), "a,bb\n") {
		t.Errorf("csv rendering: %q", csvBuf.String())
	}
	if s := tab.String(); !strings.Contains(s, "== X") {
		t.Error("String() broken")
	}
}
