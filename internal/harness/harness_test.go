package harness

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pgxsort/internal/dist"
	"pgxsort/internal/sample"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{
		N:            40000,
		Procs:        []int{4, 8},
		Workers:      2,
		Seed:         7,
		TwitterScale: 12,
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "hello, world"}, {"2", `quote"inside`}},
		Notes:  []string{"note line"},
	}
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "note line") {
		t.Fatalf("render missing pieces:\n%s", out)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"hello, world"`) {
		t.Fatalf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"quote""inside"`) {
		t.Fatalf("quote cell not escaped: %s", csv)
	}
	dir := t.TempDir()
	path, err := tb.WriteCSV(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "x-1.csv" {
		t.Fatalf("csv path = %s", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// paperIDs is the registry, pinned: Tables I-III and Figures 4-11 in the
// paper's order, then the four ablations. An experiment that measures the
// shipped system rather than the paper belongs in benchmark/ or a test.
var paperIDs = []string{
	"table1", "fig4", "fig5", "fig6", "fig7", "table2", "fig8", "table3",
	"fig9", "fig10", "fig11",
	"ablation-investigator", "ablation-async", "ablation-transport", "baselines",
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig5"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(ids, paperIDs) {
		t.Fatalf("registry is\n  %v\nwant exactly the paper's\n  %v", ids, paperIDs)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.N == 0 || len(c.Procs) == 0 || c.Workers == 0 || c.Seed == 0 ||
		c.Transport == "" || c.TwitterScale == 0 || c.Reps == 0 {
		t.Fatalf("defaults missing: %+v", c)
	}
}

// TestPartsCoverN: the generated input is c.N keys whatever the
// processor count, so the N a table title prints is the N its
// percentages are over.
func TestPartsCoverN(t *testing.T) {
	c := Config{N: 1003, Seed: 7}
	for _, procs := range []int{1, 4, 10, 52} {
		total := 0
		for _, part := range c.parts(dist.RightSkewed, procs) {
			total += len(part)
		}
		if total != c.N {
			t.Errorf("p=%d: parts hold %d keys, want N=%d", procs, total, c.N)
		}
	}
}

func TestFig4Shares(t *testing.T) {
	tabs, err := Fig4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 16 || len(tb.Header) != 5 {
		t.Fatalf("fig4 shape: %d rows x %d cols", len(tb.Rows), len(tb.Header))
	}
	// Percentages per distribution must sum to ~100.
	for col := 1; col < 5; col++ {
		var sum float64
		for _, row := range tb.Rows {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if err != nil {
				t.Fatalf("cell %q: %v", row[col], err)
			}
			sum += v
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("column %d sums to %.2f%%", col, sum)
		}
	}
}

func TestFig5Runs(t *testing.T) {
	tabs, err := Fig5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("fig5 rows = %d, want one per procs value", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		for col := 1; col < len(row); col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || v <= 0 {
				t.Fatalf("fig5 cell %q not a positive time", row[col])
			}
		}
	}
}

func TestFig6Runs(t *testing.T) {
	c := tinyConfig()
	c.Procs = []int{4}
	tabs, err := Fig6(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("fig6 should produce one table per distribution, got %d", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) != 1 {
			t.Fatalf("fig6 rows = %d", len(tb.Rows))
		}
	}
}

func TestFig7StepRows(t *testing.T) {
	c := tinyConfig()
	c.Procs = []int{4}
	tabs, err := Fig7(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("fig7 tables = %d, want 2 (normal, right-skewed)", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) != 6 {
			t.Fatalf("fig7 should have 6 step rows, got %d", len(tb.Rows))
		}
	}
}

func TestTable2LoadShares(t *testing.T) {
	c := tinyConfig()
	tabs, err := Table2(c)
	if err != nil {
		t.Fatal(err)
	}
	balanced := tabs[0]
	if len(balanced.Rows) != 4 {
		t.Fatalf("table2 rows = %d", len(balanced.Rows))
	}
	// Paper shape: every processor holds 10%, within the bound exact-rank
	// splitters guarantee (sample.Epsilon above, one sample spacing more
	// below) and the table's printed rounding.
	const p = 10
	m := c.N / p
	s := sample.Count(sample.DefaultBufferBytes, p, 8, 1, m)
	eps := sample.Epsilon(p, s, m)
	lo, hi := 10*(1-eps-1/float64(s+1))-printRound, 10*(1+eps)+printRound
	for _, row := range balanced.Rows {
		for col := 1; col < len(row); col++ {
			v := cellFloat(t, strings.TrimSuffix(row[col], "%"))
			if v < lo || v > hi {
				t.Errorf("%s %s: share %.3f%% outside [%.3f%%, %.3f%%]", row[0], balanced.Header[col], v, lo, hi)
			}
		}
	}
	// The ablation table must show gross imbalance somewhere.
	ablation := tabs[1]
	sawSkew := false
	for _, row := range ablation.Rows {
		for col := 1; col < len(row); col++ {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if v > 25 {
				sawSkew = true
			}
		}
	}
	if !sawSkew {
		t.Error("investigator-off table shows no imbalance; expected one processor far above 10%")
	}
}

func TestTable3RangesMonotone(t *testing.T) {
	c := tinyConfig()
	tabs, err := Table3(c)
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 16 {
		t.Fatalf("table3 rows = %d", len(tb.Rows))
	}
	// Each column's ranges must be non-overlapping and increasing.
	for col := 1; col < len(tb.Header); col++ {
		prevMax := -1
		for _, row := range tb.Rows {
			cell := row[col]
			if cell == "-" || cell == "(empty)" {
				continue
			}
			parts := strings.Split(cell, " - ")
			if len(parts) != 2 {
				t.Fatalf("bad range cell %q", cell)
			}
			lo, err1 := strconv.Atoi(parts[0])
			hi, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil || hi < lo {
				t.Fatalf("bad range cell %q", cell)
			}
			if lo < prevMax {
				t.Errorf("column %s ranges overlap: %d < %d", tb.Header[col], lo, prevMax)
			}
			prevMax = hi
		}
	}
}

func TestFig9FactorSweep(t *testing.T) {
	c := tinyConfig()
	c.Procs = []int{8}
	tabs, err := Fig9(c)
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	if len(tb.Rows) != 7 {
		t.Fatalf("fig9 rows = %d, want 7 factors", len(tb.Rows))
	}
	// Samples per proc must grow with the factor.
	first, _ := strconv.Atoi(tb.Rows[0][1])
	last, _ := strconv.Atoi(tb.Rows[6][1])
	if first >= last {
		t.Errorf("samples/proc not increasing: %d .. %d", first, last)
	}
	// comm_bytes sums every node's traffic, and only the sample part of
	// it depends on the factor, so the sum cannot fall as the factor
	// grows.
	for i := 1; i < len(tb.Rows); i++ {
		prev, _ := strconv.ParseInt(tb.Rows[i-1][2], 10, 64)
		cur, _ := strconv.ParseInt(tb.Rows[i][2], 10, 64)
		if cur < prev {
			t.Errorf("comm_bytes falls from %d at %s to %d at %s", prev, tb.Rows[i-1][0], cur, tb.Rows[i][0])
		}
	}
	// Paper shape: imbalance falls as the sample grows to X, and every
	// row is within the bound for its samples per processor.
	imb := func(row int) float64 { return cellFloat(t, tb.Rows[row][5]) }
	if !(imb(0) > imb(1) && imb(1) > imb(3)) {
		t.Errorf("imbalance at 0.004X, 0.04X, X = %.3f, %.3f, %.3f: not falling", imb(0), imb(1), imb(3))
	}
	const p = 8
	m := len(c.twitterDegrees()) / p
	for i, row := range tb.Rows {
		s, _ := strconv.Atoi(row[1])
		if bound := 1 + sample.Epsilon(p, s, m) + printRound; imb(i) > bound {
			t.Errorf("%s: imbalance %.3f exceeds 1+ε = %.3f at %d samples/proc", row[0], imb(i), bound, s)
		}
	}
}

func TestFig10MinMax(t *testing.T) {
	c := tinyConfig()
	c.Procs = []int{4}
	tabs, err := Fig10(c)
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	for _, row := range tb.Rows {
		for i := 1; i < len(row); i += 2 {
			minV, _ := strconv.Atoi(row[i])
			maxV, _ := strconv.Atoi(row[i+1])
			if minV > maxV {
				t.Errorf("min %d > max %d in row %v", minV, maxV, row)
			}
		}
		// Paper shape: the min/max gap shrinks from 0.004X to X.
		gap := func(col int) float64 { return cellFloat(t, row[col+1]) - cellFloat(t, row[col]) }
		if gap(3) >= gap(1) {
			t.Errorf("procs %s: min/max gap %.0f at X, not below %.0f at 0.004X", row[0], gap(3), gap(1))
		}
	}
}

func TestFig11Memory(t *testing.T) {
	c := tinyConfig()
	c.Procs = []int{4}
	tabs, err := Fig11(c)
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("resident memory cell %q invalid", row[1])
		}
	}
}

func TestFig8AndBaselines(t *testing.T) {
	c := tinyConfig()
	c.Procs = []int{4}
	tabs, err := Fig8(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 1 {
		t.Fatalf("fig8 rows = %d", len(tabs[0].Rows))
	}
	bt, err := Baselines(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(bt[0].Rows) != 4 {
		t.Fatalf("baselines rows = %d, want 4 systems", len(bt[0].Rows))
	}
}

func TestAblationsRun(t *testing.T) {
	c := tinyConfig()
	c.Procs = []int{4}
	for _, run := range []func(Config) ([]Table, error){
		AblationInvestigator, AblationAsync, AblationTransport,
	} {
		tabs, err := run(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			t.Fatal("ablation produced no rows")
		}
	}
}

// TestAblationInvestigatorOnWithinBound: with the investigator on (exact
// ranks) every duplicate-heavy kind, constant input included, stays
// within the balance bound; off, constant input lands on one part.
func TestAblationInvestigatorOnWithinBound(t *testing.T) {
	c := tinyConfig()
	c.Procs = []int{4}
	tabs, err := AblationInvestigator(c)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	m := c.N / p
	bound := 1 + sample.Epsilon(p, sample.Count(sample.DefaultBufferBytes, p, 8, 1, m), m) + printRound
	for _, row := range tabs[0].Rows {
		imb := cellFloat(t, row[3])
		switch {
		case row[1] == "on" && imb > bound:
			t.Errorf("%s on: imbalance %.3f exceeds 1+ε = %.4f", row[0], imb, bound)
		case row[1] == "off" && row[0] == "constant" && imb != p:
			t.Errorf("constant off: imbalance %.3f, want %d (one part holds everything)", imb, p)
		}
	}
}

// printRound is the rounding error of a table cell printed to three
// decimals.
const printRound = 0.0005

// cellFloat parses a numeric table cell.
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// TestRunAllIDs: "all" is the fifteen paper experiments and nothing that
// starts a server or a failpoint storm; it must complete at tiny scale
// and yield every registered id's tables in registry order.
func TestRunAllIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c := tinyConfig()
	c.Procs = []int{4}
	c.N = 20000
	c.TwitterScale = 10
	tables, err := Run([]string{"all"}, c)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: table %q has no rows", tb.ID, tb.Title)
		}
		if len(ids) == 0 || ids[len(ids)-1] != tb.ID {
			ids = append(ids, tb.ID)
		}
	}
	if !slices.Equal(ids, paperIDs) {
		t.Fatalf("Run(all) produced tables for\n  %v\nwant\n  %v", ids, paperIDs)
	}
	if _, err := Run([]string{"nope"}, c); err == nil {
		t.Fatal("Run accepted unknown id")
	}
}
