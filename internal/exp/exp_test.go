package exp

import (
	"io"
	"strings"
	"testing"

	"bcmh/internal/graph"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "a", "longer-header", "c")
	tbl.Add(1, 2.5, "x")
	tbl.Add("wide-cell-value", 0.000123, "y")
	tbl.Note("footnote %d", 7)
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "longer-header") || !strings.Contains(out, "wide-cell-value") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "note: footnote 7") {
		t.Fatalf("missing note:\n%s", out)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows %d", tbl.NumRows())
	}
	// Column alignment: header and row cells start at the same offset.
	lines := strings.Split(out, "\n")
	hdr := lines[1]
	row := lines[3]
	cIdx := strings.Index(hdr, "longer-header")
	if row[cIdx-2:cIdx] != "  " {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTablePanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	NewTable("x", "a", "b").Add(1)
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("t", "name", "value")
	tbl.Add("plain", 1.5)
	tbl.Add("needs,quoting", 2.0)
	tbl.Add(`has"quote`, 3.0)
	var sb strings.Builder
	if err := tbl.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, `"needs,quoting"`) || !strings.Contains(csv, `"has""quote"`) {
		t.Fatalf("csv escaping: %q", csv)
	}
}

func TestDatasetsBuildConnected(t *testing.T) {
	for _, d := range Datasets() {
		g := d.Build(Quick, 1)
		if g.N() < 2 {
			t.Fatalf("%s: too small", d.Name)
		}
		if !graph.IsConnected(g) {
			t.Fatalf("%s: not connected", d.Name)
		}
	}
}

func TestDatasetByName(t *testing.T) {
	if _, err := DatasetByName("ba"); err != nil {
		t.Fatal(err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestScalePick(t *testing.T) {
	if Quick.pick(1, 2) != 1 || Full.pick(1, 2) != 2 {
		t.Fatal("scale pick wrong")
	}
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale labels wrong")
	}
}

func TestPickTargets(t *testing.T) {
	g := graph.KarateClub()
	targets := PickTargets(g, nil, 0.5, 0.9)
	if len(targets) != 3 {
		t.Fatalf("targets %v", targets)
	}
	if targets[0].Label != "top" || targets[0].Vertex != 0 {
		t.Fatalf("top target %+v (karate top is vertex 0)", targets[0])
	}
	if targets[0].BC < targets[1].BC || targets[1].BC < targets[2].BC {
		t.Fatalf("targets not rank-ordered: %+v", targets)
	}
	for _, tt := range targets[1:] {
		if tt.BC <= 0 {
			t.Fatalf("picked zero-BC target %+v", tt)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, err := ByID(strings.ToUpper(e.ID)); err != nil {
			t.Fatalf("ByID(%s): %v", e.ID, err)
		}
	}
	if _, err := ByID("zzz"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunT1(t *testing.T) {
	var sb strings.Builder
	if err := RunT1(&sb, Quick, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, d := range Datasets() {
		if !strings.Contains(out, d.Name) {
			t.Fatalf("T1 missing dataset %s:\n%s", d.Name, out)
		}
	}
}

func TestRunT4TheoremTwoShape(t *testing.T) {
	if testing.Short() {
		t.Skip("T4 runner (~5s, minutes under -race) skipped in -short mode")
	}
	var sb strings.Builder
	if err := RunT4(&sb, Quick, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Theorem 2") {
		t.Fatal("T4 output malformed")
	}
}

// TestRunAllQuick smoke-runs every experiment at quick scale. This is
// the expensive integration test (≈1 minute); skipped under -short.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite skipped in -short mode")
	}
	var sb strings.Builder
	if err := RunAll(&sb, Quick, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, e := range All() {
		// Every experiment contributes at least one table header.
		if !strings.Contains(strings.ToLower(out), e.ID+":") {
			t.Fatalf("experiment %s produced no table", e.ID)
		}
	}
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if _, err := t.WriteTo(&sb); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return sb.String()
}

// CSV writes the table as comma-separated values (headers first).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.headers))
	for i, h := range t.headers {
		cells[i] = esc(h)
	}
	if _, err := io.WriteString(w, strings.Join(cells, ",")+"\n"); err != nil {
		return err
	}
	for _, row := range t.rows {
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := io.WriteString(w, strings.Join(cells, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }
