package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// -update regenerates the golden tables under testdata/golden/ from the
// current experiment code:
//
//	go test ./internal/harness -run TestGoldenTables -update
//
// Review the diff before committing — the golden files are the CI-enforced
// record of the published EXPERIMENTS.md numbers.
var update = flag.Bool("update", false, "rewrite the golden experiment tables")

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".golden")
}

// rendered memoises renderExperiment's output per experiment ID, so
// TestAllExperimentsRun and TestGoldenTables share one run of each
// experiment within a test binary.
var rendered sync.Map // experiment ID -> *renderedTable

type renderedTable struct {
	once sync.Once
	text string
	err  error
}

// renderExperiment runs one experiment (once per test binary) and renders
// its table exactly as the locad CLI prints it. It also checks the table's
// shape — at least one row, every row as wide as the header, the experiment
// ID in the rendered text — so those checks hold under -update too.
func renderExperiment(t *testing.T, e Experiment) string {
	t.Helper()
	v, _ := rendered.LoadOrStore(e.ID, &renderedTable{})
	r := v.(*renderedTable)
	r.once.Do(func() { r.text, r.err = checkedRender(e) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.text
}

// checkedRender runs e, checks its table's shape and renders it.
func checkedRender(e Experiment) (string, error) {
	table, err := e.Run()
	if err != nil {
		return "", fmt.Errorf("%s: %v", e.ID, err)
	}
	if len(table.Rows) == 0 {
		return "", fmt.Errorf("%s: empty table", e.ID)
	}
	for _, row := range table.Rows {
		if len(row) != len(table.Header) {
			return "", fmt.Errorf("%s: row %v has %d cells for %d columns", e.ID, row, len(row), len(table.Header))
		}
	}
	var sb strings.Builder
	table.Render(&sb)
	if !strings.Contains(sb.String(), e.ID) {
		return "", fmt.Errorf("%s: render missing experiment id", e.ID)
	}
	return sb.String(), nil
}

// TestGoldenTables checks every experiment's table shape and pins the rendered table against its snapshot in testdata/golden/.
// The experiments are deterministic (seeded RNGs, fixed iteration order), so
// any diff is a real behavior change: a numeric drift here means the
// published EXPERIMENTS.md values no longer hold and both the golden file
// and the doc must be updated deliberately.
func TestGoldenTables(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			got := renderExperiment(t, e)
			path := goldenPath(e.ID)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("table drifted from %s (regenerate with -update if intended)\n%s",
					path, firstDiff(string(want), got))
			}
		})
	}
}

// TestGoldenTablesMatchExperimentsDoc asserts that every golden table
// appears verbatim inside the "Raw tables (as generated)" block of
// EXPERIMENTS.md, so the published numbers, the golden snapshots and the
// code can never drift apart silently: code vs golden is checked above,
// golden vs doc here.
func TestGoldenTablesMatchExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	block := rawTablesBlock(t, string(doc))
	for _, e := range All() {
		want, err := os.ReadFile(goldenPath(e.ID))
		if err != nil {
			t.Fatalf("%s: missing golden file (run TestGoldenTables with -update): %v", e.ID, err)
		}
		// The golden file ends with the table's trailing blank line; the
		// last table in the doc block may not, so compare trimmed.
		if !strings.Contains(block, strings.TrimRight(string(want), "\n")) {
			t.Errorf("%s: golden table not found verbatim in EXPERIMENTS.md raw-tables block — update the doc to match the regenerated table", e.ID)
		}
	}
}

// rawTablesBlock extracts the contents of the last fenced code block of
// EXPERIMENTS.md — the "Raw tables (as generated)" section.
func rawTablesBlock(t *testing.T, doc string) string {
	t.Helper()
	marker := "## Raw tables (as generated)"
	i := strings.Index(doc, marker)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", marker)
	}
	rest := doc[i+len(marker):]
	open := strings.Index(rest, "```")
	if open < 0 {
		t.Fatal("raw-tables section has no opening fence")
	}
	rest = rest[open+3:]
	close := strings.Index(rest, "```")
	if close < 0 {
		t.Fatal("raw-tables section has no closing fence")
	}
	return rest[:close]
}

// firstDiff renders the first differing line of two table dumps, with
// context, for readable failure messages.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first diff at line %d:\n want: %q\n  got: %q", i+1, w, g)
		}
	}
	return "contents equal after newline normalization"
}
