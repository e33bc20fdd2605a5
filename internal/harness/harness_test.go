package harness

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"silkmoth/internal/core"
)

// tinyScale keeps harness tests fast.
const tinyScale = 0.05

// figuresGoldenFile pins every row of every table and figure at tinyScale,
// wall time aside. Regenerate it deliberately, after a change that moves a
// funnel count or a kernel call, with:
//
//	SILKMOTH_UPDATE_FIGURES=1 go test -run TestFiguresGolden ./internal/harness
const figuresGoldenFile = "testdata/figures.golden"

// allRows is the last full run of every table and figure at tinyScale.
// TestFiguresGolden runs first and refreshes it, so the tests of single
// figures check the rows it pinned without running the sweeps again.
var allRows []Row

func runAllFigures(t *testing.T) []Row {
	t.Helper()
	rows, err := RunFigure("all", tinyScale, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	allRows = rows
	return rows
}

// figureRows returns the rows of the figure panel id, which must number
// want.
func figureRows(t *testing.T, id string, want int) []Row {
	t.Helper()
	rows := allRows
	if rows == nil {
		rows = runAllFigures(t)
	}
	var out []Row
	for _, r := range rows {
		if r.Figure == id {
			out = append(out, r)
		}
	}
	if len(out) != want {
		t.Fatalf("%s rows = %d, want %d", id, len(out), want)
	}
	return out
}

// TestFiguresGolden regenerates Table 3 and Figures 4-9 at tinyScale and
// holds their rows to figuresGoldenFile; the funnel only narrows on every
// row. The relations each figure shows are checked by the TestRunFig*
// tests below over the same rows.
func TestFiguresGolden(t *testing.T) {
	rows := runAllFigures(t)
	var got bytes.Buffer
	WriteHeader(&got)
	for _, r := range rows {
		// A string-matching pass with no valid signature (§7.3) verifies
		// every set without counting candidates.
		if r.Candidates < r.AfterCheck || r.AfterCheck < r.AfterNN ||
			(r.App != stringMatching.String() && r.AfterNN < r.Verified) {
			t.Errorf("%s %s %s δ=%v α=%v sets=%d: funnel widens: %d → %d → %d → %d",
				r.Figure, r.App, r.Variant, r.Delta, r.Alpha, r.Sets,
				r.Candidates, r.AfterCheck, r.AfterNN, r.Verified)
		}
		r.TimeSec = 0
		r.Write(&got)
	}

	if os.Getenv("SILKMOTH_UPDATE_FIGURES") == "1" {
		if err := os.WriteFile(figuresGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		var diff []string
		for i := 0; i < max(len(gl), len(wl)); i++ {
			g, w := line(gl, i), line(wl, i)
			if g != w {
				diff = append(diff, fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, w, g))
			}
		}
		t.Errorf("figures drifted from %s (regenerate with SILKMOTH_UPDATE_FIGURES=1):\n%s",
			figuresGoldenFile, strings.Join(diff, "\n"))
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// Filters, schemes and the reduction change the work, never the answer:
// every variant of one figure at one parameter point reports the same
// results — the harness-level restatement of the exactness property.
func TestVariantsAgreeOnResults(t *testing.T) {
	rows := allRows
	if rows == nil {
		rows = runAllFigures(t)
	}
	type point struct {
		figure, app  string
		delta, alpha float64
		sets         int
	}
	results := map[point]Row{}
	for _, r := range rows {
		p := point{r.Figure, r.App, r.Delta, r.Alpha, r.Sets}
		if o, ok := results[p]; ok && o.Results != r.Results {
			t.Errorf("%v: %s %d results, %s %d", p, r.Variant, r.Results, o.Variant, o.Results)
		}
		results[p] = r
	}
}

func TestRunConfigDiscovery(t *testing.T) {
	w := buildWorkload(schemaMatching, tinyScale, 0.75, 0, 1)
	opts := core.DefaultOptions(w.base.Metric, w.base.Sim, 0.75, 0)
	row := runConfig(w, opts, variantOpt, "test")
	if row.Sets != len(w.coll.Sets) || row.TimeSec < 0 {
		t.Errorf("row = %+v", row)
	}
	if row.Results == 0 {
		t.Error("schema workload should contain related pairs (planted dups)")
	}
	if row.Candidates < row.AfterCheck || row.AfterCheck < row.AfterNN || row.AfterNN < row.Verified {
		t.Errorf("funnel not monotone: %+v", row)
	}
}

func TestRunConfigSearch(t *testing.T) {
	w := buildWorkload(inclusionDependency, tinyScale, 0.75, 0.5, 1)
	opts := core.DefaultOptions(w.base.Metric, w.base.Sim, 0.75, 0.5)
	row := runConfig(w, opts, variantOpt, "test")
	if row.Results == 0 {
		t.Error("inclusion workload should find planted containments")
	}
}

func TestRunTable3(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunFigure("table3", tinyScale, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("table3 rows = %d", len(rows))
	}
	for _, a := range allApps {
		if !strings.Contains(buf.String(), a.String()) {
			t.Errorf("table3 output missing %s", a)
		}
	}
}

// OPT must verify no more sets than NOOPT, per application.
func TestRunFig4Small(t *testing.T) {
	rows := figureRows(t, "fig4", 2*len(allApps))
	for i := 0; i < len(rows); i += 2 {
		noopt, opt := rows[i], rows[i+1]
		if noopt.Variant != variantNoOpt || opt.Variant != variantOpt {
			t.Fatalf("fig4 pair = %s, %s", noopt.Variant, opt.Variant)
		}
		if opt.Verified > noopt.Verified {
			t.Errorf("%s: OPT verified more than NOOPT: %d vs %d", noopt.App, opt.Verified, noopt.Verified)
		}
	}
}

// The dichotomy scheme must produce no more candidates than
// COMBUNWEIGHTED at the default δ (the headline of §8.2), on every panel.
func TestRunFig5cSmall(t *testing.T) {
	for _, id := range []string{"fig5a", "fig5b", "fig5c"} {
		cands := map[string]int64{}
		for _, r := range figureRows(t, id, 4*len(deltaSweep)) {
			if r.Delta == defaultDelta {
				cands[r.Variant] = r.Candidates
			}
		}
		if cands["DICHOTOMY"] > cands["COMBUNWEIGHTED"] {
			t.Errorf("%s: dichotomy produced more candidates than the baseline: %v", id, cands)
		}
	}
}

// Verified counts must shrink NOFILTER ≥ CHECK ≥ NN at every δ, on every
// panel.
func TestRunFig6cSmall(t *testing.T) {
	for _, id := range []string{"fig6a", "fig6b", "fig6c"} {
		byDelta := map[float64]map[string]int64{}
		for _, r := range figureRows(t, id, 3*len(deltaSweep)) {
			if byDelta[r.Delta] == nil {
				byDelta[r.Delta] = map[string]int64{}
			}
			byDelta[r.Delta][r.Variant] = r.Verified
		}
		for d, m := range byDelta {
			if m[variantNoFilter] < m[variantCheck] || m[variantCheck] < m[variantNN] {
				t.Errorf("%s: filter funnel broken at δ=%v: %v", id, d, m)
			}
		}
	}
}

// Figure 7 pairs NOREDUCTION with REDUCTION at each δ.
func TestRunFig7Small(t *testing.T) {
	rows := figureRows(t, "fig7", 2*len(deltaSweep))
	for i := 0; i < len(rows); i += 2 {
		if rows[i].Variant != variantNoRed || rows[i+1].Variant != variantRed || rows[i].Delta != rows[i+1].Delta {
			t.Errorf("fig7 pair = %+v, %+v", rows[i], rows[i+1])
		}
	}
}

// Figure 8 pairs SILKMOTH with FASTJOIN at each δ (8a) and each α (8b).
func TestRunFig8bSmall(t *testing.T) {
	for _, id := range []string{"fig8a", "fig8b"} {
		rows := figureRows(t, id, 8)
		for i := 0; i < len(rows); i += 2 {
			if rows[i].Variant != variantSilkmoth || rows[i+1].Variant != variantFastJoin ||
				rows[i].Delta != rows[i+1].Delta || rows[i].Alpha != rows[i+1].Alpha {
				t.Errorf("%s pair = %+v, %+v", id, rows[i], rows[i+1])
			}
		}
	}
}

// Corpus sizes must grow along the scale sweep, on every panel.
func TestRunFig9cSmall(t *testing.T) {
	for _, id := range []string{"fig9a", "fig9b", "fig9c"} {
		rows := figureRows(t, id, len(scaleSweep)*len(deltaSweep))
		for i := len(deltaSweep); i < len(rows); i++ {
			if prev := rows[i-len(deltaSweep)]; prev.Sets >= rows[i].Sets {
				t.Errorf("%s: scale sweep not growing at row %d: %d → %d sets", id, i, prev.Sets, rows[i].Sets)
			}
		}
	}
}

func TestBuildWorkloadShapes(t *testing.T) {
	sm := buildWorkload(stringMatching, tinyScale, 0.75, 0.8, 1)
	if sm.refs != sm.coll || sm.search {
		t.Error("string matching should be self-join discovery")
	}
	if sm.base.Sim != core.Eds || sm.base.Q != 3 {
		t.Errorf("string matching base = %+v, want Eds q=3", sm.base)
	}
	sch := buildWorkload(schemaMatching, tinyScale, 0.75, 0, 1)
	if sch.base.Sim != core.Jaccard || sch.base.Metric != core.SetSimilarity {
		t.Errorf("schema matching base = %+v", sch.base)
	}
	inc := buildWorkload(inclusionDependency, tinyScale, 0.75, 0.5, 1)
	if !inc.search || inc.base.Metric != core.SetContainment {
		t.Errorf("inclusion dependency should be containment search: %+v", inc.base)
	}
	if inc.index == nil {
		t.Error("search workload must carry a prebuilt index")
	}
	if len(inc.refs.Sets) == 0 || len(inc.refs.Sets) > len(inc.coll.Sets) {
		t.Errorf("refs = %d of %d", len(inc.refs.Sets), len(inc.coll.Sets))
	}
}

func TestRunFigureUnknown(t *testing.T) {
	if _, err := RunFigure("fig99", 1, 1, nil); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestAppString(t *testing.T) {
	if stringMatching.String() != "string-matching" ||
		schemaMatching.String() != "schema-matching" ||
		inclusionDependency.String() != "inclusion-dependency" {
		t.Error("App strings broken")
	}
	if app(9).String() == "" {
		t.Error("unknown app should render")
	}
}

func TestWriteHeaderAndRow(t *testing.T) {
	var buf bytes.Buffer
	WriteHeader(&buf)
	Row{Figure: "figX", App: "a", Variant: "v"}.Write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("output = %q", buf.String())
	}
	if !strings.HasPrefix(lines[0], "figure") || !strings.HasPrefix(lines[1], "figX") {
		t.Errorf("alignment broken: %q", buf.String())
	}
}

func TestRefsFromLargeSets(t *testing.T) {
	w := buildWorkload(inclusionDependency, tinyScale, 0.75, 0, 1)
	refs := refsFromLargeSets(w.coll, 50, 5)
	if len(refs.Sets) > 5 {
		t.Errorf("refs = %d, want ≤ 5", len(refs.Sets))
	}
	for _, s := range refs.Sets {
		if len(s.Elements) < 50 {
			t.Errorf("ref %s has %d elements, want ≥ 50", s.Name, len(s.Elements))
		}
	}
}
