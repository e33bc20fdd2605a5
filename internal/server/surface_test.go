package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"silkmoth/internal/obs"
)

// surfaceGoldenFile pins the shape of the two operator surfaces: the
// /v1/stats key tree with each value's JSON type, and every /metrics
// family's name, TYPE, HELP and label names. Values are left out, so the
// golden changes only when a surface does. Regenerate it deliberately with
//
//	SILKMOTH_UPDATE_SURFACES=1 go test -run TestSurfaceGolden ./internal/server
const surfaceGoldenFile = "testdata/surfaces.golden"

func TestSurfaceGolden(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if w := postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`); w.Code != http.StatusOK {
		t.Fatalf("search = %d (%s)", w.Code, w.Body)
	}
	var stats any
	if err := json.Unmarshal(get(t, s, "/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(get(t, s, "/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			return
		}
		for k, child := range obj {
			lines = append(lines, fmt.Sprintf("/v1/stats %s%s %T", prefix, k, child))
			walk(prefix+k+".", child)
		}
	}
	walk("", stats)
	for _, f := range fams {
		lines = append(lines, fmt.Sprintf("/metrics %s %s {%s} %s", f.Name, f.Type, labelNames(f, ""), f.Help))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("SILKMOTH_UPDATE_SURFACES") == "1" {
		if err := os.WriteFile(surfaceGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(surfaceGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("surfaces drifted from %s:\n%s", surfaceGoldenFile, lineDiff(string(want), got))
	}
}

// labelNames lists the label names of a family's samples but skip, sorted
// and comma-separated.
func labelNames(f *obs.MetricFamily, skip string) string {
	seen := make(map[string]bool)
	var names []string
	for _, smp := range f.Samples {
		for l := range smp.Labels {
			if l != skip && !seen[l] {
				seen[l] = true
				names = append(names, l)
			}
		}
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

// TestMetricCatalogMatchesScrape holds the README's metric catalog to a live
// scrape: every family the table names is served with the kind and label
// names its row gives, and every served family has a row. A row names one
// family or several joined by " / ", with one kind for all or one each
// ("gauge/counter").
func TestMetricCatalogMatchesScrape(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ kind, labels string }
	catalog := make(map[string]entry)
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `silkmothd_") {
			continue
		}
		cells := strings.Split(line, " | ")
		names := strings.Split(strings.Trim(cells[0], "| "), " / ")
		kinds := strings.Split(cells[1], "/")
		for i, name := range names {
			kind := kinds[0]
			if len(kinds) == len(names) {
				kind = kinds[i]
			} else if len(kinds) != 1 {
				t.Errorf("catalog row %q: %d kinds for %d families", line, len(kinds), len(names))
			}
			name, labels, _ := strings.Cut(strings.Trim(name, "`"), "{")
			sorted := strings.Split(strings.TrimSuffix(labels, "}"), ",")
			sort.Strings(sorted)
			catalog[name] = entry{kind, strings.Join(sorted, ",")}
		}
	}

	s, _ := newTestServer(t, Options{})
	postJSON(t, s, "/v1/search", `{"set": {"elements": ["77 Mass Ave Boston MA"]}}`)
	fams, err := obs.ParseText(get(t, s, "/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	served := make(map[string]bool)
	for _, f := range fams {
		served[f.Name] = true
		c, ok := catalog[f.Name]
		if !ok {
			t.Errorf("/metrics serves %s, which the README catalog has no row for", f.Name)
			continue
		}
		if c.kind != f.Type {
			t.Errorf("%s: the catalog says %s, /metrics says %s", f.Name, c.kind, f.Type)
		}
		if got := labelNames(f, "le"); got != c.labels {
			t.Errorf("%s: the catalog lists labels {%s}, /metrics has {%s}", f.Name, c.labels, got)
		}
	}
	for name := range catalog {
		if !served[name] {
			t.Errorf("the README catalog lists %s, which /metrics does not serve", name)
		}
	}
}
