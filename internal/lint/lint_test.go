package lint

import (
	"strings"
	"testing"
)

// TestFixturesGolden runs each analyzer over its fixture package and
// compares the diagnostics against the fixture's // want comments, in
// both directions: every want must be produced, every diagnostic wanted.
func TestFixturesGolden(t *testing.T) {
	cases := []struct {
		dir       string
		analyzers string
		wantPath  string
	}{
		{"testdata/src/hotpathfix", "hotpath", "hotpathfix"},
		{"testdata/src/internal/wal", "fsyncerr", "internal/wal"},
		{"testdata/src/internal/core", "ctxflow", "internal/core"},
		{"testdata/src/silkmoth", "ctxflow", "silkmoth"},
		{"testdata/src/internal/server", "metricnames", "internal/server"},
	}
	for _, c := range cases {
		t.Run(c.analyzers, func(t *testing.T) {
			pkg, err := LoadDir(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			if pkg.Path != c.wantPath {
				t.Fatalf("pseudo import path = %q, want %q", pkg.Path, c.wantPath)
			}
			as, err := ByName(c.analyzers)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run([]*Package{pkg}, as)
			if len(diags) == 0 {
				t.Fatalf("fixture %s produced no diagnostics; the analyzer is not firing", c.dir)
			}
			for _, fail := range CheckGolden(pkg, diags) {
				t.Error(fail)
			}
		})
	}
}

// TestFixtureReadmeResolution pins that a fixture directory's own README
// shadows the module root catalog.
func TestFixtureReadmeResolution(t *testing.T) {
	pkg, err := LoadDir("testdata/src/internal/server")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(pkg.ReadmePath, "testdata/src/internal/server/README.md") {
		t.Fatalf("ReadmePath = %q, want the fixture's own README", pkg.ReadmePath)
	}
}

// TestSuppressionRequiresReason pins that a bare //silkmothlint:ignore
// without a reason does not silence anything.
func TestSuppressionRequiresReason(t *testing.T) {
	pkg, err := LoadDir("testdata/src/internal/wal")
	if err != nil {
		t.Fatal(err)
	}
	sup := suppressions(pkg)
	if len(sup) != 1 {
		t.Fatalf("fixture should carry exactly one valid suppression, got %d", len(sup))
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("hotpath,nosuch"); err == nil {
		t.Fatal("unknown analyzer name should error")
	}
	as, err := ByName("")
	if err != nil || len(as) != 4 {
		t.Fatalf("default suite = %d analyzers (%v), want 4", len(as), err)
	}
}
