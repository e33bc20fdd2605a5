package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"silkmoth"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("containment", "eds", "skyline", 0.8, 0.7, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metric != silkmoth.SetContainment || cfg.Similarity != silkmoth.Eds ||
		cfg.Scheme != silkmoth.SchemeSkyline {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Concurrency != 4 {
		t.Error("workers not carried")
	}
	for _, simName := range []string{"jaccard", "neds"} {
		if _, err := buildConfig("similarity", simName, "dichotomy", 0.7, 0, 0, 0); err != nil {
			t.Errorf("sim %s rejected: %v", simName, err)
		}
	}
	if _, err := buildConfig("bogus", "jaccard", "dichotomy", 0.7, 0, 0, 0); err == nil {
		t.Error("bogus metric accepted")
	}
	if _, err := buildConfig("similarity", "bogus", "dichotomy", 0.7, 0, 0, 0); err == nil {
		t.Error("bogus similarity accepted")
	}
	if _, err := buildConfig("similarity", "jaccard", "bogus", 0.7, 0, 0, 0); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// TestFilterFlags runs a discovery with the options of -no-check -no-nn: no
// filter prunes, where the default run's filters do, and the pairs are the
// same.
func TestFilterFlags(t *testing.T) {
	cfg, err := buildConfig("similarity", "jaccard", "dichotomy", 0.5, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := silkmoth.NewEngine([]silkmoth.Set{
		{Name: "addresses", Elements: []string{"77 Mass Ave Boston MA", "5th St Seattle WA"}},
		{Name: "locations", Elements: []string{"77 Mass Ave Boston MA", "State St Chicago IL"}},
		{Name: "a", Elements: []string{"77", "Mass"}},
		{Name: "b", Elements: []string{"Ave", "Boston"}},
		{Name: "c", Elements: []string{"MA", "Pine St"}},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(noCheck, noNN, noRed bool) ([]silkmoth.Pair, silkmoth.Explain) {
		var ex silkmoth.Explain
		return eng.Discover(append(filterOptions(noCheck, noNN, noRed), silkmoth.WithExplain(&ex))...), ex
	}
	want, def := run(false, false, false)
	got, off := run(true, true, false)
	if def.CheckPruned == 0 || def.NNPruned == 0 {
		t.Fatalf("the default run leaves a filter idle: %+v", def.Funnel)
	}
	if off.CheckPruned != 0 || off.NNPruned != 0 {
		t.Errorf("-no-check -no-nn still pruned: %+v", off.Funnel)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-no-check -no-nn found %+v, the default %+v", got, want)
	}
}

func TestLoadSetsFromSetFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sets.txt")
	if err := os.WriteFile(path, []byte("a: x y | z\nb: w\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sets, err := loadSets(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || sets[0].Name != "a" || len(sets[0].Elements) != 2 {
		t.Errorf("sets = %+v", sets)
	}
}

func TestLoadSetsFromCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("c1,c2\na,b\nc,d\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sets, err := loadSets("", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || len(sets[0].Elements) != 2 {
		t.Errorf("csv sets = %+v", sets)
	}
}

func TestLoadSetsErrors(t *testing.T) {
	if _, err := loadSets("", ""); err == nil {
		t.Error("no input should fail")
	}
	if _, err := loadSets("a", "b"); err == nil {
		t.Error("both inputs should fail")
	}
	if _, err := loadSets(filepath.Join(t.TempDir(), "missing"), ""); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := loadSets("", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing csv should fail")
	}
}
