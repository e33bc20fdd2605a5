package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"silkmoth"
)

// parse runs args through the command's flag set.
func parse(args ...string) (options, error) {
	fs := flag.NewFlagSet("silkmoth", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestBuildConfig checks that the engine's flags land in its Config.
func TestBuildConfig(t *testing.T) {
	o, err := parse("-metric", "containment", "-sim", "eds", "-scheme", "skyline", "-delta", "0.8", "-alpha", "0.7", "-workers", "4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.cfg
	if cfg.Metric != silkmoth.SetContainment || cfg.Similarity != silkmoth.Eds ||
		cfg.Scheme != silkmoth.SchemeSkyline || cfg.Delta != 0.8 || cfg.Alpha != 0.7 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Concurrency != 4 {
		t.Error("workers not carried")
	}
	if o, err := parse(); err != nil || o.cfg.Concurrency != runtime.GOMAXPROCS(0) {
		t.Errorf("-workers 0 gives %d (%v), want GOMAXPROCS", o.cfg.Concurrency, err)
	}
	for _, simName := range []string{"jaccard", "neds"} {
		if _, err := parse("-metric", "similarity", "-sim", simName); err != nil {
			t.Errorf("sim %s rejected: %v", simName, err)
		}
	}
	for _, bad := range [][]string{{"-metric", "bogus"}, {"-sim", "bogus"}, {"-scheme", "bogus"}} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// every lists the values of one of the config types, from 0 up to the
// first that has no text form.
func every[T interface {
	~int
	fmt.Stringer
	MarshalText() ([]byte, error)
}]() []T {
	var out []T
	for v := T(0); ; v++ {
		if _, err := v.MarshalText(); err != nil {
			return out
		}
		out = append(out, v)
	}
}

// TestFlagsTakeEveryValue runs every Similarity, every Scheme and both
// spellings of each Metric through the command's flag set, and a bogus
// value of each, which must fail naming its flag.
func TestFlagsTakeEveryValue(t *testing.T) {
	check := func(flag, text string, ok func(silkmoth.Config) bool) {
		t.Helper()
		if o, err := parse(flag, text); err != nil {
			t.Errorf("%s %s: %v", flag, text, err)
		} else if !ok(o.cfg) {
			t.Errorf("%s %s: cfg = %+v", flag, text, o.cfg)
		}
	}
	sims, schemes, metrics := every[silkmoth.Similarity](), every[silkmoth.Scheme](), every[silkmoth.Metric]()
	if len(sims) < 5 || len(schemes) < 5 || len(metrics) < 2 {
		t.Fatalf("the types list %v, %v, %v: fewer than their constants", sims, schemes, metrics)
	}
	for _, s := range sims {
		check("-sim", s.String(), func(c silkmoth.Config) bool { return c.Similarity == s })
	}
	for _, s := range schemes {
		check("-scheme", s.String(), func(c silkmoth.Config) bool { return c.Scheme == s })
	}
	for _, m := range metrics {
		for _, text := range []string{m.String(), strings.TrimPrefix(m.String(), "set-")} {
			check("-metric", text, func(c silkmoth.Config) bool { return c.Metric == m })
		}
	}
	for _, flag := range []string{"-metric", "-sim", "-scheme"} {
		if _, err := parse(flag, "bogus"); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s bogus: err = %v, want one naming the flag", flag, err)
		}
	}
}

// TestFilterFlags runs a discovery with the options of -no-check -no-nn: no
// filter prunes, where the default run's filters do, and the pairs are the
// same.
func TestFilterFlags(t *testing.T) {
	on, err := parse("-delta", "0.5", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	off, err := parse("-delta", "0.5", "-workers", "1", "-no-check", "-no-nn")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := silkmoth.NewEngine([]silkmoth.Set{
		{Name: "addresses", Elements: []string{"77 Mass Ave Boston MA", "5th St Seattle WA"}},
		{Name: "locations", Elements: []string{"77 Mass Ave Boston MA", "State St Chicago IL"}},
		{Name: "a", Elements: []string{"77", "Mass"}},
		{Name: "b", Elements: []string{"Ave", "Boston"}},
		{Name: "c", Elements: []string{"MA", "Pine St"}},
	}, on.cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(o options) ([]silkmoth.Pair, silkmoth.Explain) {
		var ex silkmoth.Explain
		ps, err := eng.DiscoverContext(context.Background(), append(filterOptions(o.noCheck, o.noNN), silkmoth.WithExplain(&ex))...)
		if err != nil {
			t.Fatal(err)
		}
		return ps, ex
	}
	want, def := run(on)
	got, unfiltered := run(off)
	if def.CheckPruned == 0 || def.NNPruned == 0 {
		t.Fatalf("the default run leaves a filter idle: %+v", def.Funnel)
	}
	if unfiltered.CheckPruned != 0 || unfiltered.NNPruned != 0 {
		t.Errorf("-no-check -no-nn still pruned: %+v", unfiltered.Funnel)
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
