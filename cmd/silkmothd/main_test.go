package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"silkmoth"
)

// parse runs args through the daemon's flag set.
func parse(args ...string) (options, error) {
	fs := flag.NewFlagSet("silkmothd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestBuildConfig checks that the engine's flags land in its Config.
func TestBuildConfig(t *testing.T) {
	o, err := parse("-metric", "containment", "-sim", "eds", "-scheme", "skyline",
		"-delta", "0.8", "-alpha", "0.6", "-q", "3", "-workers", "4", "-shards", "2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg := o.cfg; cfg.Metric != silkmoth.SetContainment || cfg.Similarity != silkmoth.Eds ||
		cfg.Scheme != silkmoth.SchemeSkyline || cfg.Delta != 0.8 || cfg.Alpha != 0.6 ||
		cfg.Q != 3 || cfg.Concurrency != 4 || cfg.Shards != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}

	if o, err := parse("-shards", "1"); err != nil {
		t.Fatal(err)
	} else if o.cfg.Concurrency != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers 0 should resolve to GOMAXPROCS, got %d", o.cfg.Concurrency)
	}

	for _, bad := range [][]string{{"-metric", "nope"}, {"-sim", "nope"}, {"-scheme", "nope"}} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("%v should fail", bad)
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
// spellings of each Metric through the daemon's flag set, and a bogus value
// of each, which must fail naming its flag.
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

// TestBuildEngineSharded checks that a -shards daemon config builds a
// sharded engine over every loadable source.
func TestBuildEngineSharded(t *testing.T) {
	dir := t.TempDir()
	o, err := parse("-delta", "0.5", "-workers", "2", "-shards", "3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.cfg
	setFile := filepath.Join(dir, "sets.txt")
	os.WriteFile(setFile, []byte("a: 77 Mass Ave | 5th St\nb: 77 Mass Ave | Elm St\nc: Oak St | Pine St\n"), 0o644)
	eng, n, err := buildEngine(cfg, setFile, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || eng.Shards() != 3 {
		t.Fatalf("n=%d shards=%d, want 3 sets on 3 shards", n, eng.Shards())
	}
	if ms, err := eng.SearchContext(context.Background(), silkmoth.Set{Elements: []string{"77 Mass Ave", "5th St"}}); err != nil || len(ms) == 0 {
		t.Fatalf("sharded search: ms=%v err=%v", ms, err)
	}
}

func TestBuildEngineSources(t *testing.T) {
	dir := t.TempDir()
	o, _ := parse("-delta", "0.5", "-workers", "1", "-shards", "1")
	cfg := o.cfg

	// No source and two sources are both rejected.
	if _, _, err := buildEngine(cfg, "", "", "", ""); err == nil {
		t.Error("no source should fail")
	}
	if _, _, err := buildEngine(cfg, "a", "b", "", ""); err == nil {
		t.Error("two sources should fail")
	}

	setFile := filepath.Join(dir, "sets.txt")
	os.WriteFile(setFile, []byte("a: 77 Mass Ave | 5th St\nb: 77 Mass Ave | Elm St\n"), 0o644)
	eng, n, err := buildEngine(cfg, setFile, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || eng.Len() != 2 {
		t.Fatalf("set file: %d sets indexed", n)
	}

	csvFile := filepath.Join(dir, "t.csv")
	os.WriteFile(csvFile, []byte("city,state\nBoston,MA\nSeattle,WA\n"), 0o644)
	_, n, err = buildEngine(cfg, "", csvFile, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("csv: %d sets, want 2 columns", n)
	}

	jsonFile := filepath.Join(dir, "sets.json")
	os.WriteFile(jsonFile, []byte(`[{"name": "j1", "elements": ["x y", "z w"]}]`), 0o644)
	eng, n, err = buildEngine(cfg, "", "", jsonFile, "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || eng.SetName(0) != "j1" {
		t.Fatalf("json: n=%d name=%q", n, eng.SetName(0))
	}

	// Round-trip through a saved collection.
	savedFile := filepath.Join(dir, "coll.bin")
	f, err := os.Create(savedFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveCollection(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	eng2, n, err := buildEngine(cfg, "", "", "", savedFile)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || eng2.SetName(0) != "j1" {
		t.Fatalf("saved: n=%d name=%q", n, eng2.SetName(0))
	}
}
