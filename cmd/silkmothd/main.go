// Command silkmothd serves related-set queries over HTTP/JSON. It loads a
// collection at startup — from a plain-text set file, CSV columns, a JSON
// set array, or a previously saved engine image — builds the engine
// once, and serves the full library surface concurrently:
//
//	POST /v1/search            related sets for one reference set
//	POST /v1/search/batch      many searches in one request
//	POST /v1/topk              the k best of a search
//	POST /v1/discover-against  all related pairs vs. a batch of references
//	POST /v1/compare           raw relatedness of two sets
//	GET/POST /v1/explain       one search + its plan (scheme, funnel, time)
//	POST /v1/sets              incrementally index more sets
//	DELETE /v1/sets/{id}       tombstone one set out of every future query
//	PUT  /v1/sets/{id}         atomically replace one set (new id returned)
//	POST /v1/snapshot          force a durable snapshot + WAL rotation (-data-dir)
//	GET  /v1/stats             engine pruning funnel + lifecycle + cache stats
//	GET  /v1/version           build metadata (module version, Go, revision)
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text metrics
//	GET  /debug/pprof/*        runtime profiles (opt-in via -pprof)
//
// Usage:
//
//	silkmothd -input sets.txt -metric similarity -delta 0.8
//	silkmothd -csv table.csv -metric containment -delta 0.9 -addr :8080
//	silkmothd -json sets.json -sim eds -delta 0.75 -timeout 10s
//	silkmothd -json sets.json -log-format json -slow-query 250ms -pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"silkmoth"
	"silkmoth/internal/dataset"
	"silkmoth/internal/obs"
	"silkmoth/internal/server"
)

// options are the daemon's flags: the engine's settings, bound straight
// into a silkmoth.Config, the server's into a server.Options, and the
// process's own.
type options struct {
	cfg                                   silkmoth.Config
	srv                                   server.Options
	addr, input, csvFile, jsonFile, saved string
	logFormat                             string
	version                               bool
}

// parseFlags registers the daemon's flags on fs and parses args into
// options. -workers 0 becomes GOMAXPROCS.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.addr, "addr", ":7133", "listen address")
	fs.StringVar(&o.input, "input", "", "set file to index (one set per line)")
	fs.StringVar(&o.csvFile, "csv", "", "CSV file whose columns become sets")
	fs.StringVar(&o.jsonFile, "json", "", "JSON file with an array of {name, elements} sets")
	fs.StringVar(&o.saved, "saved", "", "engine image previously written by the library's SaveCollection, or a snap-*.snap file copied out of a -data-dir")
	fs.StringVar(&o.cfg.DataDir, "data-dir", "",
		"durability directory: recover from its latest snapshot + WAL at startup (the input flags then only bootstrap an empty directory); POST /v1/snapshot rotates")
	fs.TextVar(&o.cfg.Metric, "metric", silkmoth.SetSimilarity, "similarity or containment (also set-similarity, set-containment)")
	fs.TextVar(&o.cfg.Similarity, "sim", silkmoth.Jaccard, "element similarity: jaccard, eds, neds, dice, or cosine")
	fs.Float64Var(&o.cfg.Delta, "delta", 0.7, "relatedness threshold δ in (0,1]")
	fs.Float64Var(&o.cfg.Alpha, "alpha", 0, "element similarity threshold α in [0,1)")
	fs.IntVar(&o.cfg.Q, "q", 0, "gram length for edit similarities (0 = auto)")
	fs.TextVar(&o.cfg.Scheme, "scheme", silkmoth.SchemeDichotomy, "signature scheme: dichotomy, skyline, weighted, combunweighted, auto (per-query cost-based)")
	fs.IntVar(&o.cfg.Concurrency, "workers", 0, "parallel search passes of a discovery or batch; each runs on -shards / workers goroutines, at least one (0 = GOMAXPROCS)")
	fs.IntVar(&o.cfg.Shards, "shards", 0, "most goroutines one search pass runs on, shared among a discovery's or batch's parallel passes: a long pass splits into set-id chunks that helpers claim (0 = GOMAXPROCS, 1 = never split)")
	fs.DurationVar(&o.srv.RequestTimeout, "timeout", 30*time.Second, "per-request timeout (negative disables)")
	fs.IntVar(&o.srv.MaxInFlight, "max-inflight", 0, "max concurrently executing queries (0 = 2*GOMAXPROCS)")
	fs.IntVar(&o.srv.CacheSize, "cache-size", 1024, "result cache entries (negative disables)")
	fs.Float64Var(&o.cfg.CompactionThreshold, "compact-threshold", 0,
		"tombstone ratio triggering automatic index compaction after deletes/updates (0 = engine default, negative disables)")
	fs.BoolVar(&o.srv.DisableExplain, "no-explain", false,
		"disable /v1/explain and per-request explain fields (explained queries bypass the result cache)")
	fs.StringVar(&o.logFormat, "log-format", "text",
		"text (human startup/shutdown messages only) or json (adds one structured access line per request to stderr)")
	fs.DurationVar(&o.srv.SlowQueryThreshold, "slow-query", 0,
		"log any query at or past this engine latency as a JSON funnel line on stderr (0 disables)")
	fs.IntVar(&o.srv.SlowQuerySample, "slow-query-sample", 0,
		"additionally log 1 in N queries' funnels regardless of latency, as a baseline (0 disables)")
	fs.IntVar(&o.cfg.StageSample, "stage-sample", 0,
		"time pipeline stages on 1 in N search passes for the /metrics stage histograms (0 = engine default 16, 1 = every pass, negative disables)")
	fs.BoolVar(&o.cfg.CompressedPostings, "compressed-postings", false,
		"store posting lists as adaptive compressed containers decoded lazily (identical results, fraction of the heap; snapshot recovery becomes zero-copy via mmap)")
	fs.Int64Var(&o.cfg.PostingCacheBytes, "posting-cache-bytes", 0,
		"decode-cache budget for hot compressed posting lists in bytes (0 = 64 MiB default; needs -compressed-postings)")
	fs.BoolVar(&o.srv.EnablePprof, "pprof", false,
		"mount /debug/pprof/* (CPU/heap profiles, goroutine dumps); off by default")
	fs.BoolVar(&o.version, "version", false, "print build metadata and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.cfg.Concurrency == 0 {
		o.cfg.Concurrency = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if o.version {
		bi := obs.ReadBuildInfo()
		fmt.Printf("silkmothd %s (%s", bi.Version, bi.GoVersion)
		if bi.Revision != "" {
			fmt.Printf(", %s", bi.Revision)
		}
		fmt.Println(")")
		return
	}
	if o.logFormat != "text" && o.logFormat != "json" {
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", o.logFormat))
	}
	cfg := o.cfg

	eng, n, err := buildEngine(cfg, o.input, o.csvFile, o.jsonFile, o.saved)
	if err != nil {
		fatal(err)
	}
	log.Printf("silkmothd: indexed %d sets (metric=%s sim=%s scheme=%s delta=%g alpha=%g shards=%d)",
		n, cfg.Metric, cfg.Similarity, cfg.Scheme, cfg.Delta, cfg.Alpha, eng.Shards())
	if cfg.DataDir != "" {
		st := eng.Stats()
		if st.RecoveredSnapshot {
			log.Printf("silkmothd: recovered from %s (replayed %d WAL records, torn tail: %v)",
				cfg.DataDir, st.WALReplayed, st.WALTornTail)
		} else {
			log.Printf("silkmothd: initialized %s with a fresh snapshot", cfg.DataDir)
		}
	}

	o.srv.AccessLog = o.logFormat == "json"
	// Structured lines (access log, slow-query funnels) go to stderr
	// whenever anything emits them; stdout stays clean for redirection.
	if o.srv.AccessLog || o.srv.SlowQueryThreshold > 0 || o.srv.SlowQuerySample > 0 {
		o.srv.LogWriter = os.Stderr
	}
	srv := server.New(eng, cfg, o.srv)
	httpSrv := &http.Server{Addr: o.addr, Handler: srv}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	errc := make(chan error, 1)
	go func() {
		log.Printf("silkmothd: listening on %s", o.addr)
		errc <- httpSrv.ListenAndServe()
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case sig := <-sigc:
		log.Printf("silkmothd: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fatal(err)
		}
		// In-flight mutations have drained; release the WAL handle.
		if err := eng.Close(); err != nil {
			fatal(err)
		}
	}
}

// buildEngine loads the startup collection from exactly one source and
// builds the engine over it, returning the indexed set count. With
// cfg.DataDir set the sources become optional — recovery supplies the
// collection when the directory has state, and the engine may start empty —
// and when one is given it only bootstraps an empty directory.
func buildEngine(cfg silkmoth.Config, input, csvFile, jsonFile, saved string) (*silkmoth.Engine, int, error) {
	sources := 0
	for _, s := range []string{input, csvFile, jsonFile, saved} {
		if s != "" {
			sources++
		}
	}
	if cfg.DataDir == "" && sources != 1 {
		return nil, 0, fmt.Errorf("exactly one of -input, -csv, -json, or -saved is required")
	}
	if sources > 1 {
		return nil, 0, fmt.Errorf("at most one of -input, -csv, -json, or -saved may be given")
	}
	if sources == 0 {
		eng, err := silkmoth.NewEngine(nil, cfg)
		if err != nil {
			return nil, 0, err
		}
		return eng, eng.Len(), nil
	}

	if saved != "" {
		f, err := os.Open(saved)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		eng, err := silkmoth.NewEngineFromSaved(f, cfg)
		if err != nil {
			return nil, 0, err
		}
		return eng, eng.Len(), nil
	}

	var raws []dataset.RawSet
	var err error
	switch {
	case input != "":
		raws, err = dataset.ReadRawSetsFile(input)
	case csvFile != "":
		var f *os.File
		f, err = os.Open(csvFile)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		raws, err = dataset.ReadCSVColumns(f, "")
	case jsonFile != "":
		raws, err = dataset.ReadJSONSetsFile(jsonFile)
	}
	if err != nil {
		return nil, 0, err
	}
	sets := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		sets[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	eng, err := silkmoth.NewEngine(sets, cfg)
	if err != nil {
		return nil, 0, err
	}
	return eng, len(sets), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silkmothd:", err)
	os.Exit(1)
}
