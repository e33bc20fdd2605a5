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

func main() {
	var (
		addr     = flag.String("addr", ":7133", "listen address")
		input    = flag.String("input", "", "set file to index (one set per line)")
		csvFile  = flag.String("csv", "", "CSV file whose columns become sets")
		jsonFile = flag.String("json", "", "JSON file with an array of {name, elements} sets")
		saved    = flag.String("saved", "", "engine image previously written by the library's SaveCollection, or a snap-*.snap file copied out of a -data-dir")
		dataDir  = flag.String("data-dir", "",
			"durability directory: recover from its latest snapshot + WAL at startup (the input flags then only bootstrap an empty directory); POST /v1/snapshot rotates")
		metric    = flag.String("metric", "similarity", "similarity or containment")
		simName   = flag.String("sim", "jaccard", "element similarity: jaccard, eds, neds, dice, or cosine")
		delta     = flag.Float64("delta", 0.7, "relatedness threshold δ in (0,1]")
		alpha     = flag.Float64("alpha", 0, "element similarity threshold α in [0,1)")
		q         = flag.Int("q", 0, "gram length for edit similarities (0 = auto)")
		scheme    = flag.String("scheme", "dichotomy", "signature scheme: dichotomy, skyline, weighted, combunweighted, auto (per-query cost-based)")
		workers   = flag.Int("workers", 0, "parallel search passes of a discovery or batch; each runs on -shards / workers goroutines, at least one (0 = GOMAXPROCS)")
		shards    = flag.Int("shards", 0, "most goroutines one search pass runs on, shared among a discovery's or batch's parallel passes: a long pass splits into set-id chunks that helpers claim (0 = GOMAXPROCS, 1 = never split)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout (negative disables)")
		inflight  = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = 2*GOMAXPROCS)")
		cacheSize = flag.Int("cache-size", 1024, "result cache entries (negative disables)")
		compactAt = flag.Float64("compact-threshold", 0,
			"tombstone ratio triggering automatic index compaction after deletes/updates (0 = engine default, negative disables)")
		noExplain = flag.Bool("no-explain", false,
			"disable /v1/explain and per-request explain fields (explained queries bypass the result cache)")
		logFormat = flag.String("log-format", "text",
			"text (human startup/shutdown messages only) or json (adds one structured access line per request to stderr)")
		slowQuery = flag.Duration("slow-query", 0,
			"log any query at or past this engine latency as a JSON funnel line on stderr (0 disables)")
		slowSample = flag.Int("slow-query-sample", 0,
			"additionally log 1 in N queries' funnels regardless of latency, as a baseline (0 disables)")
		stageSample = flag.Int("stage-sample", 0,
			"time pipeline stages on 1 in N search passes for the /metrics stage histograms (0 = engine default 16, 1 = every pass, negative disables)")
		compress = flag.Bool("compressed-postings", false,
			"store posting lists as adaptive compressed containers decoded lazily (identical results, fraction of the heap; snapshot recovery becomes zero-copy via mmap)")
		postingCache = flag.Int64("posting-cache-bytes", 0,
			"decode-cache budget for hot compressed posting lists in bytes (0 = 64 MiB default; needs -compressed-postings)")
		pprofOn = flag.Bool("pprof", false,
			"mount /debug/pprof/* (CPU/heap profiles, goroutine dumps); off by default")
		version = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()

	if *version {
		bi := obs.ReadBuildInfo()
		fmt.Printf("silkmothd %s (%s", bi.Version, bi.GoVersion)
		if bi.Revision != "" {
			fmt.Printf(", %s", bi.Revision)
		}
		fmt.Println(")")
		return
	}
	if *logFormat != "text" && *logFormat != "json" {
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}

	cfg, err := buildConfig(*metric, *simName, *scheme, *delta, *alpha, *q, *workers, *shards)
	if err != nil {
		fatal(err)
	}
	cfg.CompactionThreshold = *compactAt
	cfg.StageSample = *stageSample
	cfg.DataDir = *dataDir
	cfg.CompressedPostings = *compress
	cfg.PostingCacheBytes = *postingCache

	eng, n, err := buildEngine(cfg, *input, *csvFile, *jsonFile, *saved)
	if err != nil {
		fatal(err)
	}
	log.Printf("silkmothd: indexed %d sets (metric=%s sim=%s scheme=%s delta=%g alpha=%g shards=%d)",
		n, cfg.Metric, cfg.Similarity, cfg.Scheme, cfg.Delta, cfg.Alpha, eng.Shards())
	if *dataDir != "" {
		st := eng.Stats()
		if st.RecoveredSnapshot {
			log.Printf("silkmothd: recovered from %s (replayed %d WAL records, torn tail: %v)",
				*dataDir, st.WALReplayed, st.WALTornTail)
		} else {
			log.Printf("silkmothd: initialized %s with a fresh snapshot", *dataDir)
		}
	}

	srvOpts := server.Options{
		RequestTimeout:     *timeout,
		MaxInFlight:        *inflight,
		CacheSize:          *cacheSize,
		DisableExplain:     *noExplain,
		SlowQueryThreshold: *slowQuery,
		SlowQuerySample:    *slowSample,
		AccessLog:          *logFormat == "json",
		EnablePprof:        *pprofOn,
	}
	// Structured lines (access log, slow-query funnels) go to stderr
	// whenever anything emits them; stdout stays clean for redirection.
	if srvOpts.AccessLog || *slowQuery > 0 || *slowSample > 0 {
		srvOpts.LogWriter = os.Stderr
	}
	srv := server.New(eng, cfg, srvOpts)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	errc := make(chan error, 1)
	go func() {
		log.Printf("silkmothd: listening on %s", *addr)
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

func buildConfig(metric, simName, scheme string, delta, alpha float64, q, workers, shards int) (silkmoth.Config, error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := silkmoth.Config{Delta: delta, Alpha: alpha, Q: q, Concurrency: workers, Shards: shards}
	switch metric {
	case "similarity":
		cfg.Metric = silkmoth.SetSimilarity
	case "containment":
		cfg.Metric = silkmoth.SetContainment
	default:
		return cfg, fmt.Errorf("unknown -metric %q", metric)
	}
	switch simName {
	case "jaccard":
		cfg.Similarity = silkmoth.Jaccard
	case "eds":
		cfg.Similarity = silkmoth.Eds
	case "neds":
		cfg.Similarity = silkmoth.NEds
	case "dice":
		cfg.Similarity = silkmoth.Dice
	case "cosine":
		cfg.Similarity = silkmoth.Cosine
	default:
		return cfg, fmt.Errorf("unknown -sim %q", simName)
	}
	sc, err := silkmoth.ParseScheme(scheme)
	if err != nil {
		return cfg, fmt.Errorf("unknown -scheme %q", scheme)
	}
	cfg.Scheme = sc
	return cfg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silkmothd:", err)
	os.Exit(1)
}
