package server

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"silkmoth"
	"silkmoth/internal/obs"
)

// This file renders the two operator surfaces: /v1/stats embeds the engine's
// Stats blocks under their own JSON keys, and /metrics writes one table of
// families. A counter added to a silkmoth.Stats block reaches /v1/stats by
// its JSON key and /metrics by its row in families; TestStatsOnEverySurface
// fails when the row is missing.

type statsResponse struct {
	// Sets is the live set count; Tombstones counts deleted sets whose
	// postings await compaction. Generation is the mutation counter
	// conditional mutations (if_generation) compare against.
	Sets       int    `json:"sets"`
	Tombstones int    `json:"tombstones"`
	Generation int64  `json:"generation"`
	Shards     int    `json:"shards"`
	Metric     string `json:"metric"`
	Similarity string `json:"similarity"`
	// ConfiguredScheme is the engine's signature scheme by name ("auto"
	// means per-query cost-based selection; individual queries may also
	// pin a scheme per request).
	ConfiguredScheme string                  `json:"scheme"`
	Delta            float64                 `json:"delta"`
	Alpha            float64                 `json:"alpha"`
	UptimeSeconds    float64                 `json:"uptime_seconds"`
	Engine           engineStats             `json:"engine"`
	Cache            cacheStats              `json:"cache"`
	Storage          silkmoth.PostingStorage `json:"storage"`
	Durability       durabilityStats         `json:"durability"`
}

type engineStats struct {
	SearchPasses int64 `json:"search_passes"`
	silkmoth.Funnel
	SplitPasses  int64 `json:"split_passes"`
	HelperChunks int64 `json:"helper_chunks"`
	Compactions  int64 `json:"compactions"`
	// Scheme counts signatured passes by the concrete signature scheme
	// that probed the index; with -scheme auto it exposes the per-query
	// cost-based selection.
	Scheme silkmoth.SchemeCounts `json:"scheme"`
}

type cacheStats struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// durabilityStats is the snapshot/WAL block: all zero, and Enabled false,
// on an engine without a data directory.
type durabilityStats struct {
	Enabled bool `json:"enabled"`
	silkmoth.Durability
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		Sets:             st.Live,
		Tombstones:       st.Tombstones,
		Generation:       atomic.LoadInt64(&s.gen),
		Shards:           s.eng.Shards(),
		Metric:           s.cfg.Metric.String(),
		Similarity:       s.cfg.Similarity.String(),
		ConfiguredScheme: s.cfg.Scheme.String(),
		Delta:            s.cfg.Delta,
		Alpha:            s.cfg.Alpha,
		UptimeSeconds:    s.met.uptime().Seconds(),
		Engine: engineStats{
			SearchPasses: st.SearchPasses,
			Funnel:       st.Funnel,
			SplitPasses:  st.SplitPasses,
			HelperChunks: st.HelperChunks,
			Compactions:  st.Compactions,
			Scheme:       st.SchemeCounts,
		},
		Cache:      cacheStats{Entries: s.cache.len(), Hits: s.met.hits(), Misses: s.met.misses()},
		Storage:    st.PostingStorage,
		Durability: durabilityStats{Enabled: s.cfg.DataDir != "", Durability: st.Durability},
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.eng.Stats()
	obs.WriteFamilies(w, s.met.families()...)
	obs.WriteFamilies(w, s.families(&st)...)
	obs.WriteRuntimeMetrics(w)
	obs.WriteBuildInfoMetric(w)
}

// families is the engine side of the /metrics table, one row per family:
// the collection, every field of st's blocks, the stage histograms, and the
// result cache.
func (s *Server) families(st *silkmoth.Stats) []obs.Family {
	sl := s.eng.StageLatencies()
	stages := obs.Family{Name: "silkmothd_stage_seconds", Type: "histogram",
		Help: "Per-pass pipeline stage latency: signature generation, candidate collect/check, NN-refine, exact verification (sampled; see StageSample)."}
	for _, h := range []struct {
		stage string
		h     silkmoth.LatencyHistogram
	}{{"signature", sl.Signature}, {"collect", sl.Collect}, {"refine", sl.Refine}, {"verify", sl.Verify}} {
		stages.Series = append(stages.Series, obs.Series{Labels: fmt.Sprintf("stage=%q", h.stage), Value: h.h.Sum.Seconds(), Buckets: h.h.Counts})
	}
	return []obs.Family{
		obs.Gauge("silkmothd_collection_sets", "Live sets currently indexed.", st.Live),
		obs.Gauge("silkmothd_collection_tombstones", "Deleted sets whose postings await compaction.", st.Tombstones),
		obs.Counter("silkmothd_engine_compactions_total", "Compaction passes run by the engine.", st.Compactions),
		obs.Counter("silkmothd_mutation_generation", "Mutations applied to the collection since startup.", atomic.LoadInt64(&s.gen)),
		obs.Gauge("silkmothd_engine_shards", "Most goroutines one search runs on (1 = the caller's only).", s.eng.Shards()),

		obs.Counter("silkmothd_engine_search_passes_total", "Search passes run by the engine.", st.SearchPasses),
		obs.Counter("silkmothd_engine_full_scans_total", "Signatureless full-scan passes run by the engine.", st.FullScans),
		obs.Counter("silkmothd_engine_signature_tokens_total", "Signature tokens generated across passes.", st.SigTokens),
		obs.Counter("silkmothd_engine_candidates_total", "Candidate sets matched by signature tokens before refinement.", st.Candidates),
		obs.Counter("silkmothd_engine_after_check_total", "Candidates that survived the check filter.", st.AfterCheck),
		obs.Counter("silkmothd_engine_check_pruned_total", "Candidates rejected by the check filter.", st.CheckPruned),
		obs.Counter("silkmothd_engine_after_nn_total", "Candidates that survived the nearest-neighbor filter.", st.AfterNN),
		obs.Counter("silkmothd_engine_nn_pruned_total", "Candidates rejected by the nearest-neighbor filter.", st.NNPruned),
		obs.Counter("silkmothd_engine_verified_total", "Maximum-matching verifications run by the engine.", st.Verified),
		obs.Counter("silkmothd_engine_sim_evals_total", "Element-similarity kernel calls made by the check and nearest-neighbor filters.", st.SimEvals),
		obs.Counter("silkmothd_engine_sim_memo_hits_total", "Filter similarity requests answered by the per-pass memo without a kernel call.", st.SimMemoHits),
		obs.Counter("silkmothd_engine_sim_counted_total", "Element pairs the check and nearest-neighbor filters scored from index overlap counts without a kernel call.", st.SimCounted),
		obs.Counter("silkmothd_engine_sim_bounded_total", "Element pairs the check filter dropped on a bound from index counts and sizes, without memo probe or kernel call.", st.SimBounded),
		obs.Labelled("silkmothd_engine_scheme_selected_total", "counter", "Signatured passes by concrete signature scheme.",
			"scheme", []string{"weighted", "skyline", "dichotomy", "combunweighted"},
			st.SchemeWeighted, st.SchemeSkyline, st.SchemeDichotomy, st.SchemeCombUnweighted),

		obs.Gauge("silkmothd_result_cache_entries", "Entries in the result cache.", s.cache.len()),
		obs.Counter("silkmothd_result_cache_evictions_total", "Cache entries evicted by capacity pressure (purges excluded).", s.cache.evictions()),
		stages,
		obs.Counter("silkmothd_search_split_passes_total", "Search passes whose first set-id chunk ran long enough to start helpers.", st.SplitPasses),
		obs.Counter("silkmothd_search_helper_chunks_total", "Set-id chunks of split search passes that helpers ran.", st.HelperChunks),

		obs.Flag("silkmothd_posting_storage_compressed", "Whether the inverted index stores posting lists as compressed containers.", st.CompressedPostings),
		obs.Labelled("silkmothd_posting_storage_bytes", "gauge", "Posting storage by form: heap-materialized lists, encoded container bytes, decode-cache resident bytes, the element directory.",
			"form", []string{"heap", "encoded", "resident", "directory"},
			st.PostingHeapBytes, st.PostingEncodedBytes, st.PostingResidentBytes, st.PostingDirectoryBytes),
		obs.Labelled("silkmothd_posting_cache_probes_total", "counter", "Decode-cache probes of compressed posting lists by outcome.",
			"outcome", []string{"hit", "miss"}, st.PostingCacheHits, st.PostingCacheMisses),
		obs.Counter("silkmothd_posting_decode_errors_total", "Container decode failures (non-zero only with a corrupted snapshot).", st.PostingDecodeErrors),
		obs.Flag("silkmothd_snapshot_mapped", "Whether the index's containers alias a memory-mapped snapshot (zero-copy load).", st.SnapshotMapped),

		obs.Counter("silkmothd_snapshots_total", "Durable snapshots written since startup.", st.Snapshots),
		obs.Counter("silkmothd_wal_appends_total", "Mutation records appended (fsync'd) to the write-ahead log since startup.", st.WALRecords),
		obs.Gauge("silkmothd_wal_replayed_records", "WAL records replayed over the recovered snapshot at startup.", st.WALReplayed),
		obs.Flag("silkmothd_recovered_snapshot", "Whether startup recovered a durable snapshot (1) or bootstrapped fresh (0).", st.RecoveredSnapshot),
		obs.Flag("silkmothd_wal_torn_tail", "Whether startup discarded a torn final WAL record (expected after a crash mid-append).", st.WALTornTail),
	}
}
