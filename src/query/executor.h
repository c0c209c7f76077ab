#ifndef BIX_QUERY_EXECUTOR_H_
#define BIX_QUERY_EXECUTOR_H_

#include <memory>
#include <vector>

#include "expr/delta_eval.h"
#include "expr/evaluate.h"
#include "index/bitmap_index.h"
#include "query/query.h"
#include "storage/bitmap_cache.h"
#include "storage/disk_model.h"
#include "util/cancel_token.h"
#include "util/clock.h"

namespace bix {

// The two evaluation strategies of paper Section 6.3. A strategy decides
// which bitmaps are fetched and in what order — what the scans and modeled
// I/O count; the fetched bitmaps are then combined in one blocked pass
// whatever the strategy.
enum class EvalStrategy : uint8_t {
  // Evaluates one constituent interval query at a time, keeping a single
  // intermediate result. Minimal buffer requirement; a bitmap shared by
  // several constituents is fetched once per constituent (served by the
  // buffer pool when it fits, re-read from disk otherwise).
  kQueryWise,
  // Evaluates all constituents together, scanning each distinct bitmap
  // exactly once on behalf of every subquery (the strategy the paper uses
  // for its performance study). Needs buffer space for all referenced
  // bitmaps of the query.
  kComponentWise,
  // The scheduling heuristic the paper leaves as future work (Section 6.3):
  // evaluates one constituent at a time like kQueryWise (single
  // intermediate result, minimal buffer need), but greedily orders the
  // constituents so consecutive ones share as many bitmaps as possible,
  // letting the LRU pool serve the shared fetches even when it is far
  // smaller than the query's whole working set.
  kBufferAware,
};

struct ExecutorOptions {
  uint64_t buffer_pool_bytes = 11ull << 20;  // the paper's 11 MB pool
  DiskModel disk;
  EvalStrategy strategy = EvalStrategy::kComponentWise;
  // When true, the pool is dropped before every query, mimicking the
  // paper's flushed file-system buffer (each query starts cold). Must be
  // false when the executor borrows a shared cache.
  bool cold_pool_per_query = true;
  // Time source for deadline checks during evaluation (nullptr => real
  // steady clock). The query service passes its own clock so virtual-time
  // tests see consistent deadlines end to end.
  ClockInterface* clock = nullptr;
};

// Evaluates interval and membership queries against a BitmapIndex through
// the three-phase pipeline: membership rewrite -> interval rewrite ->
// bitmap expression evaluation, with buffer-pool-aware scheduling.
//
// Indexes built over a reordered column (IndexConfig.reorder, DESIGN.md
// section 18) are transparent here: every result bitmap is mapped back
// through the index's row order, so callers always receive original RIDs.
// Counts need no mapping (permutations preserve popcounts).
//
// The executor fetches bitmaps through a BitmapCacheInterface. By default
// it owns a private one-shard stored-form pool (the paper's single-query
// buffer pool); the second constructor borrows a shared cache instead so
// that many executors — one per worker thread of a QueryService — share
// fetched bitmaps across concurrent queries. Either way, I/O and CPU cost
// is accounted into the executor's own IoStats block, so per-executor
// breakdowns survive cache sharing.
class QueryExecutor {
 public:
  // Owns a one-shard PoolForm::kStored pool of options.buffer_pool_bytes
  // on options.disk and options.clock.
  QueryExecutor(const BitmapIndex* index, ExecutorOptions options);
  // Borrows `shared_cache` (must outlive the executor). Requires
  // options.cold_pool_per_query == false: a shared pool is never dropped
  // on behalf of a single query.
  QueryExecutor(const BitmapIndex* index, ExecutorOptions options,
                BitmapCacheInterface* shared_cache);

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  // Abort-on-error conveniences for trusted paths (benches, the paper
  // reproduction over freshly built indexes): out-of-domain arguments fail
  // a BIX_CHECK at the entry, and a storage error aborts with its message.
  // "lo <= A <= hi". Requires lo <= hi < cardinality.
  Bitvector EvaluateInterval(IntervalQuery q);
  // "A in {values}". Requires a non-empty list of values < cardinality.
  Bitvector EvaluateMembership(const std::vector<uint32_t>& values);
  // Evaluates already-rewritten constituents (the OR of their results), so
  // callers that time the rewrite separately (e.g. the query service's
  // per-query metrics) drive the pipeline in two steps. Storage-layer
  // failures during fetches (checksum mismatch -> Corruption, injected
  // transient read errors -> Unavailable, unknown keys -> InvalidArgument)
  // surface as a Status for *this* evaluation instead of aborting the
  // process. Work already accounted into stats() before the failure stays
  // accounted.
  //
  // `cancel` (nullable) is checked before every bitmap fetch in all three
  // strategies, so a query past its deadline (or cancelled mid-flight)
  // stops evaluating within one fetch and resolves DeadlineExceeded /
  // Cancelled — with the partial IoStats it accumulated still in stats().
  //
  // `count` (nullable) receives the result's popcount on success. The
  // blocked union evaluation counts in the same pass that writes the
  // result, so a caller that needs both never re-reads the bitmap.
  //
  // Take the bitmap with value() on the returned temporary (or on a moved
  // Result): the rvalue overload moves it out, the lvalue one copies.
  Result<Bitvector> TryEvaluateRewritten(const std::vector<ExprPtr>& exprs,
                                         const CancelToken* cancel = nullptr,
                                         uint64_t* count = nullptr);
  // Count-only evaluation (the serving path's COUNT entry point): the
  // number of qualifying rows without materializing (or copying out) the
  // result bitmap — COUNT(*) selections are counted block by block in the
  // evaluation pass, and a lone stored leaf straight off the cache's shared
  // handle. Identical to TryEvaluateRewritten(exprs)'s popcount for every
  // strategy.
  //
  // With a writable-index overlay (`delta` and `pred` both set, as for
  // TryEvaluateRewrittenMerged) it counts the merged answer, and the
  // blocked union over an unreordered base still builds no bitmap.
  Result<uint64_t> TryEvaluateCountRewritten(
      const std::vector<ExprPtr>& exprs, const CancelToken* cancel = nullptr,
      const DeltaView* delta = nullptr, const ValueSet* pred = nullptr);
  // Delta-aware serving entry: evaluates `exprs` against the base index and
  // merges the writable-index overlay (src/expr/delta_eval) so the result
  // covers overridden, appended, and tombstoned rows — bit-identical to
  // evaluating against a from-scratch rebuild of the updated column. The
  // tombstone mask is applied inside the evaluation pass, and `count`
  // (nullable) receives the result's popcount without re-reading it.
  // `pred` must be the value set of the same query `exprs` was rewritten
  // from. The view (and what it points into) must stay alive for the call.
  Result<Bitvector> TryEvaluateRewrittenMerged(
      const std::vector<ExprPtr>& exprs, const DeltaView& delta,
      const ValueSet& pred, const CancelToken* cancel = nullptr,
      uint64_t* count = nullptr);

  // Rewrites without executing (for inspection, tests, cost analysis).
  // `cancel` stops the membership rewrite loop between constituents once
  // the budget is gone (the partial rewrite is returned; the evaluation
  // entry check turns it into the typed status).
  ExprPtr Rewrite(IntervalQuery q) const;
  std::vector<ExprPtr> RewriteMembership(
      const std::vector<uint32_t>& values,
      const CancelToken* cancel = nullptr) const;

  // Query plan summary: the rewritten constituents and the modeled cost of
  // a cold evaluation (all distinct bitmaps read once).
  struct QueryPlan {
    std::vector<std::string> constituents;  // rendered bitmap expressions
    uint64_t distinct_bitmaps = 0;
    uint64_t cold_bytes = 0;       // stored bytes of the working set
    double est_io_seconds = 0.0;   // modeled cold I/O
    double est_decode_seconds = 0.0;

    std::string ToString() const;
  };
  // Both validate their arguments at the entry with the matching
  // Evaluate* entry's checks.
  QueryPlan ExplainMembership(const std::vector<uint32_t>& values) const;
  QueryPlan ExplainInterval(IntervalQuery q) const;

  // Cumulative I/O + CPU counters since construction / ResetStats. Local to
  // this executor even when the underlying cache is shared.
  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = IoStats{}; }
  void DropPool() { cache_->DropPool(); }

  // Per-query trace sink (nullable, not owned; DESIGN.md section 13). When
  // set, every evaluation opens spans for its fetches and one "kernel" span
  // for the combine under the caller's currently open span; the caches
  // receive the same sink so retry/backoff/modeled-I/O time lands in leaf
  // spans. The executor is single-threaded per query, so the service sets
  // the sink before Execute and clears it after; nullptr (the default)
  // traces nothing and allocates nothing. Tracing is observation-only:
  // results, IoStats, and cache state are bit-identical with the sink on or
  // off.
  void SetTraceSink(TraceSink* trace) { trace_ = trace; }

 private:
  // EvaluateMembership's preconditions: a non-empty value list, every
  // value < cardinality (BIX_CHECK).
  void CheckMembership(const std::vector<uint32_t>& values) const;
  // Reorders constituents for kBufferAware (greedy shared-leaf chaining).
  void OrderForSharing(std::vector<const ExprPtr*>* order);
  // Shared machinery of the value and count-only entry points: fetches
  // the bitmaps `exprs` needs in the configured strategy's order, then
  // combines them in one EvaluateUnionBlocked run over the shared handles.
  // On success the OR of the constituents goes to *rows_out and its
  // popcount to *count_out; either may be null (no rows_out is count-only:
  // no result bitmap is materialized). `exclude` (nullable, in index
  // positions) is and-notted out of the answer, which then spans
  // exclude->size() bits.
  Status EvalCore(const std::vector<ExprPtr>& exprs, const CancelToken* cancel,
                  Bitvector* rows_out, uint64_t* count_out,
                  const Bitvector* exclude);
  // The merged read behind both overlay entry points: the masked base
  // answer (in original RIDs), then MergeDeltaOverlay. With a null
  // rows_out on an unreordered base it asks EvalCore for the count only.
  Status EvalMerged(const std::vector<ExprPtr>& exprs, const DeltaView& delta,
                    const ValueSet& pred, const CancelToken* cancel,
                    Bitvector* rows_out, uint64_t* count_out);

  const BitmapIndex* index_;
  ExecutorOptions options_;
  std::unique_ptr<ShardedBitmapCache> owned_cache_;  // null when borrowing
  BitmapCacheInterface* cache_;  // owned_cache_.get() or borrowed
  IoStats stats_;
  TraceSink* trace_ = nullptr;  // per-query, set by the serving layer
};

}  // namespace bix

#endif  // BIX_QUERY_EXECUTOR_H_
