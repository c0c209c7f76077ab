#ifndef BIX_SERVER_QUERY_SERVICE_H_
#define BIX_SERVER_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "index/bitmap_index.h"
#include "index/delta_store.h"
#include "query/executor.h"
#include "server/brownout.h"
#include "server/metrics.h"
#include "server/metrics_registry.h"
#include "server/work_queue.h"
#include "storage/bitmap_cache.h"
#include "util/cancel_token.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/trace.h"

namespace bix {

// One query as submitted to the service: either an interval query
// "lo <= A <= hi" or a membership query "A in {values}", optionally
// carrying a deadline/cancellation budget.
struct ServiceQuery {
  enum class Kind : uint8_t { kInterval, kMembership };

  Kind kind = Kind::kInterval;
  IntervalQuery interval;
  std::vector<uint32_t> values;  // membership only
  // COUNT(*) selection: resolve only the number of qualifying rows. The
  // worker answers through the executor's count-only entry point, so the
  // result bitmap is never materialized for (or copied to) the client —
  // QueryResult.count carries the answer and QueryResult.rows stays empty.
  bool count_only = false;
  // Deadline + cooperative cancel handle (nullable = unbounded). The
  // service checks it while the query waits for admission, at dequeue
  // (queue-side shedding), and before every bitmap fetch during
  // evaluation; the client keeps its copy of the shared_ptr to Cancel() a
  // queued or running query. Deadlines must be time_points of the
  // service's clock (real steady_clock unless ServiceOptions::clock says
  // otherwise).
  std::shared_ptr<CancelToken> cancel;
  // Per-query tracing (DESIGN.md section 13): when set, the worker builds
  // a TraceSpan tree for this query — admission/queue waits, rewrite,
  // evaluation with per-fetch I/O / decode / retry / backoff leaves and
  // per-node kernel spans — and returns it in QueryResult.trace. Tracing
  // is observation-only (results and IoStats are bit-identical with it on
  // or off) and costs nothing when off: no sink is constructed, no span is
  // allocated.
  bool traced = false;

  static ServiceQuery Interval(IntervalQuery q) {
    ServiceQuery sq;
    sq.kind = Kind::kInterval;
    sq.interval = q;
    return sq;
  }
  static ServiceQuery Membership(std::vector<uint32_t> values) {
    ServiceQuery sq;
    sq.kind = Kind::kMembership;
    sq.values = std::move(values);
    return sq;
  }

  ServiceQuery& CountOnly() {
    count_only = true;
    return *this;
  }
  ServiceQuery& WithCancel(std::shared_ptr<CancelToken> token) {
    cancel = std::move(token);
    return *this;
  }
  ServiceQuery& WithTrace() {
    traced = true;
    return *this;
  }
  // Convenience: a fresh token expiring `seconds` from now on the real
  // steady clock.
  ServiceQuery& WithTimeout(double seconds) {
    return WithCancel(CancelToken::WithTimeout(seconds));
  }
};

// The service's answer: resolved rows plus the per-query cost breakdown.
// `status` is Unavailable when the query was rejected by admission control,
// the service was shutting down, shed by the overload breaker, or a storage
// read stayed unavailable past the retry budget; InvalidArgument for
// malformed queries; Corruption when a bitmap this query needed failed its
// integrity check (or was already quarantined by an earlier failure);
// DeadlineExceeded when the query's time budget ran out (while queued, at
// admission, or mid-evaluation); Cancelled when the caller cancelled it.
// `rows` is meaningful only when status.ok() and the query was not
// count-only; `count` carries the qualifying-row count for count-only
// queries (and equals rows.Count() otherwise); `metrics` also covers
// degraded queries (the work done before the failure).
struct QueryResult {
  Status status;
  Bitvector rows;
  uint64_t count = 0;
  QueryMetrics metrics;
  // The query's span tree when it was submitted with WithTrace(); null
  // otherwise. The root span covers submit-to-completion; its leaves
  // decompose that latency exactly under a VirtualClock (DESIGN.md
  // section 13). shared_ptr so results stay cheaply copyable and the slow-
  // query log can retain a rendering without deep-copying the tree.
  std::shared_ptr<const TraceSpan> trace;
};

struct ServiceOptions {
  uint32_t num_workers = 4;
  // Admission control: TrySubmit rejects once this many queries wait.
  size_t queue_capacity = 256;
  // Shared cache: total byte budget, split over lock-striped shards.
  uint64_t buffer_pool_bytes = 11ull << 20;
  uint32_t cache_shards = 8;
  // When > 0, cache misses sleep for the modeled (io + decode) seconds
  // scaled by this factor, turning the DiskModel into actual latency.
  // Benches use this to measure worker scaling; leave 0 for tests.
  double io_latency_scale = 0.0;

  // Degradation policy (DESIGN.md section 10). A fetch failing with
  // Unavailable (transient read error) is retried up to max_fetch_retries
  // times with exponential backoff starting at retry_backoff_seconds; a
  // fetch failing its integrity check quarantines the key, and subsequent
  // queries touching it fail fast with Corruption instead of re-reading
  // known-bad storage.
  uint32_t max_fetch_retries = 3;
  double retry_backoff_seconds = 100e-6;
  // Retry-storm decorrelation (DESIGN.md section 11): when nonzero, every
  // backoff sleep after the first draws from the decorrelated-jitter
  // schedule (util/backoff.h) seeded here, instead of deterministic
  // doubling — concurrent retry loops against one unavailable blob stop
  // re-arriving in phase. The schedule is a pure function of (seed,
  // per-fetch stream, sleep index), so a fixed seed replays exact sleep
  // sequences under a VirtualClock; 0 keeps the legacy exponential
  // schedule (and the observability goldens pinned against it).
  uint64_t retry_jitter_seed = 0;
  // Cap on a single jittered backoff sleep; 0 = uncapped. Ignored by the
  // legacy doubling schedule.
  double retry_backoff_max_seconds = 0.0;
  // Optional deterministic fault injection on the shared cache's read path
  // (chaos tests, resilience benches). Not owned; must outlive the
  // service. nullptr serves clean.
  FaultInjector* fault_injector = nullptr;

  // Time model (DESIGN.md section 11). `clock` is the single time source
  // for queue timestamps, deadline checks, retry backoff, modeled I/O
  // latency, and the breaker dwell — nullptr means the real steady clock;
  // tests pass a VirtualClock so chaos/deadline suites run in simulated
  // time. Not owned; must outlive the service.
  ClockInterface* clock = nullptr;
  // Adaptive overload control: when the rolling fraction of retryable
  // fetch failures or deadline misses crosses brownout.open_threshold, the
  // service temporarily cuts the retry budget and sheds the queued entries
  // with the least remaining deadline, reopening via half-open probes.
  // Enabled by default; set brownout.enabled = false for the exact
  // unthrottled degradation accounting of section 10.
  BrownoutOptions brownout;

  // Writable serving (the IndexSnapshotProvider constructor; DESIGN.md
  // section 15). When compaction_interval_seconds > 0 a background task
  // periodically folds the provider's delta overlay into the component
  // bitmaps — unless the brownout breaker is open or probing, in which
  // case the fold is skipped for that tick (compaction is the most
  // deferrable work the service owns, so overload sheds it first;
  // compactions_shed counts the skips). 0 disables the task; CompactNow()
  // stays available either way. Ignored in read-only mode.
  double compaction_interval_seconds = 0.0;
  // Background compaction folds only once this many overlay ops are
  // pending (folding a near-empty delta is all checkpoint cost, no gain).
  uint64_t compaction_min_delta_ops = 1;
};

// Wire format of QueryService::ExportMetrics.
enum class MetricsFormat : uint8_t { kText, kJson };

// A concurrent query service over one immutable BitmapIndex: a bounded
// MPMC work queue feeding a fixed pool of worker threads, each running its
// own QueryExecutor over one shared ShardedBitmapCache. This is the
// serving layer the ROADMAP's production north-star plugs into — admission
// control bounds memory under overload, per-query metrics roll up into
// service counters and latency histograms, and Shutdown drains
// deterministically.
//
// Failure model: workers evaluate through the fallible TryFetchDecoded path
// behind a shared degradation policy (bounded retry on Unavailable,
// quarantine on Corruption), so a flipped bit or transient read error in
// stored data fails *that query* with a typed Status — it never aborts the
// process or poisons other queries' results.
//
// Read-only mode (the BitmapIndex constructor): the index must be
// immutable while the service is running (no Append); it is read
// concurrently without locks.
//
// Writable mode (the IndexSnapshotProvider constructor): every query pins
// an epoch-consistent {base index, delta overlay} snapshot before
// evaluating, merges the overlay into its result, and never observes a
// partially applied batch — writers swap immutable snapshots instead of
// mutating shared state. When compaction retires an epoch, workers rebind
// to a fresh per-epoch sharded cache (cache entries are keyed by
// BitmapKey, whose meaning changes with the base); queries still in
// flight on the old epoch keep its base alive via their pinned snapshot
// and stay bit-identical to that epoch's rebuild.
class QueryService {
 public:
  QueryService(const BitmapIndex* index, ServiceOptions options);
  // Writable mode. The provider (not owned) must outlive the service.
  QueryService(IndexSnapshotProvider* provider, ServiceOptions options);
  ~QueryService();  // implies Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Blocking admission (backpressure): waits for queue space. The future
  // resolves when a worker finishes the query. After Shutdown, resolves
  // immediately with Unavailable. A query carrying a deadline waits for
  // admission at most until that deadline (then resolves
  // DeadlineExceeded), so blocking admission can never park a caller
  // forever behind a full queue.
  std::future<QueryResult> Submit(ServiceQuery query);

  // Non-blocking admission control: when the queue is full (or the service
  // is shut down) the future resolves immediately with an Unavailable
  // status instead of queueing unboundedly.
  std::future<QueryResult> TrySubmit(ServiceQuery query);

  // Push-style admission for event-driven front ends (the TCP tier in
  // src/net): instead of a future, `done` is invoked exactly once with the
  // result — on the worker thread that completed or shed the query, or
  // inline on this thread when admission rejects it. Non-blocking
  // (TrySubmit semantics): an event loop must never park behind a full
  // queue. `done` must not block for long and must not re-enter the
  // service.
  using ResultCallback = std::function<void(QueryResult)>;
  void SubmitCallback(ServiceQuery query, ResultCallback done);

  // Convenience: blocking-submits the whole batch and waits for every
  // result (order matches the input).
  std::vector<QueryResult> ExecuteBatch(std::vector<ServiceQuery> batch);

  // Blocks until every queued and in-flight query has completed. New
  // submissions remain allowed (drain of a moment, not a barrier).
  void Drain();

  // Deterministic shutdown: stops admitting, lets workers finish every
  // already-queued query, joins all workers. Idempotent AND a barrier for
  // every caller: concurrent callers all block until the workers are
  // joined, not just the one that got there first.
  void Shutdown();

  // Point-in-time aggregate counters (thread-safe). A compatibility view
  // assembled from the metrics registry: the ad-hoc per-field accounting
  // this struct used to own now lives in named registry counters and
  // per-stage striped histograms, and Stats() reads them back (per-stage
  // seconds totals are the histograms' sums).
  ServiceStats Stats() const;

  // Varz-style dump of every registered metric — query counters, per-stage
  // latency histograms (count/sum/p50/p95/p99), degradation and breaker
  // gauges, I/O roll-up — plus, in text form, the slow-query log with each
  // retained query's rendered trace. Deterministic for a deterministic
  // workload under a VirtualClock (the observability suite pins goldens).
  std::string ExportMetrics(MetricsFormat format = MetricsFormat::kText) const;

  // True while the brownout breaker is not closed (open or probing). The
  // network front end uses this as accept-backpressure: while the service
  // is browning out, new connections are refused with a typed overload
  // error instead of adding load. Always false when brownout is disabled.
  bool OverloadBrownout() const;

  // Writable mode only: folds the provider's pending overlay into the
  // bitmaps right now (synchronously, on the caller's thread), regardless
  // of breaker state or the background task's schedule. InvalidArgument
  // in read-only mode; otherwise the provider's Compact status.
  Status CompactNow();

  // The current epoch's shared cache. In writable mode the reference is
  // only stable between compactions; read-only mode has a single epoch.
  const ShardedBitmapCache& cache() const;

 private:
  struct Task {
    ServiceQuery query;
    std::promise<QueryResult> promise;
    // Callback-mode resolution (SubmitCallback): when set, the result goes
    // here and the promise is never touched.
    ResultCallback done;
    // Admission-edge timestamps (service clock): Submit entry and queue
    // push. "admission" spans cover submitted->enqueued, "queue" spans
    // enqueued->worker pickup.
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point enqueued;

    // Exactly-once resolution, whichever channel the submitter chose.
    void Resolve(QueryResult result) {
      if (done) {
        done(std::move(result));
      } else {
        promise.set_value(std::move(result));
      }
    }
  };

  // The degradation policy wrapped around the shared cache: bounded
  // retry-with-backoff on retryable errors plus the quarantine set.
  // Defined in query_service.cc; shared by all workers.
  class FaultPolicyCache;

  // One epoch's read stack: the base index it serves, the sharded cache
  // over that base's store, and the degradation policy (retry budget +
  // quarantine — also per epoch, since keys change meaning when the base
  // is refolded). Workers pin the current one per query and rebind when
  // the provider's epoch moves on; in-flight queries keep retired epochs
  // alive through their shared_ptr.
  struct EpochCache;

  QueryService(const BitmapIndex* index, IndexSnapshotProvider* provider,
               ServiceOptions options);

  std::shared_ptr<EpochCache> MakeEpochCache(
      uint64_t epoch, std::shared_ptr<const BitmapIndex> base);
  // The cache for `snap`'s epoch: the installed one when current, a newer
  // one installed on first sight, or a private throwaway for a snapshot
  // that lost the race with a concurrent compaction.
  std::shared_ptr<EpochCache> EpochCacheFor(const IndexSnapshot& snap);

  // Validation at the admission edge, so malformed queries fail with a
  // Status instead of aborting a worker.
  Status Validate(const ServiceQuery& query) const;
  std::future<QueryResult> SubmitInternal(ServiceQuery query, bool blocking,
                                          ResultCallback done = nullptr);
  void WorkerLoop();
  void CompactionLoop();
  // `snap` is the query's pinned snapshot in writable mode, null in
  // read-only mode.
  QueryResult Execute(QueryExecutor* executor, const Task& task,
                      const IndexSnapshot* snap);
  void RecordCompletion(const Task& task, const QueryResult& result);
  // Refreshes the point-in-time export gauges (breaker, degradation
  // counters owned by the policy cache, I/O roll-up, pool residency) just
  // before a dump, so exporters never read stale snapshots.
  void RefreshGauges() const;
  // Resolves `tasks`, shed from the queue without executing, with
  // `status` decided at `now`: releases them from the pending count, and
  // a traced task gets its admission and queue waits plus the tags
  // shed=`where` and its status. Both shedding points route through here:
  // "at_dequeue" (expired/cancelled when a worker pops it) and "brownout".
  void ResolveShed(std::span<Task> tasks, const Status& status,
                   const char* where, ClockInterface::TimePoint now);
  // Sheds the lowest-remaining-deadline fraction of the queue when the
  // breaker opens; shed tasks resolve Unavailable without executing.
  void ShedForBrownout();

  const BitmapIndex* index_;                // read-only mode; else null
  IndexSnapshotProvider* const provider_;   // writable mode; else null
  const ServiceOptions options_;
  ClockInterface* const clock_;
  uint32_t cardinality_ = 0;  // fixed for the service's lifetime
  std::unique_ptr<BrownoutBreaker> breaker_;  // null when brownout disabled
  mutable std::mutex epoch_mu_;
  std::shared_ptr<EpochCache> epoch_cache_;  // guarded by epoch_mu_
  BoundedWorkQueue<Task> queue_;
  std::vector<std::thread> workers_;
  // Background compaction (writable mode with a positive interval).
  std::thread compaction_thread_;
  std::shared_ptr<CancelToken> compaction_cancel_;

  // Named metrics (DESIGN.md section 13). Counter/gauge/histogram handles
  // are registered once in the constructor and cached here, so hot-path
  // updates are relaxed atomic adds (counters) or one striped-lock Record
  // (histograms) — the registry mutex is only ever taken at registration
  // and dump time. `mutable` so const exporters can refresh gauges.
  mutable MetricsRegistry registry_;
  SlowQueryLog slow_log_;
  struct Handles {
    MetricsCounter* submitted;
    MetricsCounter* rejected_invalid;
    MetricsCounter* rejected_overload;
    MetricsCounter* completed;
    MetricsCounter* degraded;
    MetricsCounter* deadline_exceeded;
    MetricsCounter* cancelled;
    MetricsCounter* shed_in_queue;
    MetricsCounter* traced;
    MetricsCounter* retries;
    MetricsCounter* corruptions;
    MetricsCounter* quarantined;
    MetricsGauge* breaker_state;
    MetricsGauge* breaker_opens;
    MetricsGauge* breaker_open_seconds;
    MetricsGauge* pool_bytes_used;
    MetricsGauge* io_scans;
    MetricsGauge* io_pool_hits;
    MetricsGauge* io_disk_reads;
    MetricsGauge* io_rescans;
    MetricsGauge* io_bytes_read;
    MetricsGauge* io_seconds;
    MetricsGauge* io_decode_seconds;
    MetricsGauge* io_cpu_seconds;
    // Stored-form decodes by codec (io_decodes_<codec>), indexed by CodecId.
    MetricsGauge* io_codec_decodes[kNumCodecs];
    StripedLatencyHistogram* stage_queue;
    StripedLatencyHistogram* stage_rewrite;
    StripedLatencyHistogram* stage_eval;
    StripedLatencyHistogram* latency_total;
    // Writable mode only (registered by the provider constructor, so
    // read-only exports — and their goldens — are unchanged).
    MetricsCounter* compactions_shed = nullptr;
    MetricsGauge* wal_appends = nullptr;
    MetricsGauge* wal_bytes = nullptr;
    MetricsGauge* recovered_batches = nullptr;
    MetricsGauge* truncated_tail_records = nullptr;
    MetricsGauge* compactions = nullptr;
    MetricsGauge* delta_rows = nullptr;
  };
  Handles m_{};

  mutable std::mutex stats_mu_;
  // Roll-up of per-query IoStats blocks (guarded by stats_mu_; IoStats is
  // a plain value type).
  IoStats io_total_;
  // Queries admitted but not yet completed (queued or in flight); Drain
  // waits for this to reach zero. Guarded by stats_mu_.
  uint64_t pending_ = 0;
  std::condition_variable drained_cv_;

  // Shutdown is a barrier: the first caller joins the workers, every
  // concurrent or later caller waits on shutdown_done_cv_ until the join
  // has completed (returning early would let a caller observe a service
  // whose workers are still running).
  std::mutex lifecycle_mu_;
  enum class Lifecycle : uint8_t { kRunning, kShuttingDown, kDone };
  Lifecycle lifecycle_ = Lifecycle::kRunning;
  std::condition_variable shutdown_done_cv_;
};

}  // namespace bix

#endif  // BIX_SERVER_QUERY_SERVICE_H_
