#include "server/query_service.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "util/backoff.h"

namespace bix {

namespace {
// How many of the slowest completed queries ExportMetrics retains, with
// their rendered traces when available (DESIGN.md section 13).
constexpr size_t kSlowQueryLogEntries = 8;

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::future<QueryResult> ResolvedWith(Status status) {
  std::promise<QueryResult> promise;
  QueryResult result;
  result.status = std::move(status);
  promise.set_value(std::move(result));
  return promise.get_future();
}

// Status code names for trace tags and the slow-query log (stable
// identifiers; Status::ToString appends the free-form message).
const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "OK";
    case Status::Code::kInvalidArgument: return "InvalidArgument";
    case Status::Code::kOutOfRange: return "OutOfRange";
    case Status::Code::kCorruption: return "Corruption";
    case Status::Code::kNotSupported: return "NotSupported";
    case Status::Code::kUnavailable: return "Unavailable";
    case Status::Code::kDeadlineExceeded: return "DeadlineExceeded";
    case Status::Code::kCancelled: return "Cancelled";
  }
  return "Unknown";
}

// One-line query description for the slow-query log.
std::string DescribeQuery(const ServiceQuery& query) {
  char buf[64];
  if (query.kind == ServiceQuery::Kind::kInterval) {
    std::snprintf(buf, sizeof(buf), "interval [%u,%u]", query.interval.lo,
                  query.interval.hi);
  } else {
    std::snprintf(buf, sizeof(buf), "membership k=%zu", query.values.size());
  }
  std::string out(buf);
  if (query.count_only) out += " count_only";
  return out;
}
}  // namespace

// The service's degradation policy, layered over the shared sharded cache
// as a BitmapCacheInterface so the per-worker executors need no special
// handling:
//  - Unavailable (transient read error, injected or real): retried in
//    place up to the retry budget with exponential backoff; only then
//    does the error reach the query. The budget is the configured
//    max_retries while the brownout breaker is closed and the degraded
//    budget while it is open/half-open (retry amplification is what turns
//    a latency storm into a pile-up, so overload cuts it first).
//  - Corruption (checksum mismatch / malformed stream): the key enters a
//    quarantine set and every subsequent fetch of it — from any worker —
//    fails fast with Corruption, without touching storage again. Retrying
//    would re-read the same bad bytes; quarantine turns a hot corrupt
//    bitmap into a cheap, deterministic per-query error.
//  - Deadline/cancellation: the query's CancelToken is checked before
//    every attempt and interrupts the backoff sleep (ClockInterface::
//    SleepFor is cancellable), so a query past its budget stops retrying
//    within one attempt and resolves with the token's typed status.
// Thread-safe; one instance shared by all workers.
class QueryService::FaultPolicyCache : public BitmapCacheInterface {
 public:
  // The degradation counters live in the service's metrics registry; the
  // policy cache increments them directly (relaxed atomic adds) so the hot
  // path never funnels through a service-level lock.
  FaultPolicyCache(BitmapCacheInterface* inner, uint32_t max_retries,
                   double backoff_seconds, uint64_t jitter_seed,
                   double backoff_cap_seconds, ClockInterface* clock,
                   const BrownoutBreaker* breaker, MetricsCounter* retries,
                   MetricsCounter* corruptions, MetricsCounter* quarantined)
      : inner_(inner),
        max_retries_(max_retries),
        backoff_seconds_(backoff_seconds),
        jitter_seed_(jitter_seed),
        backoff_cap_seconds_(backoff_cap_seconds),
        clock_(clock),
        breaker_(breaker),
        retries_(retries),
        corruptions_(corruptions),
        quarantined_(quarantined) {}

  // The traced shape of one policy-level fetch: a "fetch" span wrapping one
  // "read" child per attempt (opened by the inner cache) and one "backoff"
  // leaf per retry sleep, tagged with the key, the attempt count, and the
  // outcome when the fetch did not succeed cleanly.
  Result<DecodedBitmap> TryFetchDecoded(BitmapKey key, IoStats* stats,
                                        const CancelToken* cancel,
                                        TraceSink* trace) override {
    TraceScope fetch_span(trace, "fetch");
    if (trace != nullptr) trace->Tag("key", TraceKeyTag(key));
    // While nothing is quarantined (a healthy service) no fetch takes the
    // service-wide lock.
    if (quarantined_keys_.load() > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (quarantine_.count(key.Packed()) > 0) {
        if (trace != nullptr) trace->Tag("outcome", "quarantined");
        return Status::Corruption("bitmap is quarantined (prior checksum "
                                  "failure)");
      }
    }
    double backoff = backoff_seconds_;
    // Jittered mode: each policy-level fetch gets its own draw stream, so
    // two workers retrying the *same* unavailable key sleep different
    // durations and stop re-arriving at storage in phase (the retry storm
    // the decorrelated schedule exists to break). The stream id mixes the
    // key with a per-fetch sequence number; with a fixed seed and a fixed
    // fetch order the whole schedule replays exactly.
    const uint64_t stream =
        jitter_seed_ != 0
            ? key.Packed() ^ (0x9E3779B97F4A7C15ull *
                              fetch_seq_.fetch_add(1,
                                                   std::memory_order_relaxed))
            : 0;
    uint64_t sleep_index = 0;
    for (uint32_t attempt = 0;; ++attempt) {
      if (cancel != nullptr) {
        Status budget = cancel->CheckAt(clock_->Now());
        if (!budget.ok()) {
          if (trace != nullptr) trace->Tag("outcome", "budget_expired");
          return budget;
        }
      }
      Result<DecodedBitmap> r = inner_->TryFetchDecoded(key, stats, cancel,
                                                        trace);
      if (r.ok()) {
        if (trace != nullptr) {
          trace->Tag("attempts", static_cast<uint64_t>(attempt) + 1);
        }
        return r;
      }
      if (r.status().code() == Status::Code::kCorruption) {
        bool newly_quarantined = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          newly_quarantined = quarantine_.insert(key.Packed()).second;
          quarantined_keys_.store(quarantine_.size());
        }
        corruptions_->Increment();
        if (newly_quarantined) quarantined_->Increment();
        if (trace != nullptr) trace->Tag("outcome", "corruption");
        return r;
      }
      // Re-read the budget every attempt: a breaker opening mid-storm
      // cuts retry loops already in flight, not just future ones.
      const uint32_t retry_budget = breaker_ != nullptr
                                        ? breaker_->EffectiveRetries(max_retries_)
                                        : max_retries_;
      if (!r.status().IsRetryable() || attempt >= retry_budget) {
        if (trace != nullptr) {
          trace->Tag("outcome", "error");
          trace->Tag("attempts", static_cast<uint64_t>(attempt) + 1);
        }
        return r;
      }
      retries_->Increment();
      if (backoff > 0.0) {
        // The retry sleep is a leaf span, so backoff time attributes
        // exactly (the span's duration is the simulated sleep under a
        // VirtualClock).
        TraceScope backoff_span(trace, "backoff");
        clock_->SleepFor(backoff, cancel);
        // The first sleep is always `base` in both schedules; from the
        // second on, jittered mode draws from [base, 3 * previous] (capped)
        // while legacy mode doubles deterministically.
        if (jitter_seed_ != 0) {
          backoff = DecorrelatedJitterBackoff(jitter_seed_, stream,
                                              ++sleep_index, backoff_seconds_,
                                              backoff, backoff_cap_seconds_);
        } else {
          backoff *= 2.0;
        }
      }
    }
  }
  using BitmapCacheInterface::TryFetchDecoded;

  void DropPool() override { inner_->DropPool(); }

 private:
  BitmapCacheInterface* const inner_;
  const uint32_t max_retries_;
  const double backoff_seconds_;
  const uint64_t jitter_seed_;         // 0 = legacy doubling schedule
  const double backoff_cap_seconds_;   // 0 = uncapped
  std::atomic<uint64_t> fetch_seq_{0};
  ClockInterface* const clock_;
  const BrownoutBreaker* const breaker_;  // null when brownout disabled
  MetricsCounter* const retries_;
  MetricsCounter* const corruptions_;
  MetricsCounter* const quarantined_;
  std::mutex mu_;
  std::unordered_set<uint64_t> quarantine_;  // guarded by mu_
  std::atomic<size_t> quarantined_keys_{0};  // quarantine_.size(), set
                                             // under mu_
};

// One epoch's read stack. `base` keeps the epoch's index alive for as
// long as any worker or in-flight query still points into it (read-only
// mode uses a non-owning alias, since the caller owns that index).
struct QueryService::EpochCache {
  uint64_t epoch = 0;
  std::shared_ptr<const BitmapIndex> base;
  std::unique_ptr<ShardedBitmapCache> cache;
  std::unique_ptr<FaultPolicyCache> policy;
};

QueryService::QueryService(const BitmapIndex* index, ServiceOptions options)
    : QueryService(index, /*provider=*/nullptr, options) {}

QueryService::QueryService(IndexSnapshotProvider* provider,
                           ServiceOptions options)
    : QueryService(/*index=*/nullptr, provider, options) {}

QueryService::QueryService(const BitmapIndex* index,
                           IndexSnapshotProvider* provider,
                           ServiceOptions options)
    : index_(index),
      provider_(provider),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock::Get()),
      breaker_(options.brownout.enabled
                   ? std::make_unique<BrownoutBreaker>(options.brownout)
                   : nullptr),
      queue_(options.queue_capacity),
      slow_log_(kSlowQueryLogEntries) {
  BIX_CHECK(index != nullptr || provider != nullptr);
  BIX_CHECK(options.num_workers > 0);
  // The value domain is fixed for the service's lifetime even in writable
  // mode: updates change row values, never the column's cardinality.
  cardinality_ = index_ != nullptr
                     ? index_->decomposition().cardinality()
                     : provider_->Snapshot().base->decomposition().cardinality();
  // Register every named metric once and cache the handles; all hot-path
  // updates go through these pointers without touching the registry lock.
  m_.submitted = registry_.GetCounter("queries_submitted");
  m_.rejected_invalid = registry_.GetCounter("queries_rejected_invalid");
  m_.rejected_overload = registry_.GetCounter("queries_rejected_overload");
  m_.completed = registry_.GetCounter("queries_completed");
  m_.degraded = registry_.GetCounter("queries_degraded");
  m_.deadline_exceeded = registry_.GetCounter("queries_deadline_exceeded");
  m_.cancelled = registry_.GetCounter("queries_cancelled");
  m_.shed_in_queue = registry_.GetCounter("queries_shed_in_queue");
  m_.traced = registry_.GetCounter("queries_traced");
  m_.retries = registry_.GetCounter("fetch_retries");
  m_.corruptions = registry_.GetCounter("corruptions_detected");
  m_.quarantined = registry_.GetCounter("quarantined_bitmaps");
  m_.breaker_state = registry_.GetGauge("breaker_state");
  m_.breaker_opens = registry_.GetGauge("breaker_opens");
  m_.breaker_open_seconds = registry_.GetGauge("breaker_open_seconds");
  m_.pool_bytes_used = registry_.GetGauge("pool_bytes_used");
  m_.io_scans = registry_.GetGauge("io_scans");
  m_.io_pool_hits = registry_.GetGauge("io_pool_hits");
  m_.io_disk_reads = registry_.GetGauge("io_disk_reads");
  m_.io_rescans = registry_.GetGauge("io_rescans");
  m_.io_bytes_read = registry_.GetGauge("io_bytes_read");
  m_.io_seconds = registry_.GetGauge("io_seconds");
  m_.io_decode_seconds = registry_.GetGauge("io_decode_seconds");
  m_.io_cpu_seconds = registry_.GetGauge("io_cpu_seconds");
  for (size_t i = 0; i < kNumCodecs; ++i) {
    m_.io_codec_decodes[i] = registry_.GetGauge(
        std::string("io_decodes_") + CodecName(static_cast<CodecId>(i)));
  }
  m_.stage_queue = registry_.GetHistogram("latency_queue");
  m_.stage_rewrite = registry_.GetHistogram("latency_rewrite");
  m_.stage_eval = registry_.GetHistogram("latency_eval");
  m_.latency_total = registry_.GetHistogram("latency_total");
  if (provider_ != nullptr) {
    // Durability metrics exist only in writable mode, so read-only exports
    // (and the observability goldens pinned against them) are unchanged.
    m_.compactions_shed = registry_.GetCounter("compactions_shed");
    m_.wal_appends = registry_.GetGauge("wal_appends");
    m_.wal_bytes = registry_.GetGauge("wal_bytes");
    m_.recovered_batches = registry_.GetGauge("recovered_batches");
    m_.truncated_tail_records = registry_.GetGauge("truncated_tail_records");
    m_.compactions = registry_.GetGauge("compactions");
    m_.delta_rows = registry_.GetGauge("delta_rows");
  }
  // The per-epoch policy cache increments registry counters, so the first
  // epoch is built after the handles above (and before any worker runs).
  if (index_ != nullptr) {
    // Read-only mode: one epoch forever, over a base the caller owns (the
    // aliasing shared_ptr carries no ownership).
    epoch_cache_ = MakeEpochCache(
        0, std::shared_ptr<const BitmapIndex>(
               std::shared_ptr<const BitmapIndex>(), index_));
  } else {
    IndexSnapshot snap = provider_->Snapshot();
    epoch_cache_ = MakeEpochCache(snap.base_epoch, snap.base);
  }
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (provider_ != nullptr && options_.compaction_interval_seconds > 0.0) {
    compaction_cancel_ = CancelToken::Manual();
    compaction_thread_ = std::thread([this] { CompactionLoop(); });
  }
}

std::shared_ptr<QueryService::EpochCache> QueryService::MakeEpochCache(
    uint64_t epoch, std::shared_ptr<const BitmapIndex> base) {
  auto ec = std::make_shared<EpochCache>();
  ec->epoch = epoch;
  ec->base = std::move(base);
  ec->cache = std::make_unique<ShardedBitmapCache>(
      &ec->base->store(), options_.buffer_pool_bytes, options_.cache_shards,
      DiskModel{}, options_.io_latency_scale, clock_);
  if (options_.fault_injector != nullptr) {
    ec->cache->SetFaultInjector(options_.fault_injector);
  }
  ec->policy = std::make_unique<FaultPolicyCache>(
      ec->cache.get(), options_.max_fetch_retries,
      options_.retry_backoff_seconds, options_.retry_jitter_seed,
      options_.retry_backoff_max_seconds, clock_, breaker_.get(), m_.retries,
      m_.corruptions, m_.quarantined);
  return ec;
}

std::shared_ptr<QueryService::EpochCache> QueryService::EpochCacheFor(
    const IndexSnapshot& snap) {
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    if (epoch_cache_->epoch == snap.base_epoch) return epoch_cache_;
    if (epoch_cache_->epoch < snap.base_epoch) {
      epoch_cache_ = MakeEpochCache(snap.base_epoch, snap.base);
      return epoch_cache_;
    }
  }
  // The snapshot lost the race with a concurrent compaction: the installed
  // cache already serves a newer epoch. Installing the older one back would
  // be the classic ABA; give this query a private throwaway stack instead —
  // correct (its base is pinned by the snapshot), just uncached.
  return MakeEpochCache(snap.base_epoch, snap.base);
}

QueryService::~QueryService() { Shutdown(); }

Status QueryService::Validate(const ServiceQuery& query) const {
  const uint32_t cardinality = cardinality_;
  if (query.kind == ServiceQuery::Kind::kInterval) {
    if (query.interval.lo > query.interval.hi) {
      return Status::InvalidArgument("interval lo > hi");
    }
    if (query.interval.hi >= cardinality) {
      return Status::OutOfRange("interval hi >= cardinality");
    }
    return Status::OK();
  }
  if (query.values.empty()) {
    return Status::InvalidArgument("empty membership query");
  }
  for (uint32_t v : query.values) {
    if (v >= cardinality) {
      return Status::OutOfRange("membership value >= cardinality");
    }
  }
  return Status::OK();
}

std::future<QueryResult> QueryService::SubmitInternal(ServiceQuery query,
                                                      bool blocking,
                                                      ResultCallback done) {
  m_.submitted->Increment();
  const ClockInterface::TimePoint submitted = clock_->Now();
  Status valid = Validate(query);
  if (!valid.ok()) {
    m_.rejected_invalid->Increment();
    if (done) {
      QueryResult result;
      result.status = std::move(valid);
      done(std::move(result));
      return {};
    }
    return ResolvedWith(std::move(valid));
  }

  Task task;
  task.query = std::move(query);
  task.done = std::move(done);
  task.submitted = submitted;
  task.enqueued = clock_->Now();
  // Callback mode never touches the promise; the returned (invalid) future
  // is discarded by SubmitCallback.
  std::future<QueryResult> future;
  if (!task.done) future = task.promise.get_future();
  {
    // Count the query as pending before pushing so Drain can never observe
    // an admitted-but-uncounted query.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++pending_;
  }
  // A deadline bounds the admission wait too: blocking backpressure may
  // park the caller only until the query's own budget runs out. (The
  // deadline is in the service clock's domain; the admission wait itself
  // uses the real condition-variable clock, which coincides except under
  // a test VirtualClock — where queues never fill for long anyway.)
  const CancelToken* token = task.query.cancel.get();
  bool accepted = false;
  bool admission_expired = false;
  if (blocking && token != nullptr && token->has_deadline()) {
    switch (queue_.PushUntil(std::move(task), token->deadline())) {
      case BoundedWorkQueue<Task>::PushOutcome::kAccepted:
        accepted = true;
        break;
      case BoundedWorkQueue<Task>::PushOutcome::kTimedOut:
        admission_expired = true;
        break;
      case BoundedWorkQueue<Task>::PushOutcome::kClosed:
        break;
    }
  } else {
    accepted = blocking ? queue_.Push(std::move(task))
                        : queue_.TryPush(std::move(task));
  }
  if (!accepted) {
    if (admission_expired) {
      m_.deadline_exceeded->Increment();
    } else {
      m_.rejected_overload->Increment();
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      --pending_;
    }
    drained_cv_.notify_all();
    QueryResult result;
    if (admission_expired) {
      result.status = Status::DeadlineExceeded(
          "deadline expired while waiting for admission");
    } else {
      result.status = Status::Unavailable(
          queue_.closed() ? "service is shut down" : "queue is full");
    }
    task.Resolve(std::move(result));
  }
  return future;
}

std::future<QueryResult> QueryService::Submit(ServiceQuery query) {
  return SubmitInternal(std::move(query), /*blocking=*/true);
}

std::future<QueryResult> QueryService::TrySubmit(ServiceQuery query) {
  return SubmitInternal(std::move(query), /*blocking=*/false);
}

void QueryService::SubmitCallback(ServiceQuery query, ResultCallback done) {
  BIX_CHECK_MSG(done != nullptr, "SubmitCallback requires a callback");
  // Non-blocking admission on purpose: the callers are event loops, and an
  // event loop parked behind a full queue stops reading every socket it
  // owns. Overload resolves the callback inline with a typed rejection.
  (void)SubmitInternal(std::move(query), /*blocking=*/false, std::move(done));
}

bool QueryService::OverloadBrownout() const {
  if (breaker_ == nullptr) return false;
  breaker_->Poll(clock_->Now());
  return breaker_->state() != BrownoutBreaker::State::kClosed;
}

std::vector<QueryResult> QueryService::ExecuteBatch(
    std::vector<ServiceQuery> batch) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(batch.size());
  for (ServiceQuery& query : batch) futures.push_back(Submit(std::move(query)));
  std::vector<QueryResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(stats_mu_);
  drained_cv_.wait(lock, [this] { return pending_ == 0; });
}

void QueryService::Shutdown() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  if (lifecycle_ == Lifecycle::kDone) return;
  if (lifecycle_ == Lifecycle::kShuttingDown) {
    // Another caller is joining the workers; Shutdown is a barrier, so
    // wait for that join to finish instead of returning early.
    shutdown_done_cv_.wait(lock,
                           [this] { return lifecycle_ == Lifecycle::kDone; });
    return;
  }
  lifecycle_ = Lifecycle::kShuttingDown;
  lock.unlock();
  // Stop the background compactor first: a fold in flight finishes (the
  // provider's Compact is synchronous), then the thread exits — workers
  // still serving queries below simply rebind to the final epoch.
  if (compaction_thread_.joinable()) {
    compaction_cancel_->Cancel();
    compaction_thread_.join();
  }
  queue_.Close();  // workers drain the remaining queue, then exit
  for (std::thread& w : workers_) w.join();
  lock.lock();
  lifecycle_ = Lifecycle::kDone;
  lock.unlock();
  shutdown_done_cv_.notify_all();
}

ServiceStats QueryService::Stats() const {
  ServiceStats snapshot;
  snapshot.submitted = m_.submitted->Value();
  snapshot.rejected_invalid = m_.rejected_invalid->Value();
  snapshot.rejected_overload = m_.rejected_overload->Value();
  snapshot.completed = m_.completed->Value();
  snapshot.degraded_queries = m_.degraded->Value();
  snapshot.deadline_exceeded = m_.deadline_exceeded->Value();
  snapshot.cancelled = m_.cancelled->Value();
  snapshot.shed_in_queue = m_.shed_in_queue->Value();
  snapshot.retries = m_.retries->Value();
  snapshot.corruptions_detected = m_.corruptions->Value();
  snapshot.quarantined_bitmaps = m_.quarantined->Value();
  if (breaker_ != nullptr) {
    snapshot.breaker_opens = breaker_->opens();
    snapshot.breaker_open_seconds = breaker_->OpenSecondsTotal(clock_->Now());
    snapshot.breaker_state = static_cast<uint32_t>(breaker_->state());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot.io = io_total_;
  }
  // Per-stage totals are the striped histograms' sums: the histograms are
  // the source of truth and this struct is the derived view.
  snapshot.queue_seconds_total = m_.stage_queue->Merged().sum_seconds();
  snapshot.rewrite_seconds_total = m_.stage_rewrite->Merged().sum_seconds();
  snapshot.eval_seconds_total = m_.stage_eval->Merged().sum_seconds();
  snapshot.latency = m_.latency_total->Merged();
  return snapshot;
}

void QueryService::RefreshGauges() const {
  if (breaker_ != nullptr) {
    m_.breaker_state->Set(static_cast<double>(breaker_->state()));
    m_.breaker_opens->Set(static_cast<double>(breaker_->opens()));
    m_.breaker_open_seconds->Set(breaker_->OpenSecondsTotal(clock_->Now()));
  }
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    m_.pool_bytes_used->Set(
        static_cast<double>(epoch_cache_->cache->pool_bytes_used()));
  }
  if (provider_ != nullptr) {
    const DurabilityStats d = provider_->durability();
    m_.wal_appends->Set(static_cast<double>(d.wal_appends));
    m_.wal_bytes->Set(static_cast<double>(d.wal_bytes));
    m_.recovered_batches->Set(static_cast<double>(d.recovered_batches));
    m_.truncated_tail_records->Set(
        static_cast<double>(d.truncated_tail_records));
    m_.compactions->Set(static_cast<double>(d.compactions));
    m_.delta_rows->Set(static_cast<double>(d.delta_rows));
  }
  IoStats io;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    io = io_total_;
  }
  m_.io_scans->Set(static_cast<double>(io.scans));
  m_.io_pool_hits->Set(static_cast<double>(io.pool_hits));
  m_.io_disk_reads->Set(static_cast<double>(io.disk_reads));
  m_.io_rescans->Set(static_cast<double>(io.rescans));
  m_.io_bytes_read->Set(static_cast<double>(io.bytes_read));
  m_.io_seconds->Set(io.io_seconds);
  m_.io_decode_seconds->Set(io.decode_seconds);
  m_.io_cpu_seconds->Set(io.cpu_seconds);
  for (size_t i = 0; i < kNumCodecs; ++i) {
    m_.io_codec_decodes[i]->Set(static_cast<double>(io.codec_decodes[i]));
  }
}

std::string QueryService::ExportMetrics(MetricsFormat format) const {
  RefreshGauges();
  if (format == MetricsFormat::kJson) return registry_.DumpJson();
  std::string out = registry_.DumpText();
  const std::string slow = slow_log_.Render();
  if (!slow.empty()) {
    out += "# slow queries (slowest first)\n";
    out += slow;
  }
  return out;
}

void QueryService::WorkerLoop() {
  ExecutorOptions exec_options;
  exec_options.cold_pool_per_query = false;  // the pool is shared and warm
  exec_options.clock = clock_;
  // The worker's executor is bound to one epoch's {base, cache, policy}
  // stack and rebuilt (cheap: no pool allocation happens up front) whenever
  // the provider's epoch moves on. The pinned shared_ptr keeps a retired
  // epoch's base alive until the last worker rebinds past it.
  std::shared_ptr<EpochCache> ec;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    ec = epoch_cache_;
  }
  std::optional<QueryExecutor> executor;
  executor.emplace(ec->base.get(), exec_options, ec->policy.get());
  while (true) {
    std::optional<Task> task = queue_.Pop();
    if (!task.has_value()) break;  // closed and drained: deterministic exit
    const ClockInterface::TimePoint now = clock_->Now();
    if (breaker_ != nullptr) breaker_->Poll(now);
    // Queue-side shedding: a task whose budget already ran out while
    // queued resolves typed without executing — under overload, work that
    // can no longer meet its deadline is pure waste.
    const CancelToken* token = task->query.cancel.get();
    if (token != nullptr) {
      Status budget = token->CheckAt(now);
      if (!budget.ok()) {
        const bool deadline_miss =
            budget.code() == Status::Code::kDeadlineExceeded;
        ResolveShed({&*task, 1}, budget, "at_dequeue", now);
        if (breaker_ != nullptr && deadline_miss &&
            breaker_->RecordOutcome(/*failure=*/true, now)) {
          ShedForBrownout();
        }
        continue;
      }
    }
    // Writable mode: pin an epoch-consistent {base, delta} snapshot for
    // this query before evaluating. The swap in the provider is atomic
    // under its snapshot lock, so a query sees a batch entirely or not at
    // all — never a torn overlay.
    IndexSnapshot snap;
    if (provider_ != nullptr) {
      snap = provider_->Snapshot();
      if (snap.base_epoch != ec->epoch) {
        ec = EpochCacheFor(snap);
        executor.emplace(ec->base.get(), exec_options, ec->policy.get());
      }
    }
    QueryResult result =
        Execute(&*executor, *task, provider_ != nullptr ? &snap : nullptr);
    // Record before resolving, so a caller that waited on the result is
    // guaranteed to see its query in the service counters.
    RecordCompletion(*task, result);
    task->Resolve(std::move(result));
  }
}

QueryResult QueryService::Execute(QueryExecutor* executor, const Task& task,
                                  const IndexSnapshot* snap) {
  QueryResult result;
  const ClockInterface::TimePoint picked_up = clock_->Now();
  result.metrics.queue_seconds = SecondsBetween(task.enqueued, picked_up);
  const CancelToken* cancel = task.query.cancel.get();

  // Per-query trace (DESIGN.md section 13): the root span is anchored at
  // the submit timestamp, so the pre-worker waits recorded below land
  // inside it and the root's duration is end-to-end latency as the client
  // saw it. Untraced queries construct nothing.
  std::optional<TraceSink> sink;
  TraceSink* trace = nullptr;
  if (task.query.traced) {
    sink.emplace(clock_, "query", task.submitted);
    trace = &*sink;
    trace->Tag("kind", task.query.kind == ServiceQuery::Kind::kInterval
                           ? "interval"
                           : "membership");
    if (task.query.count_only) trace->Tag("count_only", "true");
    trace->Record("admission", task.submitted, task.enqueued);
    trace->Record("queue", task.enqueued, picked_up);
  }

  executor->ResetStats();
  executor->SetTraceSink(trace);
  // All stage timing runs on the service clock: under a VirtualClock the
  // per-stage metrics are the simulated (deterministic) durations, exactly
  // matching the trace spans; under the real clock they are wall time.
  const ClockInterface::TimePoint t0 = clock_->Now();
  std::vector<ExprPtr> exprs;
  {
    TraceScope rewrite_span(trace, "rewrite");
    if (task.query.kind == ServiceQuery::Kind::kInterval) {
      exprs.push_back(executor->Rewrite(task.query.interval));
    } else {
      exprs = executor->RewriteMembership(task.query.values, cancel);
    }
  }
  const ClockInterface::TimePoint t1 = clock_->Now();
  // Writable mode with pending updates: the pinned overlay is merged into
  // the base answer so it matches a from-scratch rebuild of the updated
  // column. The merge predicate is the query's own, negation included. A
  // trivial (empty) overlay keeps the read-only paths bit for bit.
  const bool merged = snap != nullptr && !snap->delta->trivial();
  DeltaView view;
  ValueSet pred;
  if (merged) {
    view = snap->delta->View();
    const IntervalQuery& q = task.query.interval;
    pred = task.query.kind == ServiceQuery::Kind::kInterval
               ? ValueSet::Interval(q.lo, q.hi, q.negated)
               : ValueSet::Members(task.query.values);
  }
  Status eval_status;
  {
    TraceScope eval_span(trace, "eval");
    if (task.query.count_only) {
      // COUNT selection: the evaluator counts in place (merged reads too);
      // no result bitmap is materialized for the client.
      Result<uint64_t> count = executor->TryEvaluateCountRewritten(
          exprs, cancel, merged ? &view : nullptr, merged ? &pred : nullptr);
      if (count.ok()) result.count = count.value();
      eval_status = count.status();
    } else {
      // The count comes from the evaluation pass itself; the result is not
      // read a second time to count it.
      Result<Bitvector> rows =
          merged ? executor->TryEvaluateRewrittenMerged(exprs, view, pred,
                                                        cancel, &result.count)
                 : executor->TryEvaluateRewritten(exprs, cancel,
                                                  &result.count);
      if (rows.ok()) result.rows = std::move(rows).value();
      eval_status = rows.status();
    }
  }
  const ClockInterface::TimePoint t2 = clock_->Now();
  executor->SetTraceSink(nullptr);

  result.metrics.rewrite_seconds = SecondsBetween(t0, t1);
  result.metrics.eval_seconds = SecondsBetween(t1, t2);
  result.metrics.io = executor->stats();
  // On failure this is a degraded completion: the query ran (and its
  // metrics stand) but resolves with the storage failure — or its
  // expired/cancelled budget — instead of rows. The partial IoStats of the
  // work done before the cutoff stays recorded.
  result.status = std::move(eval_status);
  if (trace != nullptr) {
    trace->Tag("status", CodeName(result.status.code()));
    result.trace = std::make_shared<const TraceSpan>(sink->Finish());
  }
  return result;
}

void QueryService::RecordCompletion(const Task& task,
                                    const QueryResult& result) {
  const QueryMetrics& metrics = result.metrics;
  m_.completed->Increment();
  if (!result.status.ok()) m_.degraded->Increment();
  if (result.status.code() == Status::Code::kDeadlineExceeded) {
    m_.deadline_exceeded->Increment();
  }
  if (result.status.code() == Status::Code::kCancelled) {
    m_.cancelled->Increment();
  }
  if (result.trace != nullptr) m_.traced->Increment();
  m_.stage_queue->Record(metrics.queue_seconds);
  m_.stage_rewrite->Record(metrics.rewrite_seconds);
  m_.stage_eval->Record(metrics.eval_seconds);
  m_.latency_total->Record(metrics.total_seconds());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    io_total_.Add(metrics.io);
    --pending_;
  }
  drained_cv_.notify_all();
  // Slow-query log: build the entry (strings, rendered trace) only when it
  // could actually displace one — WouldAdmit is a single relaxed load, so
  // fast queries pay nothing here.
  if (slow_log_.WouldAdmit(metrics.total_seconds())) {
    SlowQueryLog::Entry entry;
    entry.total_seconds = metrics.total_seconds();
    entry.description = DescribeQuery(task.query);
    entry.status = CodeName(result.status.code());
    if (result.trace != nullptr) entry.trace_render = result.trace->Render();
    slow_log_.MaybeAdd(std::move(entry));
  }
  if (breaker_ != nullptr) {
    // Overload signals only: retryable fetch failures (the storm the
    // breaker exists to damp) and deadline misses. Corruption, validation
    // and cancellation say nothing about load.
    const bool failure =
        result.status.code() == Status::Code::kUnavailable ||
        result.status.code() == Status::Code::kDeadlineExceeded;
    if (breaker_->RecordOutcome(failure, clock_->Now())) ShedForBrownout();
  }
}

void QueryService::ResolveShed(std::span<Task> tasks, const Status& status,
                               const char* where,
                               ClockInterface::TimePoint now) {
  m_.shed_in_queue->Increment(tasks.size());
  if (status.code() == Status::Code::kDeadlineExceeded) {
    m_.deadline_exceeded->Increment(tasks.size());
  }
  if (status.code() == Status::Code::kCancelled) {
    m_.cancelled->Increment(tasks.size());
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    pending_ -= tasks.size();
  }
  drained_cv_.notify_all();
  for (Task& task : tasks) {
    QueryResult result;
    result.status = status;
    result.metrics.queue_seconds = SecondsBetween(task.enqueued, now);
    // A traced shed query still gets a trace: the waits it did spend, plus
    // the shed decision, so "where did my query die" is answerable.
    if (task.query.traced) {
      TraceSink sink(clock_, "query", task.submitted);
      sink.Record("admission", task.submitted, task.enqueued);
      sink.Record("queue", task.enqueued, now);
      sink.Tag("shed", where);
      sink.Tag("status", CodeName(status.code()));
      result.trace = std::make_shared<const TraceSpan>(sink.Finish());
    }
    task.Resolve(std::move(result));
  }
}

void QueryService::ShedForBrownout() {
  const ClockInterface::TimePoint now = clock_->Now();
  const size_t backlog = queue_.size();
  const size_t target = static_cast<size_t>(std::ceil(
      static_cast<double>(backlog) * options_.brownout.shed_fraction));
  if (target == 0) return;
  // Least remaining deadline first: those entries are the least likely to
  // finish in time, so shedding them converts certain deadline misses into
  // immediate, retryable rejections. Unbounded queries have infinite slack
  // and go last.
  std::vector<Task> shed = queue_.ShedLowestScored(
      target, [now](const Task& t) {
        const CancelToken* token = t.query.cancel.get();
        if (token == nullptr || !token->has_deadline()) {
          return std::numeric_limits<double>::infinity();
        }
        return token->RemainingSeconds(now);
      });
  ResolveShed(shed, Status::Unavailable("shed by overload breaker (brownout)"),
              "brownout", now);
}

const ShardedBitmapCache& QueryService::cache() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return *epoch_cache_->cache;
}

Status QueryService::CompactNow() {
  if (provider_ == nullptr) {
    return Status::InvalidArgument("CompactNow requires writable mode");
  }
  return provider_->Compact(nullptr);
}

void QueryService::CompactionLoop() {
  const double interval = options_.compaction_interval_seconds;
  while (true) {
    clock_->SleepFor(interval, compaction_cancel_.get());
    if (compaction_cancel_->cancelled()) break;
    if (provider_->PendingDeltaOps() < options_.compaction_min_delta_ops) {
      continue;
    }
    if (breaker_ != nullptr) {
      breaker_->Poll(clock_->Now());
      if (breaker_->state() != BrownoutBreaker::State::kClosed) {
        // Compaction is the most deferrable work the service owns: under
        // overload (open or probing breaker) skip the fold and let the
        // delta ride until the storm passes.
        m_.compactions_shed->Increment();
        continue;
      }
    }
    (void)provider_->Compact(nullptr);
  }
}

}  // namespace bix
