// Chaos tests for the query service's failure model: a fault injector on
// the shared cache's read path throws transient errors, bit flips, and
// latency spikes at 8 concurrent workers. The contract under test is the
// tentpole property -- every query either returns rows bit-identical to
// the fault-free run or resolves with a clean typed error; the process
// never crashes and no corrupt payload is ever served or cached. CI also
// builds this test with -DBIX_SANITIZE=thread and address,undefined.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "core/writable_index.h"
#include "server/query_service.h"
#include "storage/fault_injector.h"
#include "util/rng.h"
#include "workload/column_gen.h"

namespace bix {
namespace {

struct ChaosSetup {
  Column column;
  std::optional<BitmapIndex> index;
  std::vector<ServiceQuery> queries;

  explicit ChaosSetup(EncodingKind encoding, bool compressed,
                      uint32_t num_queries) {
    ColumnSpec spec;
    spec.rows = 20'000;
    spec.cardinality = 64;
    spec.zipf_z = 1.0;
    spec.seed = 11;
    column = GenerateZipfColumn(spec);
    IndexConfig config;
    config.encoding = encoding;
    config.compressed = compressed;
    index.emplace(BuildIndex(column, config).value());

    Rng rng(4711);
    queries.reserve(num_queries);
    for (uint32_t i = 0; i < num_queries; ++i) {
      if (rng.Bernoulli(0.5)) {
        const uint32_t lo =
            static_cast<uint32_t>(rng.UniformInt(0, spec.cardinality - 1));
        const uint32_t hi =
            static_cast<uint32_t>(rng.UniformInt(lo, spec.cardinality - 1));
        queries.push_back(ServiceQuery::Interval(IntervalQuery{lo, hi, false}));
      } else {
        const uint32_t k = static_cast<uint32_t>(rng.UniformInt(1, 6));
        std::vector<uint32_t> values;
        for (uint32_t j = 0; j < k; ++j) {
          values.push_back(
              static_cast<uint32_t>(rng.UniformInt(0, spec.cardinality - 1)));
        }
        queries.push_back(ServiceQuery::Membership(std::move(values)));
      }
    }
  }

  std::vector<Bitvector> ReferenceResults() const {
    QueryExecutor executor(&*index, ExecutorOptions{});
    std::vector<Bitvector> results;
    results.reserve(queries.size());
    for (const ServiceQuery& q : queries) {
      results.push_back(q.kind == ServiceQuery::Kind::kInterval
                            ? executor.EvaluateInterval(q.interval)
                            : executor.EvaluateMembership(q.values));
    }
    return results;
  }
};

// The capstone: 8 workers, all three fault classes live at once, pool
// small enough that eviction keeps re-reading (and so re-faulting) hot
// bitmaps. Every result must be bit-identical to the clean run or a typed
// Unavailable/Corruption error.
TEST(ServerChaosTest, MixedFaultsNeverCrashOrCorruptResults) {
  ChaosSetup setup(EncodingKind::kInterval, /*compressed=*/false,
                   /*num_queries=*/600);
  const std::vector<Bitvector> expected = setup.ReferenceResults();

  FaultInjectorOptions fault_opts;
  fault_opts.seed = 1999;
  fault_opts.unavailable_prob = 0.05;
  fault_opts.bit_flip_prob = 0.01;
  fault_opts.latency_spike_prob = 0.02;
  fault_opts.latency_spike_seconds = 50e-6;
  FaultInjector injector(fault_opts);

  ServiceOptions options;
  options.num_workers = 8;
  options.queue_capacity = 64;
  options.cache_shards = 8;
  options.buffer_pool_bytes = 24 * 1024;  // forces eviction churn
  options.max_fetch_retries = 2;
  options.retry_backoff_seconds = 10e-6;
  options.fault_injector = &injector;
  // These chaos tests assert the exact section-10 accounting (every query
  // completes, retries tally injected faults); the brownout breaker would
  // legitimately cut retries and shed queue entries under this fault rate,
  // so it stays off here. server_deadline_test pins its behavior.
  options.brownout.enabled = false;
  QueryService service(&*setup.index, options);

  std::vector<std::future<QueryResult>> futures;
  futures.reserve(setup.queries.size());
  for (const ServiceQuery& q : setup.queries) {
    futures.push_back(service.Submit(q));
  }
  uint64_t ok = 0, unavailable = 0, corruption = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResult r = futures[i].get();
    if (r.status.ok()) {
      ++ok;
      ASSERT_EQ(r.rows, expected[i]) << "silent corruption at query " << i;
    } else if (r.status.code() == Status::Code::kUnavailable) {
      ++unavailable;  // retry budget exhausted: clean degradation
    } else if (r.status.code() == Status::Code::kCorruption) {
      ++corruption;  // flipped bit caught by the checksum or quarantine
    } else {
      FAIL() << "unexpected status at query " << i << ": "
             << r.status.ToString();
    }
  }
  service.Drain();

  // A loose floor on successes: quarantine deliberately amplifies each
  // corrupted hot bitmap across every later query touching it, and the
  // hit/miss interleaving shifts the exact counts between runs, so this
  // only guards against wholesale degradation. The injector demonstrably
  // fired: faults were injected, some were absorbed by retries.
  EXPECT_GT(ok, setup.queries.size() / 10);
  const FaultInjector::Counters fc = injector.counters();
  EXPECT_GT(fc.unavailable, 0u);
  EXPECT_GT(fc.bit_flips, 0u);
  EXPECT_GT(fc.latency_spikes, 0u);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, setup.queries.size());
  EXPECT_EQ(stats.degraded_queries, unavailable + corruption);
  EXPECT_GT(stats.retries, 0u);
  if (corruption > 0) {
    EXPECT_GT(stats.corruptions_detected, 0u);
    EXPECT_GT(stats.quarantined_bitmaps, 0u);
  }
  EXPECT_LE(stats.quarantined_bitmaps, stats.corruptions_detected);
  // The export renders the failure counters.
  EXPECT_NE(service.ExportMetrics().find(
                "queries_degraded: " + std::to_string(stats.degraded_queries)),
            std::string::npos);
}

// Same chaos mix over a BBC-compressed index: bit flips now hit encoded
// streams, exercising the validating decoder (not just the checksum) under
// concurrency.
TEST(ServerChaosTest, CompressedIndexSurvivesMixedFaults) {
  ChaosSetup setup(EncodingKind::kEquality, /*compressed=*/true,
                   /*num_queries=*/300);
  const std::vector<Bitvector> expected = setup.ReferenceResults();

  FaultInjectorOptions fault_opts;
  fault_opts.seed = 77;
  fault_opts.unavailable_prob = 0.04;
  fault_opts.bit_flip_prob = 0.04;
  FaultInjector injector(fault_opts);

  ServiceOptions options;
  options.num_workers = 8;
  options.queue_capacity = 32;
  options.cache_shards = 4;
  options.buffer_pool_bytes = 16 * 1024;
  options.max_fetch_retries = 2;
  options.retry_backoff_seconds = 10e-6;
  options.fault_injector = &injector;
  options.brownout.enabled = false;  // exact accounting; see above
  QueryService service(&*setup.index, options);

  std::vector<QueryResult> results = service.ExecuteBatch(setup.queries);
  ASSERT_EQ(results.size(), expected.size());
  uint64_t ok = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].status.ok()) {
      ++ok;
      ASSERT_EQ(results[i].rows, expected[i]) << "mismatch at query " << i;
    } else {
      const Status::Code code = results[i].status.code();
      ASSERT_TRUE(code == Status::Code::kUnavailable ||
                  code == Status::Code::kCorruption)
          << results[i].status.ToString();
    }
  }
  EXPECT_GT(ok, 0u);
}

// Deterministic retry absorption: every cold read fails twice before
// succeeding, and the retry budget covers both failures -- so every query
// succeeds, no query degrades, and the retry counter tallies the absorbed
// faults exactly where probabilistic injection could flake.
TEST(ServerChaosTest, RetriesAbsorbTransientUnavailability) {
  ChaosSetup setup(EncodingKind::kInterval, /*compressed=*/false,
                   /*num_queries=*/100);
  const std::vector<Bitvector> expected = setup.ReferenceResults();

  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 2;
  FaultInjector injector(fault_opts);

  ServiceOptions options;
  options.num_workers = 4;
  options.buffer_pool_bytes = 1 << 20;  // everything stays resident
  options.max_fetch_retries = 3;        // > unavailable_first_attempts
  options.retry_backoff_seconds = 1e-6;
  options.fault_injector = &injector;
  options.brownout.enabled = false;  // exact accounting; see above
  QueryService service(&*setup.index, options);

  std::vector<QueryResult> results = service.ExecuteBatch(setup.queries);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    ASSERT_EQ(results[i].rows, expected[i]) << "mismatch at query " << i;
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.degraded_queries, 0u);
  // Since every query succeeded, every injected Unavailable was absorbed
  // by exactly one retry.
  EXPECT_EQ(stats.retries, injector.counters().unavailable);
  EXPECT_GE(stats.retries, 2u);  // at least the first cold key failed twice
  EXPECT_EQ(stats.corruptions_detected, 0u);
}

// Retry exhaustion: more deterministic failures than the budget covers.
// Every query must degrade with Unavailable -- and still complete.
TEST(ServerChaosTest, RetryBudgetExhaustionDegradesCleanly) {
  ChaosSetup setup(EncodingKind::kInterval, /*compressed=*/false,
                   /*num_queries=*/50);

  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 1000;  // effectively always
  FaultInjector injector(fault_opts);

  ServiceOptions options;
  options.num_workers = 4;
  options.max_fetch_retries = 2;
  options.retry_backoff_seconds = 1e-6;
  options.fault_injector = &injector;
  options.brownout.enabled = false;  // exact accounting; see above
  QueryService service(&*setup.index, options);

  std::vector<QueryResult> results = service.ExecuteBatch(setup.queries);
  for (const QueryResult& r : results) {
    ASSERT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), Status::Code::kUnavailable);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(results.size()));
  EXPECT_EQ(stats.degraded_queries, static_cast<uint64_t>(results.size()));
  // Each failed fetch burned the full budget.
  EXPECT_GT(stats.retries, 0u);
}

// Quarantine: with every read corrupting, the first query touching a
// bitmap detects the flip via checksum; later queries touching the same
// bitmap fail fast from quarantine without another storage read.
TEST(ServerChaosTest, QuarantineFailsFastAfterChecksumFailure) {
  ChaosSetup setup(EncodingKind::kInterval, /*compressed=*/false,
                   /*num_queries=*/0);

  FaultInjectorOptions fault_opts;
  fault_opts.bit_flip_prob = 1.0;
  FaultInjector injector(fault_opts);

  ServiceOptions options;
  options.num_workers = 1;  // serialize to make read counts exact
  options.fault_injector = &injector;
  options.brownout.enabled = false;  // exact accounting; see above
  QueryService service(&*setup.index, options);

  const ServiceQuery q = ServiceQuery::Interval(IntervalQuery{3, 3, false});
  QueryResult first = service.Submit(q).get();
  ASSERT_FALSE(first.status.ok());
  EXPECT_EQ(first.status.code(), Status::Code::kCorruption);
  const uint64_t reads_after_first = injector.counters().reads;
  EXPECT_GT(reads_after_first, 0u);

  QueryResult second = service.Submit(q).get();
  ASSERT_FALSE(second.status.ok());
  EXPECT_EQ(second.status.code(), Status::Code::kCorruption);
  // Fail-fast: the quarantined bitmap was not re-read from storage.
  EXPECT_EQ(injector.counters().reads, reads_after_first);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.degraded_queries, 2u);
  EXPECT_EQ(stats.quarantined_bitmaps, 1u);
  EXPECT_EQ(stats.corruptions_detected, 1u);
}

// Deadline budgets under chaos: latency spikes and transient failures with
// every query carrying a short deadline. The contract is the issue's
// acceptance property -- every future resolves promptly (no query hangs
// past its deadline by more than bounded slack), and every result is
// either bit-identical to the clean run or a clean typed status. The
// brownout breaker stays at its default (enabled): deadline misses under
// this load are exactly the signal it exists to absorb.
TEST(ServerChaosTest, DeadlineBudgetsBoundLatencyUnderChaos) {
  ChaosSetup setup(EncodingKind::kInterval, /*compressed=*/false,
                   /*num_queries=*/200);
  const std::vector<Bitvector> expected = setup.ReferenceResults();

  FaultInjectorOptions fault_opts;
  fault_opts.seed = 271828;
  fault_opts.unavailable_prob = 0.05;
  fault_opts.latency_spike_prob = 0.3;
  fault_opts.latency_spike_seconds = 2e-3;
  FaultInjector injector(fault_opts);

  ServiceOptions options;
  options.num_workers = 8;
  options.queue_capacity = 256;
  options.buffer_pool_bytes = 24 * 1024;  // eviction churn -> repeated reads
  options.max_fetch_retries = 2;
  options.retry_backoff_seconds = 100e-6;
  options.fault_injector = &injector;
  QueryService service(&*setup.index, options);

  constexpr double kBudgetSeconds = 10e-3;
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(setup.queries.size());
  for (const ServiceQuery& q : setup.queries) {
    ServiceQuery with_deadline = q;
    with_deadline.WithTimeout(kBudgetSeconds);
    futures.push_back(service.Submit(std::move(with_deadline)));
  }

  uint64_t ok = 0, typed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    // No hang: every future resolves within the deadline plus generous
    // slack (one in-flight fetch, spikes included, cannot take seconds).
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "query " << i << " hung past its deadline";
    QueryResult r = futures[i].get();
    if (r.status.ok()) {
      ++ok;
      ASSERT_EQ(r.rows, expected[i]) << "silent corruption at query " << i;
    } else {
      ++typed;
      const Status::Code code = r.status.code();
      ASSERT_TRUE(code == Status::Code::kUnavailable ||
                  code == Status::Code::kDeadlineExceeded)
          << "query " << i << ": " << r.status.ToString();
    }
  }
  EXPECT_GT(ok, 0u);  // the service made progress despite the storm

  ServiceStats stats = service.Stats();
  // 200 queries, 8 workers, ~ms-scale spikes: the backlog alone pushes the
  // tail past 10ms, so some budgets demonstrably expired...
  EXPECT_GT(stats.deadline_exceeded, 0u);
  // ...and every submission is accounted for exactly once: completed,
  // shed in queue, or rejected.
  EXPECT_EQ(stats.completed + stats.shed_in_queue + stats.rejected_total(),
            stats.submitted);
  EXPECT_EQ(ok + typed, setup.queries.size());
}

// ------------------------------------------------------------- writable --

// One committed logical state of the writable index: the column a rebuild
// would serve plus its live mask.
struct LogicalState {
  std::vector<uint32_t> values;
  std::vector<bool> live;
};

// What a rebuilt index answers for [lo, hi] over a committed state.
Bitvector NaiveInterval(const LogicalState& state, uint32_t lo, uint32_t hi) {
  Bitvector out(state.values.size());
  for (size_t i = 0; i < state.values.size(); ++i) {
    if (state.live[i] && state.values[i] >= lo && state.values[i] <= hi) {
      out.Set(i);
    }
  }
  return out;
}

// Writable-mode chaos: concurrent writers appending batches, readers
// querying through the service, and background compaction folding the
// overlay every millisecond — all at once. The epoch-consistency contract:
// every query answer is bit-identical to a from-scratch rebuild of SOME
// committed batch prefix (never a torn in-between state), regardless of
// which side of a concurrent fold the reader landed on. CI runs this under
// -DBIX_SANITIZE=thread; the shutdown path tears the service down while
// the compaction loop is still live.
TEST(ServerChaosTest, ConcurrentWritersReadersStayEpochConsistent) {
  constexpr uint32_t kCardinality = 16;
  constexpr uint32_t kRows = 2000;
  ColumnSpec spec;
  spec.rows = kRows;
  spec.cardinality = kCardinality;
  spec.zipf_z = 0.9;
  spec.seed = 31;
  Column column = GenerateZipfColumn(spec);

  const std::string dir =
      ::testing::TempDir() + "/chaos_writable";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  auto created = WritableBitmapIndex::Create(dir, column, config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<WritableBitmapIndex> index = std::move(created).value();

  // Committed-prefix history, in seq order. The write mutex wraps both the
  // ApplyBatch and the history append so the recorded order IS seq order;
  // writers were serialized by the index's own write lock anyway.
  std::mutex write_mu;
  std::vector<LogicalState> states;
  states.push_back({column.values, std::vector<bool>(kRows, true)});

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 1024;
  options.cache_shards = 4;
  options.compaction_interval_seconds = 1e-3;
  options.compaction_min_delta_ops = 1;
  QueryService service(index.get(), options);

  constexpr int kWriters = 2;
  constexpr int kBatchesPerWriter = 25;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        UpdateBatch batch;
        const int n_ins = static_cast<int>(rng.UniformInt(0, 3));
        for (int i = 0; i < n_ins; ++i) {
          batch.inserts.push_back(
              static_cast<uint32_t>(rng.UniformInt(0, kCardinality - 1)));
        }
        const int n_upd = static_cast<int>(rng.UniformInt(0, 2));
        for (int i = 0; i < n_upd; ++i) {
          batch.updates.push_back(UpdateRecord{
              rng.UniformInt(0, kRows - 1), 0,
              static_cast<uint32_t>(rng.UniformInt(0, kCardinality - 1))});
        }
        const int n_del = static_cast<int>(rng.UniformInt(0, 2));
        for (int i = 0; i < n_del; ++i) {
          batch.deletes.push_back(rng.UniformInt(0, kRows - 1));
        }
        {
          std::lock_guard<std::mutex> lock(write_mu);
          Status s = index->ApplyBatch(batch);
          EXPECT_TRUE(s.ok()) << s.ToString();
          if (s.ok()) {
            LogicalState next = states.back();
            for (uint32_t v : batch.inserts) {
              next.values.push_back(v);
              next.live.push_back(true);
            }
            for (const UpdateRecord& u : batch.updates) {
              next.values[u.rid] = u.value;
              next.live[u.rid] = true;  // an update revives a dead row
            }
            for (uint64_t rid : batch.deletes) next.live[rid] = false;
            states.push_back(std::move(next));
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  // Readers: interval queries racing the writers and the compactor.
  constexpr int kQueries = 256;
  Rng query_rng(2026);
  std::vector<std::pair<uint32_t, uint32_t>> bounds;
  std::vector<std::future<QueryResult>> futures;
  bounds.reserve(kQueries);
  futures.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    const uint32_t lo =
        static_cast<uint32_t>(query_rng.UniformInt(0, kCardinality - 1));
    const uint32_t hi =
        static_cast<uint32_t>(query_rng.UniformInt(lo, kCardinality - 1));
    bounds.emplace_back(lo, hi);
    futures.push_back(
        service.Submit(ServiceQuery::Interval(IntervalQuery{lo, hi, false})));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  for (std::thread& t : writers) t.join();
  ASSERT_TRUE(service.CompactNow().ok());

  // Every answer must be a committed prefix — bit-identical to the rebuild
  // of one recorded state (sizes disambiguate most; updates/deletes tie-
  // break by content).
  for (int i = 0; i < kQueries; ++i) {
    QueryResult r = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(r.status.ok()) << "query " << i << ": " << r.status.ToString();
    bool matched = false;
    for (const LogicalState& state : states) {
      if (state.values.size() != r.rows.size()) continue;
      if (NaiveInterval(state, bounds[static_cast<size_t>(i)].first,
                        bounds[static_cast<size_t>(i)].second) == r.rows) {
        matched = true;
        break;
      }
    }
    ASSERT_TRUE(matched) << "query " << i << " saw a torn state";
  }

  ASSERT_EQ(states.size(), 1u + kWriters * kBatchesPerWriter);
  EXPECT_GT(index->durability().compactions, 0u);

  // Make fresh work for the background compactor, then tear the service
  // down while its loop is live: Shutdown must drain cleanly.
  UpdateBatch last;
  last.inserts = {1, 2, 3};
  ASSERT_TRUE(index->ApplyBatch(last).ok());
  service.Shutdown();

  // The index survives the service: the final fold equals the oracle.
  ASSERT_TRUE(index->Compact(nullptr).ok());
  const LogicalState& final_state = states.back();
  std::vector<uint32_t> want_values = final_state.values;
  want_values.insert(want_values.end(), {1, 2, 3});
  EXPECT_EQ(index->LogicalValues(), want_values);
}

}  // namespace
}  // namespace bix
