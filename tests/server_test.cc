#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "server/metrics.h"
#include "server/query_service.h"
#include "server/work_queue.h"
#include "util/rng.h"
#include "workload/column_gen.h"

namespace bix {
namespace {

// ---------------------------------------------------------------- queue --

TEST(BoundedWorkQueueTest, FifoAndCapacity) {
  BoundedWorkQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: admission control rejects
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_TRUE(q.TryPush(4));
  EXPECT_EQ(q.Pop().value(), 4);
}

TEST(BoundedWorkQueueTest, RejectedItemIsNotConsumed) {
  BoundedWorkQueue<std::unique_ptr<int>> q(1);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(1)));
  auto item = std::make_unique<int>(2);
  EXPECT_FALSE(q.TryPush(std::move(item)));
  ASSERT_NE(item, nullptr);  // still owned by the caller
  EXPECT_EQ(*item, 2);
}

TEST(BoundedWorkQueueTest, CloseDrainsRemainingItems) {
  BoundedWorkQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_FALSE(q.TryPush(3));  // no admissions after close
  EXPECT_EQ(q.Pop().value(), 1);  // queued work is still handed out
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // drained: workers exit
}

TEST(BoundedWorkQueueTest, BlockingPushWaitsForSpace) {
  BoundedWorkQueue<int> q(1);
  EXPECT_TRUE(q.TryPush(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BoundedWorkQueueTest, CloseUnblocksBlockedProducer) {
  BoundedWorkQueue<int> q(1);
  EXPECT_TRUE(q.TryPush(1));  // queue stays full: the producer must block
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  EXPECT_EQ(q.Pop().value(), 1);  // the admitted item still drains
  EXPECT_FALSE(q.Pop().has_value());
}

// ------------------------------------------------------------ histogram --

TEST(LatencyHistogramTest, EmptyQuantilesAreZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(LatencyHistogramTest, QuantilesBracketRecordedValues) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(0.001);  // 1 ms
  h.Record(1.0);  // one outlier
  EXPECT_EQ(h.count(), 100u);
  // p50 lands in the 1 ms bucket (log buckets: upper edge within ~41%).
  EXPECT_GE(h.p50(), 0.001 * 0.7);
  EXPECT_LE(h.p50(), 0.001 * 1.5);
  // p99 still in the 1 ms bucket; the outlier only moves the max.
  EXPECT_LE(h.p99(), 0.002);
  EXPECT_GE(h.Quantile(1.0), 0.7);  // the outlier's bucket
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
}

TEST(LatencyHistogramTest, AddMergesCounts) {
  LatencyHistogram a, b;
  a.Record(0.001);
  b.Record(0.100);
  b.Record(0.100);
  a.Add(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_GE(a.Quantile(1.0), 0.07);
}

// -------------------------------------------------------------- service --

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ColumnSpec spec;
    spec.rows = 5000;
    spec.cardinality = 40;
    spec.zipf_z = 1.0;
    column_ = GenerateZipfColumn(spec);
    IndexConfig config;
    config.encoding = EncodingKind::kInterval;
    index_.emplace(BuildIndex(column_, config).value());
  }

  ServiceOptions SmallService() const {
    ServiceOptions options;
    options.num_workers = 2;
    options.queue_capacity = 16;
    options.cache_shards = 4;
    return options;
  }

  Column column_;
  std::optional<BitmapIndex> index_;
};

TEST_F(QueryServiceTest, ResultsMatchSingleThreadedExecutor) {
  ExecutorOptions exec_options;
  QueryExecutor reference(&*index_, exec_options);
  QueryService service(&*index_, SmallService());

  IntervalQuery iq{5, 20, false};
  QueryResult r1 = service.Submit(ServiceQuery::Interval(iq)).get();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_EQ(r1.rows, reference.EvaluateInterval(iq));

  std::vector<uint32_t> values{3, 9, 27};
  QueryResult r2 = service.Submit(ServiceQuery::Membership(values)).get();
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.rows, reference.EvaluateMembership(values));
}

TEST_F(QueryServiceTest, PerQueryMetricsAreRecorded) {
  QueryService service(&*index_, SmallService());
  QueryResult r =
      service.Submit(ServiceQuery::Interval(IntervalQuery{2, 10, false}))
          .get();
  ASSERT_TRUE(r.status.ok());
  EXPECT_GT(r.metrics.io.scans, 0u);
  EXPECT_EQ(r.metrics.io.scans,
            r.metrics.io.pool_hits + r.metrics.io.disk_reads);
  EXPECT_GE(r.metrics.queue_seconds, 0.0);
  EXPECT_GE(r.metrics.rewrite_seconds, 0.0);
  EXPECT_GT(r.metrics.eval_seconds, 0.0);
  EXPECT_DOUBLE_EQ(
      r.metrics.total_seconds(),
      r.metrics.queue_seconds + r.metrics.rewrite_seconds +
          r.metrics.eval_seconds);
}

TEST_F(QueryServiceTest, ServiceStatsRollUpPerQueryBlocks) {
  QueryService service(&*index_, SmallService());
  // The first interval query resolves before its repeat is submitted, so
  // the repeat finds its bitmaps resident. Submitted together, the two
  // could run at once on the two workers and both miss.
  std::vector<QueryResult> results;
  results.push_back(
      service.Submit(ServiceQuery::Interval(IntervalQuery{0, 5, false}))
          .get());
  for (QueryResult& r : service.ExecuteBatch({
           ServiceQuery::Interval(IntervalQuery{0, 5, false}),
           ServiceQuery::Membership({1, 2, 3}),
       })) {
    results.push_back(std::move(r));
  }
  uint64_t scans = 0;
  for (const QueryResult& r : results) {
    ASSERT_TRUE(r.status.ok());
    scans += r.metrics.io.scans;
  }
  service.Drain();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected_total(), 0u);
  EXPECT_EQ(stats.io.scans, scans);  // field-by-field roll-up
  EXPECT_EQ(stats.latency.count(), 3u);
  // The repeated interval query hits bitmaps its first run fetched.
  EXPECT_GT(stats.io.pool_hits, 0u);
  EXPECT_GT(stats.CacheHitRate(), 0.0);
}

TEST_F(QueryServiceTest, InvalidQueriesAreRejectedWithStatus) {
  QueryService service(&*index_, SmallService());
  QueryResult lo_gt_hi =
      service.Submit(ServiceQuery::Interval(IntervalQuery{9, 3, false})).get();
  EXPECT_EQ(lo_gt_hi.status.code(), Status::Code::kInvalidArgument);
  QueryResult out_of_domain =
      service.Submit(ServiceQuery::Interval(IntervalQuery{0, 1000, false}))
          .get();
  EXPECT_EQ(out_of_domain.status.code(), Status::Code::kOutOfRange);
  QueryResult empty = service.Submit(ServiceQuery::Membership({})).get();
  EXPECT_EQ(empty.status.code(), Status::Code::kInvalidArgument);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected_invalid, 3u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST_F(QueryServiceTest, SubmitAfterShutdownIsUnavailable) {
  QueryService service(&*index_, SmallService());
  service.Shutdown();
  QueryResult r =
      service.Submit(ServiceQuery::Interval(IntervalQuery{0, 3, false})).get();
  EXPECT_EQ(r.status.code(), Status::Code::kUnavailable);
  QueryResult r2 =
      service.TrySubmit(ServiceQuery::Interval(IntervalQuery{0, 3, false}))
          .get();
  EXPECT_EQ(r2.status.code(), Status::Code::kUnavailable);
  service.Shutdown();  // idempotent
}

TEST_F(QueryServiceTest, ShutdownDrainsQueuedQueries) {
  ServiceOptions options = SmallService();
  options.num_workers = 1;
  auto service = std::make_unique<QueryService>(&*index_, options);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        service->Submit(ServiceQuery::Interval(IntervalQuery{0, 10, false})));
  }
  service->Shutdown();  // must complete every admitted query first
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.ok());
  }
  EXPECT_EQ(service->Stats().completed, 10u);
}

TEST_F(QueryServiceTest, ConcurrentShutdownIsABarrierForEveryCaller) {
  // Regression: Shutdown used to return immediately for the second caller
  // while the first was still joining workers, so the loser of the race
  // could observe a "shut down" service with queries still completing.
  // Both callers must block until the drain has finished.
  ServiceOptions options = SmallService();
  options.num_workers = 1;  // keep a real backlog for Shutdown to drain
  options.queue_capacity = 32;
  QueryService service(&*index_, options);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(
        service.Submit(ServiceQuery::Interval(IntervalQuery{0, 10, false})));
  }
  std::vector<std::thread> callers;
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back([&service] {
      service.Shutdown();
      // The barrier property: whoever returns, the drain is complete.
      EXPECT_EQ(service.Stats().completed, 20u);
    });
  }
  for (std::thread& t : callers) t.join();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
}

TEST_F(QueryServiceTest, FacadeServeValidatesOptions) {
  ServiceOptions bad = SmallService();
  bad.num_workers = 0;
  EXPECT_FALSE(Serve(&*index_, bad).ok());
  bad = SmallService();
  bad.queue_capacity = 0;
  EXPECT_FALSE(Serve(&*index_, bad).ok());
  bad = SmallService();
  bad.cache_shards = 0;
  EXPECT_FALSE(Serve(&*index_, bad).ok());
  bad = SmallService();
  bad.brownout.open_threshold = 1.5;  // breaker would BIX_CHECK-abort
  EXPECT_FALSE(Serve(&*index_, bad).ok());
  bad = SmallService();
  bad.brownout.min_samples = bad.brownout.window + 1;
  EXPECT_FALSE(Serve(&*index_, bad).ok());
  bad.brownout.enabled = false;  // disabled: breaker config is ignored
  EXPECT_TRUE(Serve(&*index_, bad).ok());
  EXPECT_FALSE(
      Serve(static_cast<const BitmapIndex*>(nullptr), SmallService()).ok());
  EXPECT_FALSE(
      Serve(static_cast<IndexSnapshotProvider*>(nullptr), SmallService()).ok());

  Result<std::unique_ptr<QueryService>> service = Serve(&*index_, SmallService());
  ASSERT_TRUE(service.ok());
  QueryResult r = service.value()
                      ->Submit(ServiceQuery::Interval(IntervalQuery{1, 4, false}))
                      .get();
  EXPECT_TRUE(r.status.ok());
}

}  // namespace
}  // namespace bix
