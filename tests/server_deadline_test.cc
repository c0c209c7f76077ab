// Tests for the service's time-and-overload model (DESIGN.md section 11):
// deadline propagation from admission through evaluation, cooperative
// cancellation of queued and running queries, queue-side shedding, and the
// adaptive brownout breaker. Service-level cases run on a VirtualClock
// wherever the behaviour under test is time-driven, so the suite is
// deterministic — no sleeps racing real schedulers. CI also builds this
// test with -DBIX_SANITIZE=thread and address,undefined.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "query/executor.h"
#include "server/brownout.h"
#include "server/query_service.h"
#include "server/work_queue.h"
#include "storage/fault_injector.h"
#include "util/cancel_token.h"
#include "util/clock.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

using TimePoint = ClockInterface::TimePoint;

std::chrono::steady_clock::duration Seconds(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

// ---------------------------------------------------------------- queue --

TEST(BoundedWorkQueueDeadlineTest, PushUntilAdmitsWhenSpaceEvenIfExpired) {
  BoundedWorkQueue<int> q(2);
  // An already-past deadline refuses to *wait*, not to admit: expiry is
  // handled at dequeue (the shedding point), so the entry must flow there.
  const auto past = std::chrono::steady_clock::now() - Seconds(1.0);
  EXPECT_EQ(q.PushUntil(1, past), BoundedWorkQueue<int>::PushOutcome::kAccepted);
  EXPECT_EQ(q.PushUntil(2, past), BoundedWorkQueue<int>::PushOutcome::kAccepted);
  // Full queue + expired deadline: times out immediately instead of
  // parking the producer.
  EXPECT_EQ(q.PushUntil(3, past), BoundedWorkQueue<int>::PushOutcome::kTimedOut);
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedWorkQueueDeadlineTest, PushUntilTimesOutOnFullQueue) {
  BoundedWorkQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(1));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PushUntil(2, t0 + Seconds(20e-3)),
            BoundedWorkQueue<int>::PushOutcome::kTimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, Seconds(15e-3));
  q.Close();
  EXPECT_EQ(q.PushUntil(3, std::chrono::steady_clock::now() + Seconds(1.0)),
            BoundedWorkQueue<int>::PushOutcome::kClosed);
}

TEST(BoundedWorkQueueDeadlineTest, ShedLowestScoredRemovesSmallestFirst) {
  BoundedWorkQueue<int> q(8);
  for (int v : {40, 10, 30, 20, 50}) ASSERT_TRUE(q.TryPush(std::move(v)));
  std::vector<int> shed =
      q.ShedLowestScored(2, [](const int& v) { return static_cast<double>(v); });
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_TRUE((shed[0] == 10 && shed[1] == 20) ||
              (shed[0] == 20 && shed[1] == 10));
  // Survivors keep FIFO order.
  EXPECT_EQ(q.Pop().value(), 40);
  EXPECT_EQ(q.Pop().value(), 30);
  EXPECT_EQ(q.Pop().value(), 50);
  // Shedding more than is queued drains what exists.
  ASSERT_TRUE(q.TryPush(7));
  EXPECT_EQ(q.ShedLowestScored(10, [](const int&) { return 0.0; }).size(), 1u);
  EXPECT_EQ(q.ShedLowestScored(10, [](const int&) { return 0.0; }).size(), 0u);
}

// -------------------------------------------------------------- breaker --

TEST(BrownoutBreakerTest, FullCycleIsDeterministic) {
  BrownoutOptions opts;
  opts.window = 4;
  opts.min_samples = 2;
  opts.open_threshold = 0.5;
  opts.open_seconds = 1.0;
  opts.half_open_probes = 2;
  opts.degraded_retries = 0;
  BrownoutBreaker breaker(opts);
  const TimePoint t0{};

  EXPECT_EQ(breaker.state(), BrownoutBreaker::State::kClosed);
  EXPECT_EQ(breaker.EffectiveRetries(3), 3u);
  // One failure: below min_samples, stays closed.
  EXPECT_FALSE(breaker.RecordOutcome(true, t0));
  EXPECT_EQ(breaker.state(), BrownoutBreaker::State::kClosed);
  // Second failure: 2/2 >= 0.5 with min_samples met -> opens, and the
  // return value tells the caller to shed.
  EXPECT_TRUE(breaker.RecordOutcome(true, t0));
  EXPECT_EQ(breaker.state(), BrownoutBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_EQ(breaker.EffectiveRetries(3), 0u);  // brownout cuts the budget

  // Outcomes while open are ignored (draining pre-transition queries must
  // not extend the dwell).
  EXPECT_FALSE(breaker.RecordOutcome(true, t0 + Seconds(0.5)));
  EXPECT_EQ(breaker.Poll(t0 + Seconds(0.5)), BrownoutBreaker::State::kOpen);

  // Dwell elapses -> half-open; two probe successes -> closed again.
  EXPECT_EQ(breaker.Poll(t0 + Seconds(1.5)), BrownoutBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.RecordOutcome(false, t0 + Seconds(1.6)));
  EXPECT_FALSE(breaker.RecordOutcome(false, t0 + Seconds(1.7)));
  EXPECT_EQ(breaker.state(), BrownoutBreaker::State::kClosed);
  EXPECT_EQ(breaker.EffectiveRetries(3), 3u);
  EXPECT_NEAR(breaker.OpenSecondsTotal(t0 + Seconds(1.7)), 1.7, 1e-9);

  // The window was reset on close: two fresh failures reopen.
  EXPECT_FALSE(breaker.RecordOutcome(true, t0 + Seconds(2.0)));
  EXPECT_TRUE(breaker.RecordOutcome(true, t0 + Seconds(2.0)));
  EXPECT_EQ(breaker.opens(), 2u);
  // A half-open failure reopens with a fresh dwell.
  EXPECT_EQ(breaker.Poll(t0 + Seconds(3.5)), BrownoutBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.RecordOutcome(true, t0 + Seconds(3.5)));
  EXPECT_EQ(breaker.state(), BrownoutBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 3u);
}

// ------------------------------------------------------------- executor --

// An executor that owns its cache (the paper's buffer pool) checks the
// budget at every fetch on ExecutorOptions::clock, as the service's shared
// cache does. A VirtualClock starts at its epoch, so a deadline built from
// it is long past on the real steady clock; the owned cache used to check
// that one and failed every such query DeadlineExceeded.
TEST(ExecutorDeadlineTest, OwnedCacheChecksBudgetOnExecutorClock) {
  VirtualClock clock;
  Column col = GenerateZipfColumn(
      {.rows = 10000, .cardinality = 50, .zipf_z = 1.0, .seed = 1});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(50),
                         EncodingKind::kInterval, false);
  ExecutorOptions opts;
  opts.clock = &clock;
  QueryExecutor exec(&index, opts);
  const std::vector<uint32_t> values = {3, 7, 20};
  const Bitvector expected = NaiveEvaluateMembership(col, values);
  std::shared_ptr<CancelToken> cancel =
      CancelToken::WithDeadline(clock.Now() + Seconds(1.0));
  const std::vector<ExprPtr> exprs =
      exec.RewriteMembership(values, cancel.get());

  Result<Bitvector> rows = exec.TryEvaluateRewritten(exprs, cancel.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value(), expected);
  Result<uint64_t> count = exec.TryEvaluateCountRewritten(exprs, cancel.get());
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), expected.Count());

  // The same budget still expires, on the same clock.
  clock.Advance(2.0);
  EXPECT_EQ(exec.TryEvaluateRewritten(exprs, cancel.get()).status().code(),
            Status::Code::kDeadlineExceeded);
}

// -------------------------------------------------------------- service --

class ServiceDeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ColumnSpec spec;
    spec.rows = 5000;
    spec.cardinality = 40;
    spec.zipf_z = 1.0;
    column_ = GenerateZipfColumn(spec);
    IndexConfig config;
    // Equality encoding: an interval query [lo, hi] fetches one bitmap per
    // value in the interval, giving tests a precise fetch count to reason
    // about.
    config.encoding = EncodingKind::kEquality;
    index_.emplace(BuildIndex(column_, config).value());
  }

  // One worker + injected clock: a fully serialized, deterministic
  // timeline.
  ServiceOptions DeterministicService(ClockInterface* clock) const {
    ServiceOptions options;
    options.num_workers = 1;
    options.queue_capacity = 64;
    options.cache_shards = 2;
    options.clock = clock;
    return options;
  }

  Column column_;
  std::optional<BitmapIndex> index_;
};

TEST_F(ServiceDeadlineTest, ExpiredDeadlineIsShedAtDequeueWithoutExecuting) {
  VirtualClock clock;
  QueryService service(&*index_, DeterministicService(&clock));

  ServiceQuery q = ServiceQuery::Interval(IntervalQuery{3, 3, false});
  q.WithCancel(CancelToken::WithDeadline(clock.Now() - Seconds(1e-3)));
  QueryResult r = service.Submit(std::move(q)).get();
  EXPECT_EQ(r.status.code(), Status::Code::kDeadlineExceeded);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.shed_in_queue, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, 0u);  // never executed
  EXPECT_EQ(stats.io.scans, 0u);   // no storage work was done
}

TEST_F(ServiceDeadlineTest, CancelledWhileQueuedResolvesCancelled) {
  VirtualClock clock;
  QueryService service(&*index_, DeterministicService(&clock));

  auto token = CancelToken::Manual();
  token->Cancel();  // raised before a worker ever sees the query
  QueryResult r = service
                      .Submit(ServiceQuery::Interval(IntervalQuery{3, 3, false})
                                  .WithCancel(token))
                      .get();
  EXPECT_EQ(r.status.code(), Status::Code::kCancelled);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed_in_queue, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST_F(ServiceDeadlineTest, CancelInterruptsRetryBackoff) {
  // Real clock: the point under test is that Cancel() wakes a worker
  // parked in an exponential-backoff sleep. The injector fails every
  // fetch, and the retry budget/backoff are sized so the query would
  // otherwise grind for minutes.
  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 1'000'000;
  FaultInjector injector(fault_opts);

  ServiceOptions options = DeterministicService(nullptr);
  options.fault_injector = &injector;
  options.max_fetch_retries = 1'000'000;
  options.retry_backoff_seconds = 50e-3;
  options.brownout.enabled = false;  // keep the full retry budget in force
  QueryService service(&*index_, options);

  auto token = CancelToken::Manual();
  std::future<QueryResult> f = service.Submit(
      ServiceQuery::Interval(IntervalQuery{3, 3, false}).WithCancel(token));
  // Let the worker reach the retry loop, then cancel mid-backoff.
  ASSERT_EQ(f.wait_for(std::chrono::milliseconds(60)),
            std::future_status::timeout);
  const auto t0 = std::chrono::steady_clock::now();
  token->Cancel();
  ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  // Resolution is prompt: the sleep was interrupted, not waited out (the
  // backoff had already doubled past this bound).
  EXPECT_LT(std::chrono::steady_clock::now() - t0, Seconds(5.0));
  QueryResult r = f.get();
  EXPECT_EQ(r.status.code(), Status::Code::kCancelled);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);  // it ran; it resolved typed
  EXPECT_EQ(stats.degraded_queries, 1u);
}

TEST_F(ServiceDeadlineTest, MidEvalDeadlineKeepsPartialMetrics) {
  // VirtualClock + modeled I/O latency: every cache miss advances
  // simulated time by >= seek_seconds (10ms). A 15ms budget admits the
  // query, survives the first fetch, and expires before the interval's
  // remaining bitmaps — deterministically, with zero real sleeping.
  VirtualClock clock;
  ServiceOptions options = DeterministicService(&clock);
  options.io_latency_scale = 1.0;
  QueryService service(&*index_, options);

  const IntervalQuery interval{0, 5, false};  // 6 equality bitmaps
  ServiceQuery q = ServiceQuery::Interval(interval);
  q.WithCancel(CancelToken::WithDeadline(clock.Now() + Seconds(15e-3)));
  QueryResult r = service.Submit(std::move(q)).get();
  EXPECT_EQ(r.status.code(), Status::Code::kDeadlineExceeded);
  // Partial work is preserved in the metrics: at least one fetch ran
  // before the budget expired, and not all six did.
  EXPECT_GE(r.metrics.io.scans, 1u);
  EXPECT_LT(r.metrics.io.scans, 6u);

  // The same query without a deadline completes and does strictly more
  // storage work.
  QueryResult clean = service.Submit(ServiceQuery::Interval(interval)).get();
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  EXPECT_EQ(clean.metrics.io.scans, 6u);
  EXPECT_GT(clean.metrics.io.scans, r.metrics.io.scans);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.degraded_queries, 1u);
}

TEST_F(ServiceDeadlineTest, AdmissionDeadlineBoundsBlockingSubmit) {
  // Real clock; capacity-1 queue. q1 occupies the worker (failing fetches
  // with long backoff), q2 fills the queue, so q3's blocking Submit can
  // only wait — and its deadline caps that wait.
  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 1'000'000;
  FaultInjector injector(fault_opts);

  ServiceOptions options = DeterministicService(nullptr);
  options.queue_capacity = 1;
  options.fault_injector = &injector;
  options.max_fetch_retries = 1'000'000;
  options.retry_backoff_seconds = 50e-3;
  options.brownout.enabled = false;
  QueryService service(&*index_, options);

  auto running = CancelToken::Manual();
  std::future<QueryResult> f1 = service.Submit(
      ServiceQuery::Interval(IntervalQuery{3, 3, false}).WithCancel(running));
  // Wait until the worker has picked up q1 (the queue slot frees), then
  // fill the queue with q2.
  auto queued = CancelToken::Manual();
  std::future<QueryResult> f2;
  for (;;) {
    std::future<QueryResult> f = service.TrySubmit(
        ServiceQuery::Interval(IntervalQuery{4, 4, false}).WithCancel(queued));
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      f2 = std::move(f);  // admitted: sits in the queue behind busy q1
      break;
    }
    QueryResult rejected = f.get();  // queue still held q1; retry
    ASSERT_EQ(rejected.status.code(), Status::Code::kUnavailable);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ServiceQuery q3 = ServiceQuery::Interval(IntervalQuery{5, 5, false});
  q3.WithTimeout(30e-3);
  const auto t0 = std::chrono::steady_clock::now();
  QueryResult r3 = service.Submit(std::move(q3)).get();
  EXPECT_EQ(r3.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, Seconds(25e-3));

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.shed_in_queue, 0u);  // rejected at admission, not dequeue

  // Unwind: cancel both in-flight queries and let Shutdown drain.
  running->Cancel();
  queued->Cancel();
  EXPECT_EQ(f1.get().status.code(), Status::Code::kCancelled);
  EXPECT_EQ(f2.get().status.code(), Status::Code::kCancelled);
}

TEST_F(ServiceDeadlineTest, BreakerCycleIsDeterministicUnderInjectedFaults) {
  // Single worker, VirtualClock, deterministic injector: the first 8 read
  // attempts of the hot bitmap fail, later ones succeed. With
  // min_samples = 8 and threshold 1.0, the 8th failed query opens the
  // breaker on the nose.
  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 8;
  FaultInjector injector(fault_opts);

  VirtualClock clock;
  ServiceOptions options = DeterministicService(&clock);
  options.fault_injector = &injector;
  options.max_fetch_retries = 0;  // one attempt per query: exact counts
  options.brownout.window = 8;
  options.brownout.min_samples = 8;
  options.brownout.open_threshold = 1.0;
  options.brownout.open_seconds = 1.0;
  options.brownout.half_open_probes = 2;
  options.brownout.shed_fraction = 0.0;  // isolate the state machine
  QueryService service(&*index_, options);

  const ServiceQuery q = ServiceQuery::Interval(IntervalQuery{3, 3, false});
  for (int i = 0; i < 8; ++i) {
    QueryResult r = service.Submit(q).get();
    EXPECT_EQ(r.status.code(), Status::Code::kUnavailable) << "query " << i;
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_state, 1u);  // open

  // Brownout, not blackout: the open breaker still serves queries (the
  // 9th read attempt succeeds), it just cuts the retry budget.
  QueryResult served = service.Submit(q).get();
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(service.Stats().breaker_state, 1u);  // dwell not yet elapsed

  // Past the dwell the next completions probe half-open and close it.
  clock.Advance(2.0);
  ASSERT_TRUE(service.Submit(q).get().status.ok());
  ASSERT_TRUE(service.Submit(q).get().status.ok());
  stats = service.Stats();
  EXPECT_EQ(stats.breaker_state, 0u);  // closed again
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_GE(stats.breaker_open_seconds, 1.0);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.shed_in_queue, 0u);
}

TEST_F(ServiceDeadlineTest, BreakerOpeningShedsQueuedBacklog) {
  // Real clock: each failing query burns ~150ms of backoff (2 retries at
  // 50ms doubling), so a burst of 20 keeps a deep backlog while the first
  // four failures open the breaker — which must shed the whole queue
  // (shed_fraction = 1.0) as immediate Unavailable results.
  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 1'000'000;
  FaultInjector injector(fault_opts);

  ServiceOptions options = DeterministicService(nullptr);
  options.fault_injector = &injector;
  options.max_fetch_retries = 2;
  options.retry_backoff_seconds = 50e-3;
  options.brownout.window = 4;
  options.brownout.min_samples = 4;
  options.brownout.open_threshold = 1.0;
  options.brownout.open_seconds = 60.0;  // stays open for the whole test
  options.brownout.degraded_retries = 0;
  options.brownout.shed_fraction = 1.0;
  QueryService service(&*index_, options);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(
        service.Submit(ServiceQuery::Interval(IntervalQuery{3, 3, false})));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_EQ(f.get().status.code(), Status::Code::kUnavailable);
  }
  ServiceStats stats = service.Stats();
  EXPECT_GE(stats.breaker_opens, 1u);
  EXPECT_GT(stats.shed_in_queue, 0u);  // the backlog did not drain by running
  EXPECT_GT(stats.breaker_open_seconds, 0.0);
  // Shed queries never executed, so completed + shed covers the burst.
  EXPECT_EQ(stats.completed + stats.shed_in_queue, 20u);
  // After the breaker opened, executed queries used the degraded retry
  // budget: strictly fewer than 20 * 2 retries were burned.
  EXPECT_LT(stats.retries, 40u);
}

// ------------------------------------------------------------ backoff --

// The retry schedule doubles: with one failing fetch and three retries the
// worker sleeps base, 2 * base and 4 * base of virtual time, exactly.
TEST_F(ServiceDeadlineTest, RetrySleepsDoubleUnderVirtualClock) {
  constexpr double kBase = 100e-6;
  VirtualClock clock;
  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 1'000'000;
  FaultInjector injector(fault_opts);
  ServiceOptions options = DeterministicService(&clock);
  options.fault_injector = &injector;
  options.max_fetch_retries = 3;
  options.retry_backoff_seconds = kBase;
  options.brownout.enabled = false;
  QueryService service(&*index_, options);
  QueryResult r =
      service.Submit(ServiceQuery::Interval(IntervalQuery{3, 3, false})).get();
  EXPECT_EQ(r.status.code(), Status::Code::kUnavailable);
  EXPECT_DOUBLE_EQ(clock.slept_seconds(), 7.0 * kBase);
}

}  // namespace
}  // namespace bix
