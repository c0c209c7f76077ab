// Observability suite (DESIGN.md section 13): per-query TraceSpan trees,
// the metrics registry with its text/JSON exporters, and the slow-query
// log, locked down deterministically. Everything time-driven runs under a
// VirtualClock (time advances only inside SleepFor), so span trees are
// byte-identical across runs, leaf durations decompose end-to-end latency
// *exactly* (integer-nanosecond arithmetic, no tolerance), and retry/
// backoff spans carry the exact simulated durations the fault injector and
// backoff schedule imply. CI also builds this test with -DBIX_SANITIZE=
// thread and address,undefined.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "core/writable_index.h"
#include "server/metrics.h"
#include "server/metrics_registry.h"
#include "server/query_service.h"
#include "storage/fault_injector.h"
#include "util/clock.h"
#include "util/trace.h"
#include "workload/column_gen.h"

namespace bix {
namespace {

std::chrono::steady_clock::duration Seconds(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

// The exact nanosecond count a double-seconds sleep advances a
// VirtualClock by — the same conversion ClockInterface::SleepFor performs,
// so span-duration expectations below are exact, not approximate.
int64_t Nanos(double seconds) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::duration<double>(seconds))
      .count();
}

// Collects every span named `name` in the tree (depth-first).
void CollectNamed(const TraceSpan& span, std::string_view name,
                  std::vector<const TraceSpan*>* out) {
  if (span.name == name) out->push_back(&span);
  for (const TraceSpan& c : span.children) CollectNamed(c, name, out);
}

int64_t SumNamedDurations(const TraceSpan& root, std::string_view name) {
  std::vector<const TraceSpan*> spans;
  CollectNamed(root, name, &spans);
  int64_t total = 0;
  for (const TraceSpan* s : spans) total += s->duration_ns;
  return total;
}

// ----------------------------------------------------------- span basics --

TEST(TraceSpanTest, RenderAndJsonAreDeterministic) {
  TraceSpan root;
  root.name = "query";
  root.duration_ns = 123456;
  root.tags.emplace_back("kind", "interval");
  TraceSpan child;
  child.name = "eval";
  child.start_ns = 1000;
  child.duration_ns = 122456;
  root.children.push_back(child);

  EXPECT_EQ(root.Render(),
            "query 123.456us kind=interval\n"
            "  eval 122.456us\n");
  EXPECT_EQ(root.ToJson(),
            "{\"name\":\"query\",\"start_ns\":0,\"duration_ns\":123456,"
            "\"tags\":{\"kind\":\"interval\"},\"children\":["
            "{\"name\":\"eval\",\"start_ns\":1000,\"duration_ns\":122456}]}");
  EXPECT_EQ(root.SpanCount(), 2u);
  EXPECT_EQ(root.ChildrenNanos(), 122456);
  EXPECT_EQ(root.LeafNanos(), 122456);
  ASSERT_NE(root.Find("eval"), nullptr);
  EXPECT_EQ(root.Find("missing"), nullptr);
  EXPECT_EQ(root.TagValue("kind"), "interval");
  EXPECT_EQ(root.TagValue("absent"), "");
}

TEST(TraceSinkTest, NestedSpansAttributeVirtualTimeToLeaves) {
  VirtualClock clock;
  TraceSink sink(&clock, "query");
  sink.Begin("eval");
  sink.Begin("io");
  clock.SleepFor(5e-3, nullptr);
  sink.End();
  sink.Begin("decode");
  clock.SleepFor(2e-3, nullptr);
  sink.End();
  sink.End();
  TraceSpan root = sink.Finish();

  ASSERT_EQ(root.children.size(), 1u);
  const TraceSpan& eval = root.children[0];
  ASSERT_EQ(eval.children.size(), 2u);
  EXPECT_EQ(eval.children[0].duration_ns, Nanos(5e-3));
  EXPECT_EQ(eval.children[1].duration_ns, Nanos(2e-3));
  // The attribution invariant, exactly: all elapsed time lives in leaves.
  EXPECT_EQ(eval.duration_ns, eval.LeafNanos());
  EXPECT_EQ(root.duration_ns, root.LeafNanos());
  EXPECT_EQ(root.duration_ns, Nanos(5e-3) + Nanos(2e-3));
}

TEST(TraceSinkTest, FinishClosesOpenSpansAndRecordAddsBoundedChild) {
  VirtualClock clock;
  const ClockInterface::TimePoint t0 = clock.Now();
  clock.Advance(1e-3);
  const ClockInterface::TimePoint t1 = clock.Now();
  TraceSink sink(&clock, "query", t0);  // root anchored in the past
  sink.Record("queue", t0, t1);
  sink.Begin("eval");  // left open deliberately
  TraceSpan root = sink.Finish();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "queue");
  EXPECT_EQ(root.children[0].start_ns, 0);
  EXPECT_EQ(root.children[0].duration_ns, Nanos(1e-3));
  EXPECT_EQ(root.children[1].name, "eval");
  EXPECT_EQ(root.duration_ns, Nanos(1e-3));
}

// -------------------------------------------------------------- registry --

TEST(MetricsRegistryTest, DumpTextMatchesGolden) {
  MetricsRegistry registry;
  registry.GetCounter("b_counter")->Increment(7);
  registry.GetCounter("a_counter")->Increment();
  registry.GetGauge("my_gauge")->Set(2.5);
  StripedLatencyHistogram* h = registry.GetHistogram("stage");
  h->Record(100e-6);  // bucket upper edge 128us
  h->Record(100e-6);

  // Names sort lexicographically; histograms expand to five lines.
  EXPECT_EQ(registry.DumpText(),
            "a_counter: 1\n"
            "b_counter: 7\n"
            "my_gauge: 2.500000\n"
            "stage_count: 2\n"
            "stage_sum_us: 200.000\n"
            "stage_p50_us: 128.000\n"
            "stage_p95_us: 128.000\n"
            "stage_p99_us: 128.000\n");
}

TEST(MetricsRegistryTest, DumpJsonMatchesGolden) {
  MetricsRegistry registry;
  registry.GetCounter("hits")->Increment(3);
  registry.GetGauge("rate")->Set(0.5);
  registry.GetHistogram("lat")->Record(1e-6);  // bucket 0, upper edge 1us

  EXPECT_EQ(registry.DumpJson(),
            "{\"counters\":{\"hits\":3},"
            "\"gauges\":{\"rate\":0.500000},"
            "\"histograms\":{\"lat\":{\"count\":1,\"sum_us\":1.000,"
            "\"p50_us\":1.000,\"p95_us\":1.000,\"p99_us\":1.000}}}");
}

TEST(MetricsRegistryTest, GetReturnsStableHandleForSameName) {
  MetricsRegistry registry;
  MetricsCounter* a = registry.GetCounter("x");
  EXPECT_EQ(registry.GetCounter("x"), a);
  a->Increment(2);
  EXPECT_EQ(registry.GetCounter("x")->Value(), 2u);
}

TEST(LatencyHistogramTest, AddMergesEveryMember) {
  LatencyHistogram a, b;
  a.Record(100e-6);
  b.Record(100e-6);
  b.Record(10e-3);
  a.Add(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum_seconds(), 100e-6 + 100e-6 + 10e-3);
  EXPECT_GT(a.p99(), a.p50());  // the 10ms tail landed in a higher bucket
}

// -------------------------------------------------------- slow-query log --

TEST(SlowQueryLogTest, KeepsTopKByLatencySlowestFirst) {
  SlowQueryLog log(2);
  auto entry = [](double s, std::string desc) {
    SlowQueryLog::Entry e;
    e.total_seconds = s;
    e.description = std::move(desc);
    e.status = "OK";
    return e;
  };
  EXPECT_TRUE(log.WouldAdmit(1e-6));
  log.MaybeAdd(entry(3e-3, "a"));
  log.MaybeAdd(entry(1e-3, "b"));
  log.MaybeAdd(entry(2e-3, "c"));  // displaces b
  EXPECT_FALSE(log.WouldAdmit(1e-3));  // at the floor: rejected
  log.MaybeAdd(entry(1e-3, "d"));      // no-op
  std::vector<SlowQueryLog::Entry> got = log.Snapshot();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].description, "a");
  EXPECT_EQ(got[1].description, "c");
  EXPECT_EQ(log.Render(),
            "3000.000us a status=OK\n"
            "2000.000us c status=OK\n");
}

TEST(SlowQueryLogTest, RenderIndentsTraceUnderHeader) {
  SlowQueryLog log(1);
  SlowQueryLog::Entry e;
  e.total_seconds = 5e-3;
  e.description = "interval [0,2]";
  e.status = "OK";
  e.trace_render = "query 5000.000us\n  eval 5000.000us\n";
  log.MaybeAdd(std::move(e));
  EXPECT_EQ(log.Render(),
            "5000.000us interval [0,2] status=OK\n"
            "    query 5000.000us\n"
            "      eval 5000.000us\n");
}

// --------------------------------------------------------------- service --

class ObservabilityServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ColumnSpec spec;
    spec.rows = 5000;
    spec.cardinality = 40;
    spec.zipf_z = 1.0;
    column_ = GenerateZipfColumn(spec);
    IndexConfig config;
    // Equality encoding: an interval query [lo, hi] fetches exactly one
    // bitmap per value, so traces have a predictable fetch count.
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

TEST_F(ObservabilityServiceTest, TracedQueryProducesExpectedSpanTree) {
  VirtualClock clock;
  ServiceOptions options = DeterministicService(&clock);
  options.io_latency_scale = 1.0;  // misses advance simulated time
  QueryService service(&*index_, options);

  QueryResult r = service
                      .Submit(ServiceQuery::Interval(IntervalQuery{0, 2, false})
                                  .WithTrace())
                      .get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_NE(r.trace, nullptr);
  const TraceSpan& root = *r.trace;

  EXPECT_EQ(root.name, "query");
  EXPECT_EQ(root.TagValue("kind"), "interval");
  EXPECT_EQ(root.TagValue("status"), "OK");
  // The pipeline stages appear as direct children in submission order.
  ASSERT_EQ(root.children.size(), 4u);
  EXPECT_EQ(root.children[0].name, "admission");
  EXPECT_EQ(root.children[1].name, "queue");
  EXPECT_EQ(root.children[2].name, "rewrite");
  EXPECT_EQ(root.children[3].name, "eval");

  // Three equality bitmaps -> three policy-level fetches, each wrapping a
  // cold "read" with its modeled "io" sleep and a "materialize" leaf.
  std::vector<const TraceSpan*> fetches;
  CollectNamed(root, "fetch", &fetches);
  ASSERT_EQ(fetches.size(), 3u);
  for (const TraceSpan* fetch : fetches) {
    EXPECT_EQ(fetch->TagValue("attempts"), "1");
    ASSERT_EQ(fetch->children.size(), 1u);
    const TraceSpan& read = fetch->children[0];
    EXPECT_EQ(read.name, "read");
    EXPECT_EQ(read.TagValue("outcome"), "miss");
    EXPECT_NE(read.TagValue("key"), "");
    EXPECT_NE(read.TagValue("bytes"), "");
    EXPECT_NE(read.Find("io"), nullptr);
    EXPECT_NE(read.Find("materialize"), nullptr);
  }

  // Leaf attribution, exactly: end-to-end duration decomposes into leaves,
  // and the modeled sleep leaves match the query's IoStats to the
  // nanosecond.
  EXPECT_GT(root.duration_ns, 0);
  EXPECT_EQ(root.duration_ns, root.LeafNanos());
  int64_t slept = 0;
  for (const TraceSpan* fetch : fetches) {
    for (const char* leaf : {"io", "decode", "spike"}) {
      slept += SumNamedDurations(*fetch, leaf);
    }
  }
  EXPECT_EQ(root.duration_ns, slept);  // only modeled I/O advanced the clock

  // A warm re-run hits the pool: no io leaves, zero virtual duration.
  QueryResult warm =
      service
          .Submit(
              ServiceQuery::Interval(IntervalQuery{0, 2, false}).WithTrace())
          .get();
  ASSERT_TRUE(warm.status.ok());
  ASSERT_NE(warm.trace, nullptr);
  std::vector<const TraceSpan*> warm_reads;
  CollectNamed(*warm.trace, "read", &warm_reads);
  ASSERT_EQ(warm_reads.size(), 3u);
  for (const TraceSpan* read : warm_reads) {
    EXPECT_EQ(read->TagValue("outcome"), "hit");
    EXPECT_EQ(read->Find("io"), nullptr);
  }
  EXPECT_EQ(warm.trace->duration_ns, 0);
  EXPECT_EQ(warm.trace->duration_ns, warm.trace->LeafNanos());
}

TEST_F(ObservabilityServiceTest, RetryAndBackoffSpansHaveExactDurations) {
  // Every cold read fails twice before succeeding; with a 100us base
  // backoff the worker sleeps exactly 100us then 200us per fetch. No
  // modeled I/O, so backoff is the *only* thing advancing the clock.
  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 2;
  FaultInjector injector(fault_opts);

  VirtualClock clock;
  ServiceOptions options = DeterministicService(&clock);
  options.fault_injector = &injector;
  options.max_fetch_retries = 3;
  options.retry_backoff_seconds = 100e-6;
  options.brownout.enabled = false;  // keep the full retry budget in force
  QueryService service(&*index_, options);

  QueryResult r = service
                      .Submit(ServiceQuery::Interval(IntervalQuery{3, 3, false})
                                  .WithTrace())
                      .get();
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_NE(r.trace, nullptr);

  std::vector<const TraceSpan*> fetches;
  CollectNamed(*r.trace, "fetch", &fetches);
  ASSERT_EQ(fetches.size(), 1u);
  const TraceSpan& fetch = *fetches[0];
  EXPECT_EQ(fetch.TagValue("attempts"), "3");
  // Interleaving: read(fail) backoff read(fail) backoff read(ok).
  ASSERT_EQ(fetch.children.size(), 5u);
  EXPECT_EQ(fetch.children[0].name, "read");
  EXPECT_EQ(fetch.children[0].TagValue("fault"), "unavailable");
  EXPECT_EQ(fetch.children[1].name, "backoff");
  EXPECT_EQ(fetch.children[1].duration_ns, Nanos(100e-6));
  EXPECT_EQ(fetch.children[2].name, "read");
  EXPECT_EQ(fetch.children[2].TagValue("fault"), "unavailable");
  EXPECT_EQ(fetch.children[3].name, "backoff");
  EXPECT_EQ(fetch.children[3].duration_ns, Nanos(200e-6));  // doubled
  EXPECT_EQ(fetch.children[4].name, "read");
  EXPECT_EQ(fetch.children[4].TagValue("outcome"), "miss");

  // End-to-end latency is exactly the two backoff sleeps.
  EXPECT_EQ(r.trace->duration_ns, Nanos(100e-6) + Nanos(200e-6));
  EXPECT_EQ(r.trace->duration_ns, r.trace->LeafNanos());
  EXPECT_EQ(service.Stats().retries, 2u);
}

TEST_F(ObservabilityServiceTest, TracesAreByteIdenticalAcrossRuns) {
  // Same seed, same virtual timeline, same faults -> the rendered trace
  // and its JSON must match byte for byte across two fresh services.
  auto run_once = [&]() {
    FaultInjectorOptions fault_opts;
    fault_opts.seed = 42;
    fault_opts.unavailable_first_attempts = 1;
    fault_opts.latency_spike_prob = 0.5;
    fault_opts.latency_spike_seconds = 3e-3;
    FaultInjector injector(fault_opts);

    VirtualClock clock;
    ServiceOptions options = DeterministicService(&clock);
    options.io_latency_scale = 1.0;
    options.fault_injector = &injector;
    options.retry_backoff_seconds = 100e-6;
    options.brownout.enabled = false;
    QueryService service(&*index_, options);

    std::string out;
    for (uint32_t lo = 0; lo < 3; ++lo) {
      QueryResult r =
          service
              .Submit(ServiceQuery::Interval(IntervalQuery{lo, lo + 2, false})
                          .WithTrace())
              .get();
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
      if (r.trace != nullptr) {
        out += r.trace->Render();
        out += r.trace->ToJson();
        out += '\n';
      }
    }
    return out;
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Sanity: the scenario exercised retries (backoff spans present).
  EXPECT_NE(first.find("backoff"), std::string::npos);
}

TEST_F(ObservabilityServiceTest, ShedQueryStillCarriesWaitTrace) {
  VirtualClock clock;
  QueryService service(&*index_, DeterministicService(&clock));

  ServiceQuery q = ServiceQuery::Interval(IntervalQuery{3, 3, false});
  q.WithCancel(CancelToken::WithDeadline(clock.Now() - Seconds(1e-3)));
  q.WithTrace();
  QueryResult r = service.Submit(std::move(q)).get();
  EXPECT_EQ(r.status.code(), Status::Code::kDeadlineExceeded);
  ASSERT_NE(r.trace, nullptr);
  EXPECT_EQ(r.trace->TagValue("shed"), "at_dequeue");
  EXPECT_EQ(r.trace->TagValue("status"), "DeadlineExceeded");
  EXPECT_NE(r.trace->Find("queue"), nullptr);
  EXPECT_EQ(r.trace->Find("eval"), nullptr);  // never executed
}

TEST_F(ObservabilityServiceTest, ExportMetricsFreshServiceMatchesGolden) {
  VirtualClock clock;
  QueryService service(&*index_, DeterministicService(&clock));

  // Nothing has run: every metric is zero and the dump is fully
  // deterministic. This golden locks the exporter's wire format.
  EXPECT_EQ(service.ExportMetrics(MetricsFormat::kText),
            "corruptions_detected: 0\n"
            "fetch_retries: 0\n"
            "quarantined_bitmaps: 0\n"
            "queries_cancelled: 0\n"
            "queries_completed: 0\n"
            "queries_deadline_exceeded: 0\n"
            "queries_degraded: 0\n"
            "queries_rejected_invalid: 0\n"
            "queries_rejected_overload: 0\n"
            "queries_shed_in_queue: 0\n"
            "queries_submitted: 0\n"
            "queries_traced: 0\n"
            "breaker_open_seconds: 0.000000\n"
            "breaker_opens: 0.000000\n"
            "breaker_state: 0.000000\n"
            "io_bytes_read: 0.000000\n"
            "io_cpu_seconds: 0.000000\n"
            "io_decode_seconds: 0.000000\n"
            "io_decodes_bbc: 0.000000\n"
            "io_decodes_roaring: 0.000000\n"
            "io_decodes_verbatim: 0.000000\n"
            "io_decodes_wah: 0.000000\n"
            "io_disk_reads: 0.000000\n"
            "io_pool_hits: 0.000000\n"
            "io_rescans: 0.000000\n"
            "io_scans: 0.000000\n"
            "io_seconds: 0.000000\n"
            "pool_bytes_used: 0.000000\n"
            "latency_eval_count: 0\n"
            "latency_eval_sum_us: 0.000\n"
            "latency_eval_p50_us: 0.000\n"
            "latency_eval_p95_us: 0.000\n"
            "latency_eval_p99_us: 0.000\n"
            "latency_queue_count: 0\n"
            "latency_queue_sum_us: 0.000\n"
            "latency_queue_p50_us: 0.000\n"
            "latency_queue_p95_us: 0.000\n"
            "latency_queue_p99_us: 0.000\n"
            "latency_rewrite_count: 0\n"
            "latency_rewrite_sum_us: 0.000\n"
            "latency_rewrite_p50_us: 0.000\n"
            "latency_rewrite_p95_us: 0.000\n"
            "latency_rewrite_p99_us: 0.000\n"
            "latency_total_count: 0\n"
            "latency_total_sum_us: 0.000\n"
            "latency_total_p50_us: 0.000\n"
            "latency_total_p95_us: 0.000\n"
            "latency_total_p99_us: 0.000\n");

  EXPECT_EQ(
      service.ExportMetrics(MetricsFormat::kJson),
      "{\"counters\":{\"corruptions_detected\":0,\"fetch_retries\":0,"
      "\"quarantined_bitmaps\":0,\"queries_cancelled\":0,"
      "\"queries_completed\":0,\"queries_deadline_exceeded\":0,"
      "\"queries_degraded\":0,\"queries_rejected_invalid\":0,"
      "\"queries_rejected_overload\":0,\"queries_shed_in_queue\":0,"
      "\"queries_submitted\":0,\"queries_traced\":0},"
      "\"gauges\":{\"breaker_open_seconds\":0.000000,"
      "\"breaker_opens\":0.000000,\"breaker_state\":0.000000,"
      "\"io_bytes_read\":0.000000,\"io_cpu_seconds\":0.000000,"
      "\"io_decode_seconds\":0.000000,\"io_decodes_bbc\":0.000000,"
      "\"io_decodes_roaring\":0.000000,\"io_decodes_verbatim\":0.000000,"
      "\"io_decodes_wah\":0.000000,\"io_disk_reads\":0.000000,"
      "\"io_pool_hits\":0.000000,\"io_rescans\":0.000000,"
      "\"io_scans\":0.000000,\"io_seconds\":0.000000,"
      "\"pool_bytes_used\":0.000000},"
      "\"histograms\":{"
      "\"latency_eval\":{\"count\":0,\"sum_us\":0.000,\"p50_us\":0.000,"
      "\"p95_us\":0.000,\"p99_us\":0.000},"
      "\"latency_queue\":{\"count\":0,\"sum_us\":0.000,\"p50_us\":0.000,"
      "\"p95_us\":0.000,\"p99_us\":0.000},"
      "\"latency_rewrite\":{\"count\":0,\"sum_us\":0.000,\"p50_us\":0.000,"
      "\"p95_us\":0.000,\"p99_us\":0.000},"
      "\"latency_total\":{\"count\":0,\"sum_us\":0.000,\"p50_us\":0.000,"
      "\"p95_us\":0.000,\"p99_us\":0.000}}}");
}

TEST_F(ObservabilityServiceTest, ExportMetricsReflectsCompletedQueries) {
  VirtualClock clock;
  QueryService service(&*index_, DeterministicService(&clock));

  QueryResult r = service
                      .Submit(ServiceQuery::Interval(IntervalQuery{0, 1, false})
                                  .WithTrace())
                      .get();
  ASSERT_TRUE(r.status.ok());
  service.Drain();

  const std::string text = service.ExportMetrics(MetricsFormat::kText);
  EXPECT_NE(text.find("queries_submitted: 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("queries_completed: 1\n"), std::string::npos);
  EXPECT_NE(text.find("queries_traced: 1\n"), std::string::npos);
  EXPECT_NE(text.find("io_scans: 2.000000\n"), std::string::npos);
  EXPECT_NE(text.find("io_disk_reads: 2.000000\n"), std::string::npos);
  EXPECT_NE(text.find("latency_total_count: 1\n"), std::string::npos);
  // The slow-query log renders the traced query with its span tree.
  EXPECT_NE(text.find("# slow queries (slowest first)\n"), std::string::npos);
  EXPECT_NE(text.find("interval [0,1] status=OK"), std::string::npos);
  EXPECT_NE(text.find("    query "), std::string::npos);

  // The JSON form carries the same counters.
  const std::string json = service.ExportMetrics(MetricsFormat::kJson);
  EXPECT_NE(json.find("\"queries_completed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"io_scans\":2.000000"), std::string::npos);

  // Stats() is now a derived view of the same registry: totals agree.
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.io.scans, 2u);
  EXPECT_EQ(stats.latency.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.queue_seconds_total +
                       stats.rewrite_seconds_total + stats.eval_seconds_total,
                   stats.latency.sum_seconds());
}

// ---------------------------------------------------------- differential --

// Tracing is observation-only: for every encoding scheme the same queries
// must produce bit-identical bitmaps/counts and identical IoStats with
// tracing on and off.
TEST_F(ObservabilityServiceTest, TracingIsObservationOnlyForAllEncodings) {
  for (EncodingKind kind : AllEncodingKinds()) {
    IndexConfig config;
    config.encoding = kind;
    BitmapIndex index = BuildIndex(column_, config).value();

    auto run = [&](bool traced) {
      VirtualClock clock;
      QueryService service(&index, DeterministicService(&clock));
      std::vector<QueryResult> results;
      for (uint32_t lo = 0; lo < 6; ++lo) {
        ServiceQuery q = ServiceQuery::Interval(IntervalQuery{lo, lo + 4,
                                                              false});
        if (traced) q.WithTrace();
        results.push_back(service.Submit(std::move(q)).get());
      }
      ServiceQuery members = ServiceQuery::Membership({1, 5, 9});
      if (traced) members.WithTrace();
      results.push_back(service.Submit(std::move(members)).get());
      ServiceQuery counted =
          ServiceQuery::Interval(IntervalQuery{2, 9, false}).CountOnly();
      if (traced) counted.WithTrace();
      results.push_back(service.Submit(std::move(counted)).get());
      return results;
    };

    std::vector<QueryResult> plain = run(false);
    std::vector<QueryResult> traced = run(true);
    ASSERT_EQ(plain.size(), traced.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      SCOPED_TRACE(std::string(EncodingKindName(kind)) + " query " +
                   std::to_string(i));
      ASSERT_TRUE(plain[i].status.ok()) << plain[i].status.ToString();
      ASSERT_TRUE(traced[i].status.ok()) << traced[i].status.ToString();
      EXPECT_EQ(plain[i].trace, nullptr);
      ASSERT_NE(traced[i].trace, nullptr);
      // Traced queries take the same blocked union as untraced ones: one
      // kernel span for the whole combine, not one per operator node.
      std::vector<const TraceSpan*> kernels;
      CollectNamed(*traced[i].trace, "kernel", &kernels);
      EXPECT_EQ(kernels.size(), 1u);
      EXPECT_EQ(plain[i].count, traced[i].count);
      EXPECT_TRUE(plain[i].rows == traced[i].rows);
      // IoStats equality, field by field.
      EXPECT_EQ(plain[i].metrics.io.scans, traced[i].metrics.io.scans);
      EXPECT_EQ(plain[i].metrics.io.pool_hits,
                traced[i].metrics.io.pool_hits);
      EXPECT_EQ(plain[i].metrics.io.disk_reads,
                traced[i].metrics.io.disk_reads);
      EXPECT_EQ(plain[i].metrics.io.rescans, traced[i].metrics.io.rescans);
      EXPECT_EQ(plain[i].metrics.io.bytes_read,
                traced[i].metrics.io.bytes_read);
      EXPECT_DOUBLE_EQ(plain[i].metrics.io.io_seconds,
                       traced[i].metrics.io.io_seconds);
      EXPECT_DOUBLE_EQ(plain[i].metrics.io.decode_seconds,
                       traced[i].metrics.io.decode_seconds);
    }
  }
}

// ------------------------------------------------------- overhead guard --

// The disabled-tracing path must not open spans or construct sinks at all
// (and therefore pays zero tracing allocations per query): the accounting
// counters mirror BitvectorCopyStats-style zero-copy proofs.
TEST_F(ObservabilityServiceTest, DisabledTracingOpensZeroSpans) {
  VirtualClock clock;
  QueryService service(&*index_, DeterministicService(&clock));

  TraceSink::ResetAccounting();
  for (uint32_t lo = 0; lo < 8; ++lo) {
    QueryResult r =
        service.Submit(ServiceQuery::Interval(IntervalQuery{lo, lo + 3, false}))
            .get();
    ASSERT_TRUE(r.status.ok());
  }
  service.Drain();
  EXPECT_EQ(TraceSink::SinksCreated(), 0u);
  EXPECT_EQ(TraceSink::SpansStarted(), 0u);

  // Control: one traced query registers a sink and its spans.
  QueryResult traced =
      service
          .Submit(
              ServiceQuery::Interval(IntervalQuery{0, 3, false}).WithTrace())
          .get();
  ASSERT_TRUE(traced.status.ok());
  EXPECT_EQ(TraceSink::SinksCreated(), 1u);
  EXPECT_EQ(TraceSink::SpansStarted(), traced.trace->SpanCount());
}

// -------------------------------------------------------------- writable --

// Writable-mode observability: durability spans on the write path, the
// delta_merge span on the read path, and the extra metric lines — all
// registered only when the service fronts an IndexSnapshotProvider, so
// the read-only goldens above stay byte-identical.
class WritableObservabilityTest : public ::testing::Test {
 protected:
  std::string FreshDir(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
  }

  std::unique_ptr<WritableBitmapIndex> MakeWritable(const std::string& name) {
    ColumnSpec spec;
    spec.rows = 200;
    spec.cardinality = 8;
    spec.zipf_z = 0.7;
    spec.seed = 5;
    Column column = GenerateZipfColumn(spec);
    IndexConfig config;
    config.encoding = EncodingKind::kEquality;
    auto created = WritableBitmapIndex::Create(FreshDir(name), column, config);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return std::move(created).value();
  }

  // 4 inserts + 1 update + 1 delete = 6 ops.
  UpdateBatch SixOpBatch() {
    UpdateBatch b;
    b.inserts = {1, 3, 0, 7};
    b.updates = {{2, 0, 5}};
    b.deletes = {9};
    return b;
  }

  ServiceOptions DeterministicService(ClockInterface* clock) const {
    ServiceOptions options;
    options.num_workers = 1;
    options.queue_capacity = 64;
    options.cache_shards = 2;
    options.clock = clock;
    return options;
  }
};

TEST_F(WritableObservabilityTest, WriteSideSpansCarryDurabilityTags) {
  std::unique_ptr<WritableBitmapIndex> index = MakeWritable("obs_spans");
  VirtualClock clock;

  // ApplyBatch under a caller-owned sink: one wal_append span whose bytes
  // tag is exactly what the durability counter accumulated.
  TraceSink write_sink(&clock, "write");
  ASSERT_TRUE(index->ApplyBatch(SixOpBatch(), &write_sink).ok());
  TraceSpan write_root = write_sink.Finish();
  const TraceSpan* append = write_root.Find("wal_append");
  ASSERT_NE(append, nullptr) << write_root.Render();
  EXPECT_EQ(append->TagValue("seq"), "1");
  EXPECT_EQ(append->TagValue("ops"), "6");
  EXPECT_EQ(append->TagValue("bytes"),
            std::to_string(index->durability().wal_bytes));

  // Compact under a sink: compact wraps fold (tagged with the overlay
  // size), the checkpoint commit, and the WAL truncation, in that order.
  TraceSink compact_sink(&clock, "maintenance");
  ASSERT_TRUE(index->Compact(&compact_sink).ok());
  TraceSpan compact_root = compact_sink.Finish();
  const TraceSpan* compact = compact_root.Find("compact");
  ASSERT_NE(compact, nullptr) << compact_root.Render();
  ASSERT_EQ(compact->children.size(), 3u);
  EXPECT_EQ(compact->children[0].name, "fold");
  EXPECT_EQ(compact->children[0].TagValue("delta_ops"), "6");
  EXPECT_EQ(compact->children[1].name, "checkpoint");
  EXPECT_EQ(compact->children[1].TagValue("seq"), "1");
  EXPECT_EQ(compact->children[2].name, "wal_truncate");
}

TEST_F(WritableObservabilityTest, DeltaMergeSpanTracksOverlayLifecycle) {
  std::unique_ptr<WritableBitmapIndex> index = MakeWritable("obs_merge");
  // Delete-free batch: a tombstone would ride along after compaction and
  // keep the merge stage alive; inserts and updates fold away completely.
  UpdateBatch batch;
  batch.inserts = {1, 3, 0, 7};
  batch.updates = {{2, 0, 5}};
  ASSERT_TRUE(index->ApplyBatch(std::move(batch)).ok());

  VirtualClock clock;
  QueryService service(index.get(), DeterministicService(&clock));

  // Overlay non-trivial: the traced eval carries a delta_merge span whose
  // tags are the override/append workload the merge visited.
  QueryResult merged =
      service
          .Submit(ServiceQuery::Interval(IntervalQuery{0, 7, false})
                      .WithTrace())
          .get();
  ASSERT_TRUE(merged.status.ok()) << merged.status.ToString();
  ASSERT_NE(merged.trace, nullptr);
  const TraceSpan* merge = merged.trace->Find("delta_merge");
  ASSERT_NE(merge, nullptr) << merged.trace->Render();
  EXPECT_EQ(merge->TagValue("overrides"), "1");
  EXPECT_EQ(merge->TagValue("appended"), "4");

  // After compaction the overlay is trivial again and the merge stage
  // disappears from the trace; the answer must not change.
  ASSERT_TRUE(service.CompactNow().ok());
  QueryResult folded =
      service
          .Submit(ServiceQuery::Interval(IntervalQuery{0, 7, false})
                      .WithTrace())
          .get();
  ASSERT_TRUE(folded.status.ok()) << folded.status.ToString();
  ASSERT_NE(folded.trace, nullptr);
  EXPECT_EQ(folded.trace->Find("delta_merge"), nullptr)
      << folded.trace->Render();
  EXPECT_TRUE(merged.rows == folded.rows);  // merge and fold agree
}

TEST_F(WritableObservabilityTest, WritableMetricsAppearOnlyInWritableMode) {
  std::unique_ptr<WritableBitmapIndex> index = MakeWritable("obs_metrics");
  VirtualClock clock;
  QueryService service(index.get(), DeterministicService(&clock));

  ASSERT_TRUE(index->ApplyBatch(SixOpBatch()).ok());

  // The durability gauges reflect the provider at export time.
  std::string text = service.ExportMetrics(MetricsFormat::kText);
  EXPECT_NE(text.find("compactions_shed: 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("wal_appends: 1.000000\n"), std::string::npos);
  EXPECT_NE(text.find("recovered_batches: 0.000000\n"), std::string::npos);
  EXPECT_NE(text.find("truncated_tail_records: 0.000000\n"),
            std::string::npos);
  EXPECT_NE(text.find("compactions: 0.000000\n"), std::string::npos);
  EXPECT_NE(text.find("delta_rows: 6.000000\n"), std::string::npos);
  EXPECT_NE(text.find("wal_bytes: "), std::string::npos);

  ASSERT_TRUE(service.CompactNow().ok());
  text = service.ExportMetrics(MetricsFormat::kText);
  EXPECT_NE(text.find("compactions: 1.000000\n"), std::string::npos) << text;
  EXPECT_NE(text.find("delta_rows: 0.000000\n"), std::string::npos);

  const std::string json = service.ExportMetrics(MetricsFormat::kJson);
  EXPECT_NE(json.find("\"compactions\":1.000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"compactions_shed\":0"), std::string::npos);

  // A read-only service never registers the durability metrics — the
  // fresh-service golden above depends on it; double-check here.
  ColumnSpec spec;
  spec.rows = 100;
  spec.cardinality = 8;
  Column column = GenerateZipfColumn(spec);
  BitmapIndex read_only = BuildIndex(column, IndexConfig{}).value();
  VirtualClock ro_clock;
  QueryService ro_service(&read_only, DeterministicService(&ro_clock));
  const std::string ro_text = ro_service.ExportMetrics(MetricsFormat::kText);
  EXPECT_EQ(ro_text.find("wal_appends"), std::string::npos);
  EXPECT_EQ(ro_text.find("delta_rows"), std::string::npos);
  EXPECT_EQ(ro_text.find("compactions"), std::string::npos);
}

TEST_F(WritableObservabilityTest, BackgroundCompactionShedsUnderOpenBreaker) {
  std::unique_ptr<WritableBitmapIndex> index = MakeWritable("obs_shed");

  // Real clock (the compaction loop sleeps on it), tight interval, and a
  // breaker tripped by fetch failures: the loop must skip folding and
  // count the sheds instead of competing with an ailing store for I/O.
  FaultInjectorOptions fault_opts;
  fault_opts.unavailable_first_attempts = 1000000;  // every fetch fails
  FaultInjector injector(fault_opts);

  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 64;
  options.cache_shards = 2;
  options.fault_injector = &injector;
  options.max_fetch_retries = 0;
  options.compaction_interval_seconds = 1e-3;
  options.brownout.window = 4;
  options.brownout.min_samples = 1;   // one failure opens the breaker
  options.brownout.open_threshold = 1.0;
  options.brownout.open_seconds = 60.0;  // stays open for the whole test
  QueryService service(index.get(), options);

  // Trip the breaker with a query whose fetches all fail. (A sub-range:
  // the full domain rewrites to a fetch-free expression.)
  QueryResult r =
      service.Submit(ServiceQuery::Interval(IntervalQuery{1, 5, false})).get();
  EXPECT_EQ(r.status.code(), Status::Code::kUnavailable)
      << r.status.ToString();

  // Only now make work for the compactor: with the breaker open, every
  // tick must shed the fold instead of running it.
  ASSERT_TRUE(index->ApplyBatch(SixOpBatch()).ok());

  // The loop fires every millisecond; wait until it sheds at least once.
  const std::string target = "compactions_shed: ";
  for (int i = 0; i < 2000; ++i) {
    const std::string text = service.ExportMetrics(MetricsFormat::kText);
    const size_t pos = text.find(target);
    ASSERT_NE(pos, std::string::npos);
    if (text[pos + target.size()] != '0') break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string text = service.ExportMetrics(MetricsFormat::kText);
  const size_t pos = text.find(target);
  EXPECT_NE(text[pos + target.size()], '0') << text;
  // Nothing was folded: the overlay still holds the batch.
  EXPECT_NE(text.find("compactions: 0.000000\n"), std::string::npos);
  EXPECT_EQ(index->PendingDeltaOps(), 6u);
}

}  // namespace
}  // namespace bix
