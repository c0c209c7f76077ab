// Concurrent serving: stand up a QueryService over one immutable bitmap
// index and push a mixed batch of interval/membership queries through a
// worker pool sharing a sharded bitmap cache. Shows the three serving-layer
// features — batch execution, admission control, and per-query metrics
// rolled up into the service's metrics registry.
//
//   $ ./concurrent_serving

#include <cstdio>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "workload/column_gen.h"

int main() {
  // A 500k-row Zipf column with an interval-encoded index.
  bix::Column col = bix::GenerateZipfColumn(
      {.rows = 500'000, .cardinality = 100, .zipf_z = 1.0, .seed = 42});
  bix::IndexConfig cfg;
  cfg.encoding = bix::EncodingKind::kInterval;
  bix::BitmapIndex index = bix::BuildIndex(col, cfg).value();

  // Start the service: 4 workers, one shared 1 MB cache in 8 shards.
  bix::ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 64;
  options.buffer_pool_bytes = 1 << 20;
  options.cache_shards = 8;
  bix::Result<std::unique_ptr<bix::QueryService>> served =
      bix::Serve(&index, options);
  if (!served.ok()) {
    std::fprintf(stderr, "serve failed: %s\n",
                 served.status().ToString().c_str());
    return 1;
  }
  bix::QueryService& service = *served.value();

  // A batch of mixed queries, answered in submission order.
  std::vector<bix::ServiceQuery> batch;
  for (uint32_t v = 0; v < 20; ++v) {
    batch.push_back(
        bix::ServiceQuery::Interval(bix::IntervalQuery{v, v + 30, false}));
    batch.push_back(bix::ServiceQuery::Membership({v, v + 7, v + 55}));
  }
  std::vector<bix::QueryResult> results = service.ExecuteBatch(batch);
  for (size_t i = 0; i < results.size(); i += 13) {
    const bix::QueryResult& r = results[i];
    if (!r.status.ok()) {
      std::fprintf(stderr, "query %zu failed: %s\n", i,
                   r.status.ToString().c_str());
      return 1;
    }
    std::printf("query %2zu -> %6llu rows  (queue %.2f ms, eval %.2f ms, "
                "%llu scans, %llu pool hits)\n",
                i, static_cast<unsigned long long>(r.rows.Count()),
                r.metrics.queue_seconds * 1e3, r.metrics.eval_seconds * 1e3,
                static_cast<unsigned long long>(r.metrics.io.scans),
                static_cast<unsigned long long>(r.metrics.io.pool_hits));
  }

  // Malformed queries come back as statuses, not crashes.
  bix::QueryResult bad =
      service.Submit(bix::ServiceQuery::Interval({0, 10'000, false})).get();
  std::printf("out-of-domain query -> %s\n", bad.status.ToString().c_str());

  // Service-level roll-up: counters, the I/O roll-up behind the
  // shared-cache hit rate, latency tails — the service's metrics registry.
  service.Drain();
  std::printf("service metrics:\n%s", service.ExportMetrics().c_str());

  service.Shutdown();
  std::printf("OK\n");
  return 0;
}
