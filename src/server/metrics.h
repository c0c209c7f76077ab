#ifndef BIX_SERVER_METRICS_H_
#define BIX_SERVER_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "storage/io_stats.h"

namespace bix {

// Per-query cost breakdown recorded by a query-service worker: wall-clock
// time spent in each pipeline stage plus the storage-layer counters of this
// query's fetches (an IoStats block private to the query, merged into the
// service aggregate with IoStats::Add when the query completes).
struct QueryMetrics {
  double queue_seconds = 0.0;    // admission to worker pickup
  double rewrite_seconds = 0.0;  // membership + interval rewrite
  double eval_seconds = 0.0;     // expression evaluation incl. fetches
  IoStats io;

  // End-to-end latency as the client saw it.
  double total_seconds() const {
    return queue_seconds + rewrite_seconds + eval_seconds;
  }
};

// Fixed-footprint latency histogram with logarithmic buckets spanning
// 1 microsecond to ~1 hour (half-power-of-two resolution, ~±19% relative
// error on reported quantiles). Plain value type: single-writer or
// externally synchronized; the metrics registry stripes instances across
// locks for concurrent recording and merges them at snapshot time, and
// ServiceStats carries one merged copy per snapshot.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(double seconds);
  // Bucket-wise merge: the single histogram-combine primitive. Everything
  // that joins two histograms (the registry's striped snapshot) routes
  // through here, so a new member added to this class has exactly one
  // merge to update (and the sizeof tripwire below fails until it is).
  void Add(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  // Sum of recorded values (exporter means; quantiles stay bucketed).
  double sum_seconds() const { return sum_seconds_; }
  // Upper edge of the bucket containing the q-quantile (q in [0, 1]);
  // 0 when empty.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }

 private:
  static int BucketFor(double seconds);
  static double BucketUpperEdge(int bucket);

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_seconds_ = 0.0;
};

static_assert(sizeof(LatencyHistogram) ==
                  LatencyHistogram::kBuckets * sizeof(uint64_t) +
                      sizeof(uint64_t) + sizeof(double),
              "LatencyHistogram gained a member; update Add() to merge it");

// Point-in-time snapshot of service-level aggregates, returned by
// QueryService::Stats(). All counters are cumulative since service start.
struct ServiceStats {
  uint64_t submitted = 0;  // Submit/TrySubmit calls (incl. invalid ones)
  // Admission-edge rejections, split so the brownout breaker's inputs stay
  // unambiguous: a malformed query says nothing about load, a full queue
  // says everything.
  uint64_t rejected_invalid = 0;   // validation failures (bad bounds, empty)
  uint64_t rejected_overload = 0;  // queue full / service shut down
  uint64_t completed = 0;  // queries fully evaluated (incl. degraded ones)

  // Failure-model counters (DESIGN.md section 10). A "degraded" query ran
  // to completion but resolved with a non-OK status (storage corruption,
  // retry budget exhausted); it is also counted in `completed`.
  uint64_t retries = 0;               // fetch retries after Unavailable
  uint64_t corruptions_detected = 0;  // checksum/decode failures surfaced
  uint64_t quarantined_bitmaps = 0;   // distinct keys quarantined
  uint64_t degraded_queries = 0;      // completed with a non-OK status

  // Time-and-overload counters (DESIGN.md section 11).
  uint64_t deadline_exceeded = 0;  // resolved kDeadlineExceeded (any stage)
  uint64_t cancelled = 0;          // resolved kCancelled (any stage)
  // Queue-side sheds: tasks resolved *without executing* — deadline already
  // expired at dequeue, cancelled while queued, or dropped by the brownout
  // breaker when it opened.
  uint64_t shed_in_queue = 0;
  uint64_t breaker_opens = 0;          // closed/half-open -> open transitions
  double breaker_open_seconds = 0.0;   // cumulative time not closed
  uint32_t breaker_state = 0;          // 0 closed, 1 open, 2 half-open

  uint64_t rejected_total() const {
    return rejected_invalid + rejected_overload;
  }

  IoStats io;  // roll-up of per-query IoStats blocks
  double queue_seconds_total = 0.0;
  double rewrite_seconds_total = 0.0;
  double eval_seconds_total = 0.0;
  LatencyHistogram latency;  // per-query total_seconds()

  // Shared-cache effectiveness across all completed queries.
  double CacheHitRate() const {
    return io.scans == 0
               ? 0.0
               : static_cast<double>(io.pool_hits) / static_cast<double>(io.scans);
  }

  std::string ToString() const;  // one-line human-readable summary
};

}  // namespace bix

#endif  // BIX_SERVER_METRICS_H_
