#ifndef BIX_SERVER_METRICS_REGISTRY_H_
#define BIX_SERVER_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "server/metrics.h"

namespace bix {

// A monotonically increasing counter. Hot-path updates are single relaxed
// atomic adds — no registry lock is ever taken after registration, so
// workers bump counters without contending with each other or with
// exporters.
class MetricsCounter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A LatencyHistogram striped across independently locked copies: each
// recording thread hashes to one stripe, so concurrent workers recording
// per-stage latencies serialize only against threads sharing their stripe
// (1/kStripes of the old single-mutex contention). Snapshots merge the
// stripes through LatencyHistogram::Add — the one histogram-combine
// primitive — into a plain value.
class StripedLatencyHistogram {
 public:
  static constexpr size_t kStripes = 8;

  void Record(double seconds);
  LatencyHistogram Merged() const;

 private:
  // Cache-line separation so stripes don't false-share.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    LatencyHistogram histogram;
  };
  std::array<Stripe, kStripes> stripes_;
};

// A named registry of counters, read gauges, and striped latency
// histograms with varz-style text and JSON exporters. Get* registers on
// first use and returns a stable pointer; callers cache the pointer at
// setup time and update through it lock-free (counters) or stripe-locked
// (histograms) — the registry mutex guards only registration and dumps.
// A gauge holds no value of its own: it is a read of the state that owns
// the number, called when a dump walks the registry. Names sort
// lexicographically in both exporters, so output is deterministic for a
// deterministic workload (the observability suite pins DumpText/DumpJson
// against golden strings under a VirtualClock).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricsCounter* GetCounter(const std::string& name);
  // Registers (or replaces) the gauge `name`. Every dump calls `read`,
  // outside the registry mutex; whatever it reads must outlive the
  // registry.
  void RegisterGauge(const std::string& name, std::function<double()> read);
  StripedLatencyHistogram* GetHistogram(const std::string& name);

  // One "name: value" line per metric, sorted by name; histograms expand
  // to _count/_sum_us/_p50_us/_p95_us/_p99_us lines.
  std::string DumpText() const;
  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum_us,
  // p50_us,p95_us,p99_us}}} with sorted keys.
  std::string DumpJson() const;

 private:
  // Each gauge's name and formatted value, in name order. The reads take
  // their owners' locks, so they run after the registry mutex is
  // released.
  std::vector<std::pair<std::string, std::string>> ReadGauges() const;

  mutable std::mutex mu_;  // registration + dump walks; never metric updates
  std::map<std::string, std::unique_ptr<MetricsCounter>> counters_;
  std::map<std::string, std::function<double()>> gauges_;
  std::map<std::string, std::unique_ptr<StripedLatencyHistogram>> histograms_;
};

// Bounded top-K slow-query log: keeps the K slowest completed queries seen
// so far, each with its latency, a one-line description, its resolution
// status, and — when the query was traced — the rendered span tree, so the
// exporter can show *where* the slowest queries spent their time without
// retaining every trace. Thread-safe; the fast path (query not slower than
// the current K-th) is one relaxed atomic load, no lock.
class SlowQueryLog {
 public:
  struct Entry {
    double total_seconds = 0.0;
    std::string description;   // e.g. "interval [3,9]" / "membership k=4"
    std::string status;        // "OK" or the non-OK Status rendering
    std::string trace_render;  // TraceSpan::Render(); empty when untraced
  };

  explicit SlowQueryLog(size_t capacity) : capacity_(capacity) {}

  void MaybeAdd(Entry entry);
  // Cheap pre-check (one relaxed load, no lock) for callers that must
  // build an Entry — strings, a rendered trace — only when it could be
  // admitted. May say yes spuriously under concurrent adds; MaybeAdd
  // re-checks under the lock.
  bool WouldAdmit(double total_seconds) const {
    return capacity_ > 0 &&
           total_seconds > floor_seconds_.load(std::memory_order_relaxed);
  }
  // Slowest first; ties keep insertion order.
  std::vector<Entry> Snapshot() const;
  // Human-readable block for ExportMetrics: one header line per entry with
  // the trace tree (if any) indented beneath it.
  std::string Render() const;

 private:
  const size_t capacity_;
  // Admission threshold: the latency of the fastest retained entry once
  // the log is full. Queries at or below it return without locking.
  std::atomic<double> floor_seconds_{-1.0};
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // sorted slowest-first, size <= capacity_
};

}  // namespace bix

#endif  // BIX_SERVER_METRICS_REGISTRY_H_
