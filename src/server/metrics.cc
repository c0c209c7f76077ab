#include "server/metrics.h"

#include <cmath>
#include <cstdio>

namespace bix {

namespace {
// Bucket 0 holds everything below 1us; buckets are half powers of two of a
// microsecond after that, so 63 buckets reach 1us * 2^31 ~ 36 minutes and
// the last bucket holds the tail.
constexpr double kBaseSeconds = 1e-6;
}  // namespace

int LatencyHistogram::BucketFor(double seconds) {
  if (!(seconds > kBaseSeconds)) return 0;
  const int b = 1 + static_cast<int>(2.0 * std::log2(seconds / kBaseSeconds));
  return b >= kBuckets ? kBuckets - 1 : b;
}

double LatencyHistogram::BucketUpperEdge(int bucket) {
  if (bucket <= 0) return kBaseSeconds;
  return kBaseSeconds * std::exp2(0.5 * static_cast<double>(bucket));
}

void LatencyHistogram::Record(double seconds) {
  ++buckets_[static_cast<size_t>(BucketFor(seconds))];
  ++count_;
  sum_seconds_ += seconds;
}

void LatencyHistogram::Add(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_seconds_ += other.sum_seconds_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile observation (1-based, nearest-rank method).
  const uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank && seen > 0) return BucketUpperEdge(i);
  }
  return BucketUpperEdge(kBuckets - 1);
}

std::string ServiceStats::ToString() const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "submitted=%llu rejected_invalid=%llu rejected_overload=%llu "
      "completed=%llu hit_rate=%.3f p50=%.3fms p95=%.3fms p99=%.3fms "
      "retries=%llu corruptions=%llu quarantined=%llu degraded=%llu "
      "deadline_exceeded=%llu cancelled=%llu shed_in_queue=%llu "
      "breaker_opens=%llu breaker_open_s=%.3f breaker_state=%u",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(rejected_invalid),
      static_cast<unsigned long long>(rejected_overload),
      static_cast<unsigned long long>(completed), CacheHitRate(),
      latency.p50() * 1e3, latency.p95() * 1e3, latency.p99() * 1e3,
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(corruptions_detected),
      static_cast<unsigned long long>(quarantined_bitmaps),
      static_cast<unsigned long long>(degraded_queries),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(shed_in_queue),
      static_cast<unsigned long long>(breaker_opens), breaker_open_seconds,
      breaker_state);
  return std::string(buf);
}

}  // namespace bix
