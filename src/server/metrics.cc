#include "server/metrics.h"

#include <cmath>

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

}  // namespace bix
