#include "storage/fault_injector.h"

#include "util/rng.h"

namespace bix {
namespace {

// Uniform double in [0, 1) from (seed, key, attempt) — the whole fault
// schedule is this one hash.
double UniformDraw(uint64_t seed, uint64_t packed_key, uint64_t attempt) {
  return UnitDraw(
      SplitMix64(seed ^ SplitMix64(packed_key ^ SplitMix64(attempt))));
}

}  // namespace

FaultInjector::FaultInjector(FaultInjectorOptions options)
    : options_(options) {
  BIX_CHECK_MSG(options.unavailable_prob >= 0.0 &&
                    options.bit_flip_prob >= 0.0 &&
                    options.latency_spike_prob >= 0.0 &&
                    options.unavailable_prob + options.bit_flip_prob +
                            options.latency_spike_prob <=
                        1.0,
                "fault probabilities must be >= 0 and sum to <= 1");
  BIX_CHECK_MSG(options.short_write_prob >= 0.0 &&
                    options.flush_fail_prob >= 0.0 &&
                    options.rename_fail_prob >= 0.0 &&
                    options.short_write_prob + options.flush_fail_prob +
                            options.rename_fail_prob <=
                        1.0,
                "write fault probabilities must be >= 0 and sum to <= 1");
  BIX_CHECK_MSG(
      options.dir_fsync_fail_prob >= 0.0 && options.dir_fsync_fail_prob <= 1.0,
      "dir fsync fault probability must be in [0, 1]");
}

FaultInjector::Fault FaultInjector::OnRead(BitmapKey key) {
  uint64_t attempt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt = attempts_[key.Packed()]++;
    ++counters_.reads;
  }
  Fault fault = Fault::kNone;
  if (attempt < options_.unavailable_first_attempts) {
    fault = Fault::kUnavailable;
  } else {
    const double u = UniformDraw(options_.seed, key.Packed(), attempt);
    double edge = options_.unavailable_prob;
    if (u < edge) {
      fault = Fault::kUnavailable;
    } else if (u < (edge += options_.bit_flip_prob)) {
      fault = Fault::kBitFlip;
    } else if (u < (edge += options_.latency_spike_prob)) {
      fault = Fault::kLatencySpike;
    }
  }
  if (fault != Fault::kNone) {
    std::lock_guard<std::mutex> lock(mu_);
    switch (fault) {
      case Fault::kUnavailable:
        ++counters_.unavailable;
        break;
      case Fault::kBitFlip:
        ++counters_.bit_flips;
        break;
      case Fault::kLatencySpike:
        ++counters_.latency_spikes;
        break;
      case Fault::kNone:
        break;
    }
  }
  return fault;
}

FaultInjector::WriteFault FaultInjector::OnWrite(WriteOp op) {
  uint64_t attempt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt = write_attempts_[static_cast<uint8_t>(op)]++;
    ++counters_.writes;
  }
  // Which fault class can hit this op, and its deterministic prefix.
  WriteFault applicable = WriteFault::kNone;
  uint32_t first_attempts = 0;
  double prob = 0.0;
  switch (op) {
    case WriteOp::kWalAppend:
      applicable = WriteFault::kShortWrite;
      first_attempts = options_.short_write_first_attempts;
      prob = options_.short_write_prob;
      break;
    case WriteOp::kWalFlush:
      applicable = WriteFault::kFailFlush;
      first_attempts = options_.flush_fail_first_attempts;
      prob = options_.flush_fail_prob;
      break;
    case WriteOp::kRename:
    case WriteOp::kWalTruncate:
      applicable = WriteFault::kFailRename;
      first_attempts = options_.rename_fail_first_attempts;
      prob = options_.rename_fail_prob;
      break;
    case WriteOp::kDirFsync:
      applicable = WriteFault::kFailFlush;
      first_attempts = options_.dir_fsync_fail_first_attempts;
      prob = options_.dir_fsync_fail_prob;
      break;
  }
  WriteFault fault = WriteFault::kNone;
  if (attempt < first_attempts) {
    fault = applicable;
  } else {
    // Salt keeps the write schedule independent of the read schedule.
    const uint64_t packed = 0x57121BEEFull ^ static_cast<uint8_t>(op);
    const double u = UniformDraw(options_.seed, packed, attempt);
    if (u < prob) fault = applicable;
  }
  if (fault != WriteFault::kNone) {
    std::lock_guard<std::mutex> lock(mu_);
    switch (fault) {
      case WriteFault::kShortWrite:
        ++counters_.short_writes;
        break;
      case WriteFault::kFailFlush:
        ++counters_.flush_failures;
        break;
      case WriteFault::kFailRename:
        ++counters_.rename_failures;
        break;
      case WriteFault::kNone:
        break;
    }
  }
  return fault;
}

uint64_t FaultInjector::ShortWriteLength(uint64_t total_bytes,
                                         uint64_t attempt) const {
  if (total_bytes == 0) return 0;
  const uint64_t h =
      SplitMix64(options_.seed ^ 0x5403717EBull ^ SplitMix64(attempt));
  return h % total_bytes;
}

void FaultInjector::CorruptPayload(BitmapKey key,
                                   std::vector<uint8_t>* bytes) const {
  if (bytes->empty()) return;
  const uint64_t bit =
      SplitMix64(options_.seed ^ 0xB17F11Bull ^ SplitMix64(key.Packed())) %
      (bytes->size() * 8);
  (*bytes)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

FaultInjector::Counters FaultInjector::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace bix
