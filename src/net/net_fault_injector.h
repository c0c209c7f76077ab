#ifndef BIX_NET_NET_FAULT_INJECTOR_H_
#define BIX_NET_NET_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>

#include "util/check.h"
#include "util/rng.h"

namespace bix {

// Socket-level chaos for the serving tier, mirroring the storage
// FaultInjector's contract: every decision is a pure function of
// (seed, connection id, operation index), so a chaos run replays exactly —
// the same client sends get chunked, corrupted, reset, or stalled at the
// same points no matter how threads interleave. The *client* applies these
// faults on its send path; the server under test must survive whatever
// arrives (reassemble dribbled frames, reject corrupted ones with a typed
// error, cancel work for reset peers) without hanging or tearing a frame.
struct NetFaultOptions {
  uint64_t seed = 1;
  // Probabilities of each fault per frame send; at most one fires (they
  // partition [0, 1) in this order).
  double chunk_prob = 0.0;    // dribble the frame in tiny partial writes
  double corrupt_prob = 0.0;  // flip one byte in flight
  double reset_prob = 0.0;    // abort the connection mid-frame (RST)
  double stall_prob = 0.0;    // pause before sending (slow-peer model)
  // Chunked sends use pieces of 1..max_chunk_bytes.
  uint32_t max_chunk_bytes = 7;
  // Real-time pause for kStall (client-side sleep; keep small in tests).
  double stall_seconds = 0.02;
};

class NetFaultInjector {
 public:
  enum class SendFault : uint8_t { kNone, kChunk, kCorrupt, kReset, kStall };

  struct Counters {
    uint64_t sends = 0;
    uint64_t chunked = 0;
    uint64_t corrupted = 0;
    uint64_t resets = 0;
    uint64_t stalls = 0;
  };

  explicit NetFaultInjector(NetFaultOptions options) : options_(options) {
    BIX_CHECK_MSG(options.chunk_prob >= 0.0 && options.corrupt_prob >= 0.0 &&
                      options.reset_prob >= 0.0 && options.stall_prob >= 0.0 &&
                      options.chunk_prob + options.corrupt_prob +
                              options.reset_prob + options.stall_prob <=
                          1.0,
                  "net fault probabilities must be >= 0 and sum to <= 1");
    BIX_CHECK_MSG(options.max_chunk_bytes > 0, "max_chunk_bytes must be > 0");
  }

  // The fault (if any) for send number `op` on connection `conn_id`.
  SendFault OnSend(uint64_t conn_id, uint64_t op) {
    const double u = Draw(conn_id, op, /*salt=*/0x5E4D);
    SendFault f = SendFault::kNone;
    double edge = options_.chunk_prob;
    if (u < edge) {
      f = SendFault::kChunk;
    } else if (u < (edge += options_.corrupt_prob)) {
      f = SendFault::kCorrupt;
    } else if (u < (edge += options_.reset_prob)) {
      f = SendFault::kReset;
    } else if (u < (edge += options_.stall_prob)) {
      f = SendFault::kStall;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.sends;
    switch (f) {
      case SendFault::kChunk: ++counters_.chunked; break;
      case SendFault::kCorrupt: ++counters_.corrupted; break;
      case SendFault::kReset: ++counters_.resets; break;
      case SendFault::kStall: ++counters_.stalls; break;
      case SendFault::kNone: break;
    }
    return f;
  }

  // Deterministic byte index to flip for a kCorrupt send.
  uint64_t CorruptByteIndex(uint64_t conn_id, uint64_t op,
                            uint64_t frame_len) const {
    if (frame_len == 0) return 0;
    return Hash(conn_id, op, 0xC0DE) % frame_len;
  }

  // Deterministic chunk length (1..max_chunk_bytes) for piece `piece` of a
  // kChunk send.
  uint64_t ChunkLength(uint64_t conn_id, uint64_t op, uint64_t piece) const {
    return 1 + Hash(conn_id, op ^ (piece * 0x9E37ull), 0xC4A7) %
                   options_.max_chunk_bytes;
  }

  // Deterministic prefix length (possibly mid-frame) sent before a
  // kReset abort.
  uint64_t ResetPrefixLength(uint64_t conn_id, uint64_t op,
                             uint64_t frame_len) const {
    return Hash(conn_id, op, 0x4E5E7) % (frame_len + 1);
  }

  double stall_seconds() const { return options_.stall_seconds; }

  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

 private:
  uint64_t Hash(uint64_t conn_id, uint64_t op, uint64_t salt) const {
    return SplitMix64(options_.seed ^ SplitMix64(conn_id ^ SplitMix64(op)) ^
                      salt);
  }

  double Draw(uint64_t conn_id, uint64_t op, uint64_t salt) const {
    return UnitDraw(Hash(conn_id, op, salt));
  }

  const NetFaultOptions options_;
  mutable std::mutex mu_;
  Counters counters_;  // guarded by mu_
};

}  // namespace bix

#endif  // BIX_NET_NET_FAULT_INJECTOR_H_
