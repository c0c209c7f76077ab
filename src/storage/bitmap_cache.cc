#include "storage/bitmap_cache.h"

#include <optional>

namespace bix {

namespace {

// The miss-path fault switch, run on a simulated disk read of `blob`.
// Consults `injector` (not null) and applies its verdict: an injected
// transient error returns Unavailable; a bit flip returns the
// integrity-checked decode of a corrupted copy of the stored bytes (the
// caller caches nothing, so the pool never holds known-bad bytes); a
// latency spike sleeps on `clock`, cancellable by `cancel`, and lets the
// read proceed. Returns nullopt when the read proceeds.
std::optional<Result<DecodedBitmap>> InjectReadFault(
    FaultInjector* injector, BitmapKey key, const BitmapStore::Blob& blob,
    ClockInterface* clock, const CancelToken* cancel, TraceSink* trace) {
  switch (injector->OnRead(key)) {
    case FaultInjector::Fault::kUnavailable:
      if (trace != nullptr) trace->Tag("fault", "unavailable");
      return Result<DecodedBitmap>(
          Status::Unavailable("injected transient read error"));
    case FaultInjector::Fault::kBitFlip: {
      // A torn page: corrupt a copy of the stored bytes and run the same
      // integrity-checked decode the clean path uses.
      if (trace != nullptr) trace->Tag("fault", "bit_flip");
      BitmapStore::Blob corrupt = blob;
      injector->CorruptPayload(key, &corrupt.bytes);
      TraceScope materialize_span(trace, "materialize");
      return TryMaterializeBlobResident(corrupt);
    }
    case FaultInjector::Fault::kLatencySpike: {
      TraceScope spike_span(trace, "spike");
      clock->SleepFor(injector->latency_spike_seconds(), cancel);
      break;
    }
    case FaultInjector::Fault::kNone:
      break;
  }
  return std::nullopt;
}

}  // namespace

std::string TraceKeyTag(BitmapKey key) {
  return "c" + std::to_string(key.component) + "/s" + std::to_string(key.slot);
}

ShardedBitmapCache::ShardedBitmapCache(const BitmapStore* store,
                                       uint64_t pool_bytes,
                                       uint32_t num_shards, DiskModel disk,
                                       double io_latency_scale,
                                       ClockInterface* clock, PoolForm form)
    : store_(store),
      shard_pool_bytes_(num_shards == 0 ? 0 : pool_bytes / num_shards),
      disk_(disk),
      io_latency_scale_(io_latency_scale),
      clock_(clock != nullptr ? clock : RealClock::Get()),
      form_(form) {
  BIX_CHECK(store != nullptr);
  BIX_CHECK(num_shards > 0);
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Result<DecodedBitmap> ShardedBitmapCache::TryFetchDecoded(
    BitmapKey key, IoStats* stats, const CancelToken* cancel,
    TraceSink* trace) {
  // Fetch-granularity budget check: a query past its deadline (or
  // cancelled) stops here, before paying for a modeled read.
  if (cancel != nullptr) {
    Status budget = cancel->CheckAt(clock_->Now());
    if (!budget.ok()) return budget;
  }
  TraceScope read_span(trace, "read");
  if (trace != nullptr) trace->Tag("key", TraceKeyTag(key));
  ++stats->scans;
  Shard& shard = ShardFor(key);

  // Hit path. In decoded form, hand out the resident handle itself — no
  // payload copy; the shared_ptr keeps the entry's bitmap alive for the
  // query even if it is evicted meanwhile. Cached entries were
  // integrity-checked when inserted, so hits need no re-verification and
  // are never faulted (faults model the disk).
  bool hit = false;
  DecodedBitmap cached;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.resident.find(key);
    if (it != shard.resident.end()) {
      hit = true;
      ++stats->pool_hits;
      ++shard.counters.hits;
      Shard::Entry& e = it->second;
      // Relinks the node in place: a hit allocates nothing, and lru_it
      // stays valid.
      shard.lru.splice(shard.lru.begin(), shard.lru, e.lru_it);
      cached = e.bitmap;
    }
  }
  if (hit && trace != nullptr) trace->Tag("outcome", "hit");
  if (cached.valid()) return cached;

  // A stored-form hit or any miss decodes the blob. The store is immutable
  // after build, so blob access and materialization need no lock; only
  // the accounting and the pool updates take the shard mutex.
  Result<const BitmapStore::Blob*> blob_r = store_->TryGetBlob(key);
  if (!blob_r.ok()) return blob_r.status();
  const BitmapStore::Blob& blob = *blob_r.value();
  const uint64_t stored_bytes = blob.bytes.size();
  const size_t codec = static_cast<size_t>(blob.codec);
  double io_s = 0.0;
  if (!hit) {
    ++stats->disk_reads;
    stats->bytes_read += stored_bytes;
    io_s = disk_.ReadSeconds(stored_bytes);
    stats->io_seconds += io_s;
  }
  // The decode charge is codec-aware: verbatim is free, Roaring pays only
  // the container-parse fraction.
  const double decode_s = disk_.DecodeSeconds(stored_bytes, blob.codec);
  stats->decode_seconds += decode_s;
  ++stats->codec_decodes[codec];
  if (trace != nullptr) {
    if (!hit) {
      trace->Tag("outcome", "miss");
      trace->Tag("bytes", stored_bytes);
    }
    trace->Tag("codec", CodecName(blob.codec));
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.counters.codec_decodes[codec];
    if (!hit) {
      ++shard.counters.misses;
      if (!shard.read_before.insert(key.Packed()).second) ++stats->rescans;
    }
  }
  if (io_latency_scale_ > 0.0) {
    // The modeled wait is split so the trace attributes disk transfer and
    // decompression separately; the total slept time is unchanged.
    if (!hit) {
      TraceScope io_span(trace, "io");
      clock_->SleepFor(io_s * io_latency_scale_, cancel);
    }
    if (decode_s > 0.0) {
      TraceScope decode_span(trace, "decode");
      clock_->SleepFor(decode_s * io_latency_scale_, cancel);
    }
  }
  // The pool never sees a faulted read, so cached state stays verified.
  if (!hit && injector_ != nullptr) {
    std::optional<Result<DecodedBitmap>> faulted =
        InjectReadFault(injector_, key, blob, clock_, cancel, trace);
    if (faulted.has_value()) return *std::move(faulted);
  }
  Result<DecodedBitmap> decoded = [&] {
    TraceScope materialize_span(trace, "materialize");
    return TryMaterializeBlobResident(blob);
  }();
  // Only bytes that passed their integrity check stay in the pool: a
  // failed decode evicts a resident key and never admits a missed one.
  if (!decoded.ok()) {
    if (hit) {
      std::lock_guard<std::mutex> lock(shard.mu);
      Evict(&shard, key);
    }
  } else if (!hit) {
    std::lock_guard<std::mutex> lock(shard.mu);
    Insert(&shard, key, decoded.value(), stored_bytes);
  }
  return decoded;
}

void ShardedBitmapCache::DropPool() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->resident.clear();
    shard->used_bytes = 0;
    shard->read_before.clear();
  }
}

uint64_t ShardedBitmapCache::pool_bytes_used() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->used_bytes;
  }
  return total;
}

ShardedBitmapCache::Counters ShardedBitmapCache::TotalCounters() const {
  Counters total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->counters.hits;
    total.misses += shard->counters.misses;
    for (size_t i = 0; i < kNumCodecs; ++i) {
      total.codec_decodes[i] += shard->counters.codec_decodes[i];
    }
  }
  return total;
}

void ShardedBitmapCache::Insert(Shard* shard, BitmapKey key,
                                const DecodedBitmap& bitmap,
                                uint64_t stored_bytes) {
  const bool stored = form_ == PoolForm::kStored;
  const uint64_t bytes = stored ? stored_bytes : bitmap.resident_bytes();
  if (bytes > shard_pool_bytes_) return;       // too big; read-through
  if (shard->resident.count(key) > 0) return;  // raced with another miss
  while (shard->used_bytes + bytes > shard_pool_bytes_ &&
         !shard->lru.empty()) {
    Evict(shard, shard->lru.back());
  }
  shard->lru.push_front(key);
  shard->resident.emplace(
      key, Shard::Entry{shard->lru.begin(), bytes,
                        stored ? DecodedBitmap() : bitmap});
  shard->used_bytes += bytes;
}

void ShardedBitmapCache::Evict(Shard* shard, BitmapKey key) {
  auto it = shard->resident.find(key);
  if (it == shard->resident.end()) return;
  shard->lru.erase(it->second.lru_it);
  shard->used_bytes -= it->second.charged_bytes;
  shard->resident.erase(it);
}

}  // namespace bix
