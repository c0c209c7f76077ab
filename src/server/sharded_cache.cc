#include "server/sharded_cache.h"

namespace bix {

ShardedBitmapCache::ShardedBitmapCache(const BitmapStore* store,
                                       uint64_t pool_bytes,
                                       uint32_t num_shards, DiskModel disk,
                                       double io_latency_scale,
                                       ClockInterface* clock)
    : store_(store),
      shard_pool_bytes_(num_shards == 0 ? 0 : pool_bytes / num_shards),
      disk_(disk),
      io_latency_scale_(io_latency_scale),
      clock_(clock != nullptr ? clock : RealClock::Get()) {
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

  // Hit path: hand out the resident handle itself — no payload copy; the
  // shared_ptr keeps the entry's bitmap alive for the query even if it is
  // evicted meanwhile. Cached entries were integrity-checked when
  // inserted, so hits need no re-verification and are never faulted
  // (faults model the disk).
  DecodedBitmap cached;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.resident.find(key);
    if (it != shard.resident.end()) {
      ++stats->pool_hits;
      ++shard.counters.hits;
      Shard::Entry& e = it->second;
      // Relinks the node in place: a hit allocates nothing, and lru_it
      // stays valid.
      shard.lru.splice(shard.lru.begin(), shard.lru, e.lru_it);
      cached = e.bitmap;
    }
  }
  if (cached.valid()) {
    if (trace != nullptr) trace->Tag("outcome", "hit");
    return cached;
  }

  // Miss path. The store is immutable after build, so blob access and
  // materialization need no lock; only the accounting and the insert take
  // the shard mutex.
  Result<const BitmapStore::Blob*> blob_r = store_->TryGetBlob(key);
  if (!blob_r.ok()) return blob_r.status();
  const BitmapStore::Blob& blob = *blob_r.value();
  const uint64_t stored_bytes = blob.bytes.size();
  ++stats->disk_reads;
  stats->bytes_read += stored_bytes;
  const double io_s = disk_.ReadSeconds(stored_bytes);
  stats->io_seconds += io_s;
  const double decode_s = disk_.DecodeSeconds(stored_bytes, blob.codec);
  stats->decode_seconds += decode_s;
  ++stats->codec_decodes[static_cast<size_t>(blob.codec)];
  if (trace != nullptr) {
    trace->Tag("outcome", "miss");
    trace->Tag("bytes", stored_bytes);
    trace->Tag("codec", CodecName(blob.codec));
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.counters.misses;
    ++shard.counters.codec_decodes[static_cast<size_t>(blob.codec)];
    if (!shard.read_before.insert(key.Packed()).second) ++stats->rescans;
  }
  if (io_latency_scale_ > 0.0) {
    // The modeled wait is split so the trace attributes disk transfer and
    // decompression separately; the total slept time is unchanged.
    {
      TraceScope io_span(trace, "io");
      clock_->SleepFor(io_s * io_latency_scale_, cancel);
    }
    if (decode_s > 0.0) {
      TraceScope decode_span(trace, "decode");
      clock_->SleepFor(decode_s * io_latency_scale_, cancel);
    }
  }
  // The shard never sees a faulted read, so cached state stays verified.
  if (injector_ != nullptr) {
    std::optional<Result<DecodedBitmap>> faulted =
        InjectReadFault(injector_, key, blob, clock_, cancel, trace);
    if (faulted.has_value()) return *std::move(faulted);
  }
  DecodedBitmap bitmap;
  {
    TraceScope materialize_span(trace, "materialize");
    Result<DecodedBitmap> decoded = TryMaterializeBlobResident(blob);
    if (!decoded.ok()) return decoded.status();
    bitmap = std::move(decoded).value();
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    Insert(&shard, key, bitmap);
  }
  return bitmap;
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
                                DecodedBitmap bitmap) {
  const uint64_t bytes = bitmap.resident_bytes();
  if (bytes > shard_pool_bytes_) return;       // too big; read-through
  if (shard->resident.count(key) > 0) return;  // raced with another miss
  while (shard->used_bytes + bytes > shard_pool_bytes_ &&
         !shard->lru.empty()) {
    BitmapKey victim = shard->lru.back();
    shard->lru.pop_back();
    auto vit = shard->resident.find(victim);
    shard->used_bytes -= vit->second.resident_bytes;
    shard->resident.erase(vit);
  }
  shard->lru.push_front(key);
  shard->resident.emplace(
      key, Shard::Entry{shard->lru.begin(), bytes, std::move(bitmap)});
  shard->used_bytes += bytes;
}

}  // namespace bix
