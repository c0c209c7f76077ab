#ifndef BIX_SERVER_SHARDED_CACHE_H_
#define BIX_SERVER_SHARDED_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/bitmap_cache.h"
#include "storage/bitmap_store.h"
#include "storage/disk_model.h"
#include "storage/io_stats.h"
#include "util/clock.h"

namespace bix {

// The query service's shared buffer pool: a thread-safe bitmap cache of N
// lock-striped LRU shards keyed by BitmapKey. Concurrent queries running on
// different workers share fetched bitmaps the way the paper's buffer pool
// shares scans *within* one query — the whole point of replacing per-worker
// exclusive pools.
//
// Differences from the single-owner BitmapCache, both deliberate for a
// serving path:
//  - Shards cache *decoded* bitmaps, so a pool hit skips the real
//    decompression work as well as the modeled disk read (a server
//    optimizes wall-clock; the paper's file-system buffer caches the
//    stored form and re-decodes every fetch). The byte budget charges what
//    a shard keeps resident — a plain bitmap's words, a Roaring bitmap's
//    containers — so a BBC or WAH blob counts at its decoded size, not at
//    its compressed one. Shard-level aggregate hit/miss counters are kept for ServiceStats,
//    next to the per-query IoStats blocks every fetch accounts into.
//  - When `io_latency_scale` > 0, a miss sleeps for the modeled
//    (io + decode) seconds scaled by that factor — turning the DiskModel
//    from pure accounting into actual latency so that worker-count scaling
//    and cache sharing have measurable wall-clock effects (benches use
//    this; tests leave it 0).
//
// Locking: one mutex per shard, held only for map/LRU bookkeeping — never
// across Materialize or the modeled-latency sleep. Two threads missing the
// same key concurrently may both materialize it (both count as disk reads,
// exactly like two concurrent misses against a real buffer pool).
class ShardedBitmapCache : public BitmapCacheInterface {
 public:
  // `clock` (nullable => RealClock) provides the modeled-latency and
  // injected-latency-spike sleeps, so tests on a VirtualClock simulate
  // slow reads in zero wall-clock time; sleeps are cancellable by the
  // fetching query's CancelToken.
  ShardedBitmapCache(const BitmapStore* store, uint64_t pool_bytes,
                     uint32_t num_shards, DiskModel disk = DiskModel{},
                     double io_latency_scale = 0.0,
                     ClockInterface* clock = nullptr);

  ShardedBitmapCache(const ShardedBitmapCache&) = delete;
  ShardedBitmapCache& operator=(const ShardedBitmapCache&) = delete;

  // BitmapCacheInterface. Thread-safe; `stats` must be private to the
  // calling thread (or otherwise synchronized by the caller). A hit hands
  // out the shard's own resident handle — zero bytes copied; the
  // shared_ptr keeps the bitmap alive for the query even if it is evicted
  // meanwhile. Shards keep the *decoded* form the codec yields: plain
  // Bitvectors for verbatim/BBC/WAH, container form for Roaring — so a
  // warmed hit over Roaring blobs feeds evaluation without ever expanding
  // to a plain bitmap. A miss runs the integrity-checked materialization
  // (blob checksum + validating decode): corrupt stored bytes surface as
  // Corruption for this fetch only and are never inserted into a shard, so
  // cached hits are always verified bitmaps. An expired/cancelled `cancel`
  // token fails the fetch up front with the token's typed status (deadline
  // checks happen at fetch granularity).
  Result<DecodedBitmap> TryFetchDecoded(BitmapKey key, IoStats* stats,
                                        const CancelToken* cancel,
                                        TraceSink* trace) override;
  using BitmapCacheInterface::TryFetchDecoded;
  void DropPool() override;

  // Plugs deterministic fault injection into the miss (disk read) path.
  // Not owned; must outlive the cache. Set before serving starts — the
  // pointer itself is unsynchronized.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // Resident bytes summed over shards (racy-but-consistent).
  uint64_t pool_bytes_used() const;

  // Cache-level aggregate counters (independent of per-query blocks).
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    // Miss-path materializations by stored codec (hits decode nothing —
    // the shard already holds the decoded form).
    uint64_t codec_decodes[kNumCodecs] = {};
  };
  Counters TotalCounters() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    // LRU bookkeeping: most-recently-used at the front.
    std::list<BitmapKey> lru;
    struct Entry {
      std::list<BitmapKey>::iterator lru_it;
      uint64_t resident_bytes = 0;
      DecodedBitmap bitmap;
    };
    std::unordered_map<BitmapKey, Entry, BitmapKeyHash> resident;
    uint64_t used_bytes = 0;
    // Keys ever read from disk, to count rescans.
    std::unordered_set<uint64_t> read_before;
    Counters counters;
  };

  Shard& ShardFor(BitmapKey key) {
    return *shards_[BitmapKeyHash{}(key) % shards_.size()];
  }
  // Inserts under the shard lock, evicting LRU entries to fit its
  // resident bytes.
  void Insert(Shard* shard, BitmapKey key, DecodedBitmap bitmap);

  const BitmapStore* store_;
  const uint64_t shard_pool_bytes_;  // the total budget, split evenly
  const DiskModel disk_;
  const double io_latency_scale_;
  ClockInterface* const clock_;
  FaultInjector* injector_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace bix

#endif  // BIX_SERVER_SHARDED_CACHE_H_
