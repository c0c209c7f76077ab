#ifndef BIX_STORAGE_BITMAP_CACHE_H_
#define BIX_STORAGE_BITMAP_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/bitmap_store.h"
#include "storage/disk_model.h"
#include "storage/fault_injector.h"
#include "storage/io_stats.h"
#include "util/cancel_token.h"
#include "util/clock.h"
#include "util/trace.h"

namespace bix {

// Anything the query evaluator can fetch bitmaps through: the buffer pool
// below, or a decorator over it (the service's FaultPolicyCache).
// Implementations account each fetch into the *caller-supplied* stats
// block rather than shared internal state, so a caller always gets a
// consistent per-query / per-worker cost breakdown even when the cache
// itself is shared by many concurrent queries; aggregation across callers
// is then an explicit IoStats::Add roll-up.
class BitmapCacheInterface {
 public:
  virtual ~BitmapCacheInterface() = default;

  // One bitmap scan: accounts I/O into *stats, updates the pool, and
  // returns a shared handle to the bitmap in the form evaluation consumes —
  // a plain Bitvector for verbatim/BBC/WAH blobs, container form for
  // Roaring blobs (read in place by the evaluator: no full decode on
  // fetch). Failures are typed errors instead of aborts on data-dependent
  // input: InvalidArgument for an unknown key, Corruption for a checksum
  // mismatch or malformed stored stream, Unavailable for an injected
  // transient read error. Nothing is cached on failure, so a transient
  // error leaves the pool clean for a retry. The referenced bitmap is
  // immutable and stays valid for as long as the caller holds the handle,
  // even across eviction.
  //
  // `cancel` (nullable) is the query's deadline/cancellation budget,
  // checked before the fetch does any work: an expired or cancelled query
  // gets DeadlineExceeded/Cancelled back instead of paying for another
  // read — the fetch is the serving stack's cancellation granularity.
  //
  // `trace` (nullable) is the query's trace sink: implementations open one
  // "read" span per fetch attempt tagged with the blob's codec, with the
  // stage that actually spends time — modeled I/O, modeled decode,
  // injected latency spikes, the real decode in materialization — as leaf
  // children, so a traced query's latency decomposes exactly (DESIGN.md
  // section 13). nullptr traces nothing and must cost nothing (no
  // allocations on the disabled path).
  virtual Result<DecodedBitmap> TryFetchDecoded(BitmapKey key, IoStats* stats,
                                                const CancelToken* cancel,
                                                TraceSink* trace) = 0;
  // Unbudgeted, untraced fetch.
  Result<DecodedBitmap> TryFetchDecoded(BitmapKey key, IoStats* stats) {
    return TryFetchDecoded(key, stats, nullptr, nullptr);
  }

  // Drops all cached pages and the has-been-read history.
  virtual void DropPool() = 0;
};

// "c<component>/s<slot>": the "key" tag of every fetch span.
std::string TraceKeyTag(BitmapKey key);

// What a resident key keeps, and is charged against the budget.
enum class PoolForm : uint8_t {
  // Only the key, charged its blob's stored bytes: every fetch decodes the
  // stored bitmap again, while disk I/O is paid only on misses — the
  // paper's file-system buffer over index files (Sections 6.3/7), so
  // compressed indexes pay their decompression CPU per scan.
  kStored,
  // The decoded handle, charged its resident_bytes() (a plain bitmap's
  // words, a Roaring bitmap's containers): a hit skips the decode as well
  // as the read and copies zero bytes — the serving cache.
  kDecoded,
};

// The buffer pool between query evaluation and the simulated disk: a
// byte-budgeted LRU of N lock-striped shards keyed by BitmapKey. A
// QueryExecutor that owns its pool runs one kStored shard (the paper's
// single-query pool); the query service shares one kDecoded cache among
// its workers, so a bitmap fetched for one query is a pool hit for every
// other in-flight query — the paper's buffer-pool sharing, across queries.
//
// The budget is split evenly across shards; a bitmap larger than its
// shard's slice is read through and never cached. A miss accounts the
// modeled disk read (and counts a rescan when the key was read before);
// the modeled decode and the codec_decodes tally are charged whenever the
// pool decodes: on every fetch in stored form, on every miss in decoded
// form. When `io_latency_scale` > 0, those modeled seconds are also slept
// (scaled) on the pool's clock, turning the DiskModel from pure accounting
// into actual latency so worker-count scaling and cache sharing have
// measurable wall-clock effects (benches use this; tests leave it 0).
//
// Decodes are integrity-checked (blob checksum + validating decode): only
// bytes that passed their check stay in the pool — a failed decode evicts
// a resident key and never admits a missed one — so corrupt stored bytes
// surface as Corruption for that fetch only.
//
// Locking: one mutex per shard, held only for map/LRU bookkeeping — never
// across materialization or a sleep. Two threads missing the same key
// concurrently may both materialize it (both count as disk reads, exactly
// like two concurrent misses against a real buffer pool).
class ShardedBitmapCache : public BitmapCacheInterface {
 public:
  // `clock` (nullable => RealClock) is what deadlines are checked against
  // and what modeled-latency and injected-spike sleeps run on, so tests on
  // a VirtualClock simulate slow reads in zero wall-clock time; sleeps are
  // cancellable by the fetching query's CancelToken.
  ShardedBitmapCache(const BitmapStore* store, uint64_t pool_bytes,
                     uint32_t num_shards, DiskModel disk = DiskModel{},
                     double io_latency_scale = 0.0,
                     ClockInterface* clock = nullptr,
                     PoolForm form = PoolForm::kDecoded);

  ShardedBitmapCache(const ShardedBitmapCache&) = delete;
  ShardedBitmapCache& operator=(const ShardedBitmapCache&) = delete;

  // BitmapCacheInterface. Thread-safe; `stats` must be private to the
  // calling thread (or otherwise synchronized by the caller). A decoded
  // hit hands out the shard's own resident handle — zero bytes copied; the
  // shared_ptr keeps the bitmap alive for the query even if it is evicted
  // meanwhile. A stored-form fetch hands out a freshly decoded handle,
  // built once and never copied on the way out. Either way plain codecs
  // come back as Bitvectors and Roaring in container form. An
  // expired/cancelled `cancel` token fails the fetch up front with the
  // token's typed status (deadline checks happen at fetch granularity).
  Result<DecodedBitmap> TryFetchDecoded(BitmapKey key, IoStats* stats,
                                        const CancelToken* cancel,
                                        TraceSink* trace) override;
  using BitmapCacheInterface::TryFetchDecoded;
  // Benches call this between queries to mimic the paper's flushed
  // file-system buffer.
  void DropPool() override;

  // Plugs deterministic fault injection into the miss (disk read) path;
  // hits are served from verified memory and never faulted. Not owned;
  // must outlive the cache. Set before serving starts — the pointer itself
  // is unsynchronized. Pass nullptr to disable.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // Resident bytes summed over shards (racy-but-consistent).
  uint64_t pool_bytes_used() const;

  // Cache-level aggregate counters, independent of the per-fetch IoStats
  // blocks.
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    // Decodes by stored codec, under the same rule as the modeled decode.
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
      uint64_t charged_bytes = 0;  // stored or resident, by form
      DecodedBitmap bitmap;        // empty in stored form
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
  // Inserts under the shard lock, evicting LRU entries to fit the charged
  // bytes.
  void Insert(Shard* shard, BitmapKey key, const DecodedBitmap& bitmap,
              uint64_t stored_bytes);
  // Under the shard lock; a no-op for a key that is no longer resident.
  static void Evict(Shard* shard, BitmapKey key);

  const BitmapStore* store_;
  const uint64_t shard_pool_bytes_;  // the total budget, split evenly
  const DiskModel disk_;
  const double io_latency_scale_;
  ClockInterface* const clock_;
  const PoolForm form_;
  FaultInjector* injector_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace bix

#endif  // BIX_STORAGE_BITMAP_CACHE_H_
