#ifndef BIX_STORAGE_BITMAP_CACHE_H_
#define BIX_STORAGE_BITMAP_CACHE_H_

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "storage/bitmap_store.h"
#include "storage/disk_model.h"
#include "storage/fault_injector.h"
#include "storage/io_stats.h"
#include "util/cancel_token.h"
#include "util/clock.h"
#include "util/trace.h"

namespace bix {

// Anything the query evaluator can fetch bitmaps through: the classic
// single-owner BitmapCache below, or the thread-safe ShardedBitmapCache of
// src/server. Implementations account each fetch into the *caller-supplied*
// stats block rather than shared internal state, so a caller always gets a
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

// The miss-path fault switch both caches run on a simulated disk read of
// `blob`. Consults `injector` (not null) and applies its verdict: an
// injected transient error returns Unavailable; a bit flip returns the
// integrity-checked decode of a corrupted copy of the stored bytes (the
// caller caches nothing, so the pool never holds known-bad bytes); a
// latency spike sleeps on `clock`, cancellable by `cancel`, and lets the
// read proceed. Returns nullopt when the read proceeds.
std::optional<Result<DecodedBitmap>> InjectReadFault(
    FaultInjector* injector, BitmapKey key, const BitmapStore::Blob& blob,
    ClockInterface* clock, const CancelToken* cancel, TraceSink* trace);

// The buffer pool of Section 6.3/7: a byte-budgeted LRU cache of stored
// bitmap payloads sitting between the query evaluator and the simulated
// disk. The pool caches bitmaps in their *stored* form (compressed indexes
// cache compressed bytes, mirroring a file-system buffer over index files),
// so decompression CPU is paid on every fetch while disk I/O is paid only
// on pool misses — exactly the cost structure the paper measures.
//
// A bitmap larger than the whole pool is read from disk and not cached.
//
// Not thread-safe: one owner at a time (the paper's single-query setting).
// Concurrent readers share a ShardedBitmapCache (src/server) instead.
class BitmapCache : public BitmapCacheInterface {
 public:
  // `clock` (nullable => RealClock) is what deadlines are checked against
  // and what injected latency spikes sleep on — the owning executor passes
  // its ExecutorOptions::clock, so a VirtualClock run sees consistent
  // budgets and zero wall-clock sleeps.
  BitmapCache(const BitmapStore* store, uint64_t pool_bytes,
              DiskModel disk = DiskModel{}, ClockInterface* clock = nullptr)
      : store_(store),
        pool_bytes_(pool_bytes),
        disk_(disk),
        clock_(clock != nullptr ? clock : RealClock::Get()) {
    BIX_CHECK(store != nullptr);
  }

  BitmapCache(const BitmapCache&) = delete;
  BitmapCache& operator=(const BitmapCache&) = delete;

  // BitmapCacheInterface: accounts the scan into *stats. Materialization
  // is integrity-checked (blob checksum + validating decode), so corrupt
  // stored bytes surface as Corruption for this fetch only. The pool holds
  // the *stored* form, so the handle owns a freshly decoded buffer — built
  // once, never copied on the way out. Roaring blobs come back in
  // container form.
  Result<DecodedBitmap> TryFetchDecoded(BitmapKey key, IoStats* stats,
                                        const CancelToken* cancel,
                                        TraceSink* trace) override;
  using BitmapCacheInterface::TryFetchDecoded;

  // Plugs deterministic fault injection into the miss (disk read) path.
  // Not owned; must outlive the cache. Pass nullptr to disable.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // Drops all cached pages and the has-been-read history. Benches call this
  // between queries to mimic the paper's flushed file-system buffer.
  void DropPool() override;

  uint64_t pool_bytes_used() const { return used_bytes_; }

 private:
  void Touch(BitmapKey key);
  void Evict(BitmapKey key);
  void Insert(BitmapKey key, uint64_t bytes);

  const BitmapStore* store_;
  uint64_t pool_bytes_;
  DiskModel disk_;
  ClockInterface* const clock_;
  FaultInjector* injector_ = nullptr;

  // LRU bookkeeping: most-recently-used at the front.
  std::list<BitmapKey> lru_;
  struct Entry {
    std::list<BitmapKey>::iterator lru_it;
    uint64_t bytes = 0;
  };
  std::unordered_map<BitmapKey, Entry, BitmapKeyHash> resident_;
  uint64_t used_bytes_ = 0;
  // Keys ever read from disk, to count rescans.
  std::unordered_set<uint64_t> read_before_;
};

}  // namespace bix

#endif  // BIX_STORAGE_BITMAP_CACHE_H_
