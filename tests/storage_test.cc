#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "storage/bitmap_cache.h"
#include "storage/bitmap_store.h"
#include "storage/fault_injector.h"
#include "storage/wal.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace bix {
namespace {

Bitvector MakeBitmap(uint64_t n, uint64_t seed, double density = 0.3) {
  Rng rng(seed);
  Bitvector bv(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(density)) bv.Set(i);
  }
  return bv;
}

// A decoded handle as a plain bitmap; a Roaring handle's expansion is
// counted by RoaringStats like any other.
Bitvector Expand(const DecodedBitmap& d) {
  return d.is_roaring() ? d.roaring()->ToBitvector() : *d.plain();
}

TEST(BitmapStoreTest, UncompressedRoundtrip) {
  BitmapStore store;
  Bitvector bv = MakeBitmap(1000, 1);
  store.PutWithCodec({1, 0}, bv, CodecId::kVerbatim);
  EXPECT_TRUE(store.Contains({1, 0}));
  EXPECT_FALSE(store.Contains({1, 1}));
  EXPECT_EQ(store.Materialize({1, 0}), bv);
  EXPECT_EQ(store.StoredBytes({1, 0}), 125u);
  EXPECT_EQ(store.TotalStoredBytes(), 125u);
  EXPECT_EQ(store.BitmapCount(), 1u);
}

TEST(BitmapStoreTest, CompressedRoundtrip) {
  BitmapStore store;
  Bitvector sparse(100'000);
  sparse.Set(7);
  sparse.Set(99'999);
  store.PutWithCodec({1, 0}, sparse, CodecId::kBbc);
  EXPECT_EQ(store.Materialize({1, 0}), sparse);
  EXPECT_LT(store.StoredBytes({1, 0}), 100u);
}

TEST(BitmapStoreTest, KeysAreComponentScoped) {
  BitmapStore store;
  Bitvector a = MakeBitmap(100, 1), b = MakeBitmap(100, 2);
  store.PutWithCodec({1, 5}, a, CodecId::kVerbatim);
  store.PutWithCodec({2, 5}, b, CodecId::kVerbatim);
  EXPECT_EQ(store.Materialize({1, 5}), a);
  EXPECT_EQ(store.Materialize({2, 5}), b);
}

TEST(BitmapStoreTest, TryVariantsReportMissingKeysAsTypedErrors) {
  BitmapStore store;
  Bitvector bv = MakeBitmap(800, 3);
  store.PutWithCodec({1, 0}, bv, CodecId::kVerbatim);

  EXPECT_EQ(store.TryMaterialize({1, 0}).value(), bv);
  EXPECT_EQ(store.TryGetBlob({1, 0}).value(), &store.GetBlob({1, 0}));

  for (BitmapKey missing : {BitmapKey{1, 1}, BitmapKey{2, 0}}) {
    Result<const BitmapStore::Blob*> blob = store.TryGetBlob(missing);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.status().code(), Status::Code::kInvalidArgument);
    EXPECT_EQ(store.TryMaterialize(missing).status().code(),
              Status::Code::kInvalidArgument);
  }
  // The error names the offending key.
  EXPECT_NE(store.TryGetBlob({3, 7}).status().ToString().find("component=3"),
            std::string::npos);
}

TEST(BitmapStoreTest, TryMaterializeDetectsBitRot) {
  BitmapStore store;
  store.PutWithCodec({1, 0}, MakeBitmap(1000, 4), CodecId::kVerbatim);
  // Model post-stamp rot: re-insert a copy of the blob with one payload
  // byte flipped but the original checksum, as a torn page would leave it.
  BitmapStore::Blob rotten = store.GetBlob({1, 0});
  rotten.bytes[17] ^= 0x10;
  store.PutBlob({1, 1}, std::move(rotten));

  EXPECT_TRUE(store.TryMaterialize({1, 0}).ok());
  Result<Bitvector> r = store.TryMaterialize({1, 1});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
}

TEST(BitmapStoreTest, TryMaterializeValidatesChecksummedGarbage) {
  // A checksum only says the bytes are the ones stamped (a v1 index file's
  // payloads are stamped at load with no checksum on disk behind them), so
  // malformed bytes under a matching checksum still go through the
  // validating decoders: garbage can fail, but it cannot abort.
  const auto put = [](BitmapStore* store, uint32_t slot, CodecId codec,
                      uint64_t bit_count, std::vector<uint8_t> bytes) {
    BitmapStore::Blob blob;
    blob.codec = codec;
    blob.bit_count = bit_count;
    blob.bytes = std::move(bytes);
    blob.crc32c = Crc32c(blob.bytes.data(), blob.bytes.size());
    store->PutBlob({1, slot}, std::move(blob));
  };
  BitmapStore store;
  // A malformed BBC atom stream.
  put(&store, 0, CodecId::kBbc, 1000, {0x7F, 0x01, 0x02});
  // A verbatim payload 25 bytes short.
  put(&store, 1, CodecId::kVerbatim, 1000, std::vector<uint8_t>(100, 0));
  // A WAH literal that sets bit 20 of a 10-bit bitmap.
  put(&store, 2, CodecId::kWah, 10, {0x00, 0x00, 0x10, 0x00});

  for (uint32_t slot : {0u, 1u, 2u}) {
    Result<Bitvector> r = store.TryMaterialize({1, slot});
    ASSERT_FALSE(r.ok()) << slot;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption) << slot;
    // The decoder rejected it; the checksum matched.
    EXPECT_EQ(r.status().ToString().find("checksum"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(BitmapStoreTest, PutWithCodecTagsAndRoundTripsEveryCodec) {
  BitmapStore store;
  Bitvector bv = MakeBitmap(20'000, 8, 0.02);
  for (int c = 0; c < kNumCodecs; ++c) {
    const CodecId codec = static_cast<CodecId>(c);
    const BitmapKey key{1, static_cast<uint32_t>(c)};
    store.PutWithCodec(key, bv, codec);
    const BitmapStore::Blob& blob = store.GetBlob(key);
    EXPECT_EQ(blob.codec, codec);
    EXPECT_EQ(blob.crc32c, Crc32c(blob.bytes.data(), blob.bytes.size()));
    EXPECT_EQ(store.TryMaterialize(key).value(), bv) << CodecName(codec);
    // The resident form only stays compressed for Roaring.
    Result<DecodedBitmap> resident = TryMaterializeBlobResident(blob);
    ASSERT_TRUE(resident.ok());
    EXPECT_EQ(resident.value().is_roaring(), codec == CodecId::kRoaring);
    EXPECT_EQ(Expand(resident.value()), bv);
  }
  EXPECT_EQ(store.BitmapCount(), static_cast<uint64_t>(kNumCodecs));
}

TEST(BitmapStoreTest, PutAutoFollowsAdvisor) {
  BitmapStore store;
  // Sparse: the advisor picks Roaring.
  Bitvector sparse(100'000);
  sparse.Set(3);
  sparse.Set(50'000);
  EXPECT_EQ(store.PutAuto({1, 0}, sparse), CodecId::kRoaring);
  EXPECT_EQ(store.GetBlob({1, 0}).codec, CodecId::kRoaring);
  EXPECT_EQ(store.TryMaterialize({1, 0}).value(), sparse);

  // Incompressible noise: the advisor picks verbatim.
  Bitvector noise = MakeBitmap(100'000, 9, 0.5);
  EXPECT_EQ(store.PutAuto({1, 1}, noise), CodecId::kVerbatim);
  EXPECT_EQ(store.GetBlob({1, 1}).codec, CodecId::kVerbatim);
  EXPECT_EQ(store.TryMaterialize({1, 1}).value(), noise);

  // Accounting covers both codecs.
  EXPECT_EQ(store.TotalStoredBytes(),
            store.StoredBytes({1, 0}) + store.StoredBytes({1, 1}));
}

TEST(FaultInjectorTest, SameSeedReplaysSameFaultSequence) {
  FaultInjectorOptions opts;
  opts.seed = 42;
  opts.unavailable_prob = 0.2;
  opts.bit_flip_prob = 0.1;
  opts.latency_spike_prob = 0.1;
  FaultInjector a(opts), b(opts);
  for (uint32_t slot = 0; slot < 8; ++slot) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      EXPECT_EQ(a.OnRead({1, slot}), b.OnRead({1, slot})) << slot;
    }
  }
  // And the mix is non-trivial: some faults of each class fired.
  FaultInjector::Counters c = a.counters();
  EXPECT_EQ(c.reads, 400u);
  EXPECT_GT(c.unavailable, 0u);
  EXPECT_GT(c.bit_flips, 0u);
  EXPECT_GT(c.latency_spikes, 0u);
  EXPECT_LT(c.unavailable + c.bit_flips + c.latency_spikes, c.reads);
}

TEST(FaultInjectorTest, PerKeySequenceIsInterleavingIndependent) {
  // Interleaving reads of other keys must not perturb a key's own fault
  // sequence -- the property that makes chaos runs replayable.
  FaultInjectorOptions opts;
  opts.seed = 7;
  opts.unavailable_prob = 0.3;
  FaultInjector alone(opts), interleaved(opts);
  std::vector<FaultInjector::Fault> seq_alone, seq_mixed;
  for (int i = 0; i < 40; ++i) seq_alone.push_back(alone.OnRead({1, 0}));
  for (int i = 0; i < 40; ++i) {
    interleaved.OnRead({2, static_cast<uint32_t>(i)});
    seq_mixed.push_back(interleaved.OnRead({1, 0}));
    interleaved.OnRead({3, 5});
  }
  EXPECT_EQ(seq_alone, seq_mixed);
}

TEST(FaultInjectorTest, FirstAttemptsFailDeterministically) {
  FaultInjectorOptions opts;
  opts.unavailable_first_attempts = 2;
  FaultInjector inj(opts);
  EXPECT_EQ(inj.OnRead({1, 0}), FaultInjector::Fault::kUnavailable);
  EXPECT_EQ(inj.OnRead({1, 0}), FaultInjector::Fault::kUnavailable);
  EXPECT_EQ(inj.OnRead({1, 0}), FaultInjector::Fault::kNone);
  // Every key gets its own attempt counter.
  EXPECT_EQ(inj.OnRead({1, 1}), FaultInjector::Fault::kUnavailable);
}

TEST(FaultInjectorTest, CorruptPayloadFlipsExactlyOneBitDeterministically) {
  FaultInjectorOptions opts;
  opts.seed = 9;
  FaultInjector inj(opts);
  std::vector<uint8_t> original(64, 0xA5);
  std::vector<uint8_t> first = original;
  inj.CorruptPayload({1, 3}, &first);
  int changed_bits = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    uint8_t diff = static_cast<uint8_t>(first[i] ^ original[i]);
    while (diff != 0) {
      changed_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(changed_bits, 1);
  // Deterministic: the same key flips the same bit again.
  std::vector<uint8_t> second = original;
  inj.CorruptPayload({1, 3}, &second);
  EXPECT_EQ(first, second);
  // Empty payloads are a no-op, not an abort.
  std::vector<uint8_t> empty;
  inj.CorruptPayload({1, 3}, &empty);
  EXPECT_TRUE(empty.empty());
}

TEST(DiskModelTest, ReadSecondsIsSeekPlusTransfer) {
  DiskModel disk;
  disk.seek_seconds = 0.01;
  disk.bytes_per_second = 1000.0;
  EXPECT_DOUBLE_EQ(disk.ReadSeconds(0), 0.01);
  EXPECT_DOUBLE_EQ(disk.ReadSeconds(500), 0.01 + 0.5);
}

// --- The buffer pool, in both forms ---------------------------------------

const char* FormName(PoolForm form) {
  return form == PoolForm::kStored ? "Stored" : "Decoded";
}

class BufferPoolTest : public ::testing::TestWithParam<PoolForm> {
 protected:
  void SetUp() override {
    // Eight 1000-bit verbatim bitmaps: 125 stored bytes, 16 words resident.
    for (uint32_t s = 0; s < 8; ++s) {
      reference_.push_back(MakeBitmap(1000, s));
      store_.PutWithCodec({1, s}, reference_.back(), CodecId::kVerbatim);
    }
  }

  ShardedBitmapCache Pool(uint64_t pool_bytes, uint32_t num_shards = 1,
                          DiskModel disk = DiskModel{}) {
    return ShardedBitmapCache(&store_, pool_bytes, num_shards, disk,
                              /*io_latency_scale=*/0.0, /*clock=*/nullptr,
                              GetParam());
  }
  // What one of the fixture's bitmaps is charged against the budget: its
  // 125 stored bytes in stored form, its 16 resident words in decoded form.
  uint64_t Charged() const {
    return GetParam() == PoolForm::kStored ? 125u : 128u;
  }

  BitmapStore store_;
  std::vector<Bitvector> reference_;
};

INSTANTIATE_TEST_SUITE_P(
    Forms, BufferPoolTest,
    ::testing::Values(PoolForm::kStored, PoolForm::kDecoded),
    [](const ::testing::TestParamInfo<PoolForm>& info) {
      return FormName(info.param);
    });

TEST_P(BufferPoolTest, FetchReturnsStoredBitmap) {
  ShardedBitmapCache cache = Pool(1 << 20, 4);
  IoStats stats;
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(*cache.TryFetchDecoded({1, s}, &stats).value().plain(),
              reference_[s]);
  }
  EXPECT_EQ(stats.scans, 8u);
  EXPECT_EQ(stats.disk_reads, 8u);
  EXPECT_EQ(stats.pool_hits, 0u);
}

TEST_P(BufferPoolTest, SecondFetchHitsPool) {
  ShardedBitmapCache cache = Pool(1 << 20, 4);
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  EXPECT_EQ(*cache.TryFetchDecoded({1, 0}, &stats).value().plain(),
            reference_[0]);
  EXPECT_EQ(stats.scans, 2u);
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.pool_hits, 1u);
  EXPECT_EQ(stats.rescans, 0u);
  EXPECT_EQ(stats.bytes_read, 125u);
  const ShardedBitmapCache::Counters counters = cache.TotalCounters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  // The stored form decodes on every fetch; the decoded form on the miss.
  EXPECT_EQ(counters.codec_decodes[static_cast<size_t>(CodecId::kVerbatim)],
            GetParam() == PoolForm::kStored ? 2u : 1u);
  EXPECT_EQ(stats.codec_decodes[static_cast<size_t>(CodecId::kVerbatim)],
            GetParam() == PoolForm::kStored ? 2u : 1u);
}

TEST_P(BufferPoolTest, TinyPoolCausesRescans) {
  ShardedBitmapCache cache = Pool(130);  // fits exactly one bitmap
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  ASSERT_TRUE(cache.TryFetchDecoded({1, 1}, &stats).ok());  // evicts 0
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());  // rescan
  EXPECT_EQ(stats.disk_reads, 3u);
  EXPECT_EQ(stats.rescans, 1u);
  EXPECT_EQ(stats.pool_hits, 0u);
  EXPECT_LE(cache.pool_bytes_used(), 130u);
}

TEST_P(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  ShardedBitmapCache cache = Pool(2 * Charged());  // two bitmaps fit
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  ASSERT_TRUE(cache.TryFetchDecoded({1, 1}, &stats).ok());
  // Touch 0: LRU order is now (0, 1).
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  ASSERT_TRUE(cache.TryFetchDecoded({1, 2}, &stats).ok());  // evicts 1
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());  // still resident
  EXPECT_EQ(stats.pool_hits, 2u);
  // 1 was evicted, so this is a rescan.
  ASSERT_TRUE(cache.TryFetchDecoded({1, 1}, &stats).ok());
  EXPECT_EQ(stats.rescans, 1u);
}

TEST_P(BufferPoolTest, OversizedBitmapReadsThrough) {
  ShardedBitmapCache cache = Pool(64);  // smaller than any bitmap
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  EXPECT_EQ(stats.disk_reads, 2u);
  EXPECT_EQ(stats.pool_hits, 0u);
  EXPECT_EQ(cache.pool_bytes_used(), 0u);
}

TEST_P(BufferPoolTest, DropPoolForgetsResidencyAndHistory) {
  ShardedBitmapCache cache = Pool(1 << 20, 4);
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  cache.DropPool();
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  EXPECT_EQ(stats.disk_reads, 2u);
  // History was dropped too: the re-read does not count as a rescan.
  EXPECT_EQ(stats.rescans, 0u);
  EXPECT_EQ(cache.pool_bytes_used(), Charged());
}

TEST_P(BufferPoolTest, IoSecondsFollowDiskModel) {
  DiskModel disk;
  disk.seek_seconds = 0.01;
  disk.bytes_per_second = 1000.0;
  ShardedBitmapCache cache = Pool(1 << 20, 1, disk);
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  EXPECT_DOUBLE_EQ(stats.io_seconds, 0.01 + 125.0 / 1000.0);
  // Pool hit: no extra I/O.
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  EXPECT_DOUBLE_EQ(stats.io_seconds, 0.01 + 125.0 / 1000.0);
}

TEST_P(BufferPoolTest, StatsAccountingInvariant) {
  ShardedBitmapCache cache = Pool(2 * Charged());
  IoStats s;
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const BitmapKey key{1, static_cast<uint32_t>(rng.UniformInt(0, 3))};
    ASSERT_TRUE(cache.TryFetchDecoded(key, &s).ok());
  }
  EXPECT_EQ(s.scans, 200u);
  EXPECT_EQ(s.scans, s.pool_hits + s.disk_reads);
  EXPECT_LE(s.rescans, s.disk_reads);
  EXPECT_EQ(s.bytes_read, s.disk_reads * 125u);
}

TEST_P(BufferPoolTest, InjectedUnavailableSurfacesAndRecovers) {
  FaultInjectorOptions opts;
  opts.unavailable_first_attempts = 1;
  FaultInjector inj(opts);
  ShardedBitmapCache cache = Pool(1 << 20);
  cache.SetFaultInjector(&inj);
  IoStats stats;
  Result<DecodedBitmap> first = cache.TryFetchDecoded({1, 0}, &stats);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), Status::Code::kUnavailable);
  EXPECT_TRUE(first.status().IsRetryable());
  // The retry (attempt 2) succeeds and returns the true bitmap.
  Result<DecodedBitmap> second = cache.TryFetchDecoded({1, 0}, &stats);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second.value().plain(), reference_[0]);
  // A later fetch is a pool hit: hits bypass the injector entirely.
  EXPECT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  EXPECT_EQ(inj.counters().reads, 2u);
}

TEST_P(BufferPoolTest, InjectedBitFlipIsCorruptionAndNeverCached) {
  FaultInjectorOptions opts;
  opts.bit_flip_prob = 1.0;
  FaultInjector inj(opts);
  ShardedBitmapCache cache = Pool(1 << 20);
  cache.SetFaultInjector(&inj);
  IoStats stats;
  for (int i = 0; i < 3; ++i) {
    Result<DecodedBitmap> r = cache.TryFetchDecoded({1, 0}, &stats);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  }
  // The corrupted payload never entered the pool, and the store itself is
  // untouched (the flip hits a copy of the read).
  EXPECT_EQ(cache.pool_bytes_used(), 0u);
  EXPECT_TRUE(store_.TryMaterialize({1, 0}).ok());
}

// Rot of a resident key's stored bytes after admission. The stored form
// decodes on every fetch, so the next fetch fails its checksum and evicts
// the key, and the miss after it is not admitted either. The decoded form
// hands out the handle it verified at admission, with no decode.
TEST_P(BufferPoolTest, BlobRotAfterAdmission) {
  ShardedBitmapCache cache = Pool(1 << 20);
  IoStats warm;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 2}, &warm).ok());
  ASSERT_TRUE(cache.TryFetchDecoded({1, 3}, &warm).ok());
  ASSERT_EQ(cache.pool_bytes_used(), 2 * Charged());
  // The fixture owns the (non-const) store, so the blob may be written in
  // place; a store offers no other way to rot a blob after admission.
  const_cast<std::vector<uint8_t>&>(store_.GetBlob({1, 3}).bytes)[17] ^= 0x10;

  const size_t verbatim = static_cast<size_t>(CodecId::kVerbatim);
  IoStats io;
  Result<DecodedBitmap> rotten = cache.TryFetchDecoded({1, 3}, &io);
  EXPECT_EQ(io.pool_hits, 1u);
  if (GetParam() == PoolForm::kStored) {
    ASSERT_FALSE(rotten.ok());
    EXPECT_EQ(rotten.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(io.codec_decodes[verbatim], 1u);
    EXPECT_EQ(cache.pool_bytes_used(), Charged());  // {1, 3} evicted
    IoStats again;
    EXPECT_EQ(cache.TryFetchDecoded({1, 3}, &again).status().code(),
              Status::Code::kCorruption);
    EXPECT_EQ(again.disk_reads, 1u);
    EXPECT_EQ(again.pool_hits, 0u);
    EXPECT_EQ(cache.pool_bytes_used(), Charged());  // not admitted
  } else {
    ASSERT_TRUE(rotten.ok()) << rotten.status().ToString();
    EXPECT_EQ(*rotten.value().plain(), reference_[3]);
    EXPECT_EQ(io.codec_decodes[verbatim], 0u);
    EXPECT_EQ(cache.pool_bytes_used(), 2 * Charged());
  }
  // The untouched key is unaffected in both forms.
  IoStats clean;
  EXPECT_EQ(*cache.TryFetchDecoded({1, 2}, &clean).value().plain(),
            reference_[2]);
  EXPECT_EQ(clean.pool_hits, 1u);
}

TEST_P(BufferPoolTest, LatencySpikesDoNotAffectResults) {
  FaultInjectorOptions opts;
  opts.latency_spike_prob = 1.0;
  opts.latency_spike_seconds = 0.0;  // keep the test instant
  FaultInjector inj(opts);
  ShardedBitmapCache cache = Pool(1 << 20);
  cache.SetFaultInjector(&inj);
  IoStats stats;
  Result<DecodedBitmap> r = cache.TryFetchDecoded({1, 1}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.value().plain(), reference_[1]);
  EXPECT_EQ(inj.counters().latency_spikes, 1u);
}

// The BitmapCacheInterface contract: a fetch accounts into the caller's
// block, so two callers over one cache keep private breakdowns whose Add
// roll-up is the cache's whole activity — and share residency: worker B
// hits on what worker A fetched.
TEST_P(BufferPoolTest, FetchAccountsIntoCallerBlock) {
  ShardedBitmapCache cache = Pool(1 << 20, 4);
  IoStats worker_a, worker_b;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 3}, &worker_a).ok());
  ASSERT_TRUE(cache.TryFetchDecoded({1, 3}, &worker_b).ok());
  EXPECT_EQ(worker_a.scans, 1u);
  EXPECT_EQ(worker_a.disk_reads, 1u);
  EXPECT_EQ(worker_b.scans, 1u);
  EXPECT_EQ(worker_b.pool_hits, 1u);  // a's read left the bitmap resident
  EXPECT_EQ(worker_b.disk_reads, 0u);
  IoStats total = worker_a;
  total.Add(worker_b);
  EXPECT_EQ(total.scans, 2u);
  EXPECT_EQ(total.disk_reads, 1u);
  EXPECT_EQ(total.pool_hits, 1u);
  EXPECT_EQ(total.bytes_read, 125u);
}

TEST_P(BufferPoolTest, ConcurrentFetchesReturnCorrectBitmaps) {
  ShardedBitmapCache cache = Pool(4 * 125, 2);  // forces some evictions
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      IoStats stats;
      for (int i = 0; i < 200; ++i) {
        const uint32_t s = static_cast<uint32_t>(rng.UniformInt(0, 7));
        Result<DecodedBitmap> r = cache.TryFetchDecoded({1, s}, &stats);
        if (!r.ok() || *r.value().plain() != reference_[s]) ++failures;
      }
      if (stats.scans != 200u) ++failures;
      if (stats.pool_hits + stats.disk_reads != stats.scans) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.pool_bytes_used(), 4u * 125u);
}

TEST_P(BufferPoolTest, CompressedFetchChargesDecodeWheneverThePoolDecodes) {
  BitmapStore store;
  Bitvector sparse(80'000);
  sparse.Set(3);
  store.PutWithCodec({1, 0}, sparse, CodecId::kBbc);
  const uint64_t cmp_bytes = store.StoredBytes({1, 0});
  DiskModel disk;
  disk.decompress_bytes_per_second = 1000.0;
  ShardedBitmapCache cache(&store, 1 << 20, 1, disk, 0.0, nullptr,
                           GetParam());
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  // A pool hit: the stored form pays its decode again, the decoded form
  // hands out the resident handle.
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  const double decodes = GetParam() == PoolForm::kStored ? 2.0 : 1.0;
  EXPECT_DOUBLE_EQ(stats.decode_seconds,
                   decodes * static_cast<double>(cmp_bytes) / 1000.0);
  EXPECT_EQ(stats.disk_reads, 1u);
}

TEST_P(BufferPoolTest, UncompressedFetchChargesNoDecode) {
  ShardedBitmapCache cache = Pool(1 << 20);
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  EXPECT_DOUBLE_EQ(stats.decode_seconds, 0.0);
}

TEST_P(BufferPoolTest, RoaringFetchChargesScaledDecodeAndTagsCodec) {
  BitmapStore store;
  Bitvector sparse(80'000);
  sparse.Set(3);
  sparse.Set(70'001);
  store.PutWithCodec({1, 0}, sparse, CodecId::kRoaring);
  store.PutWithCodec({1, 1}, sparse, CodecId::kBbc);
  store.PutWithCodec({1, 2}, MakeBitmap(1000, 1), CodecId::kVerbatim);
  const uint64_t roaring_bytes = store.StoredBytes({1, 0});
  DiskModel disk;
  disk.decompress_bytes_per_second = 1000.0;
  ShardedBitmapCache cache(&store, 1 << 20, 1, disk, 0.0, nullptr,
                           GetParam());
  IoStats stats;
  ASSERT_TRUE(cache.TryFetchDecoded({1, 0}, &stats).ok());
  // Roaring hands out container form, so its modeled decode cost is a
  // fraction (roaring_decode_scale) of a full decompression pass.
  EXPECT_DOUBLE_EQ(stats.decode_seconds,
                   disk.roaring_decode_scale *
                       static_cast<double>(roaring_bytes) / 1000.0);
  ASSERT_TRUE(cache.TryFetchDecoded({1, 1}, &stats).ok());
  ASSERT_TRUE(cache.TryFetchDecoded({1, 2}, &stats).ok());
  // Every decode is tallied under its blob's codec.
  EXPECT_EQ(stats.codec_decodes[static_cast<size_t>(CodecId::kRoaring)], 1u);
  EXPECT_EQ(stats.codec_decodes[static_cast<size_t>(CodecId::kBbc)], 1u);
  EXPECT_EQ(stats.codec_decodes[static_cast<size_t>(CodecId::kVerbatim)], 1u);
  EXPECT_EQ(stats.codec_decodes[static_cast<size_t>(CodecId::kWah)], 0u);
}

// The budget gate: whatever a codec and form charge, the pool never holds
// more than its budget. Sparse BBC and WAH blobs are a small fraction of
// their decoded size: all sixteen fit the budget in stored bytes, but only
// four fit decoded. Charged by stored bytes, a decoded pool kept every key
// resident and held about four times its budget in decoded bitmaps.
// Verbatim blobs fit four in either form, and Roaring containers stay
// about their stored size.
class BufferPoolBudgetTest
    : public ::testing::TestWithParam<std::tuple<CodecId, PoolForm>> {};

INSTANTIATE_TEST_SUITE_P(
    CodecsAndForms, BufferPoolBudgetTest,
    ::testing::Combine(::testing::Values(CodecId::kVerbatim, CodecId::kBbc,
                                         CodecId::kWah, CodecId::kRoaring),
                       ::testing::Values(PoolForm::kStored,
                                         PoolForm::kDecoded)),
    [](const ::testing::TestParamInfo<std::tuple<CodecId, PoolForm>>& info) {
      return std::string(CodecName(std::get<0>(info.param))) + "_" +
             FormName(std::get<1>(info.param));
    });

TEST_P(BufferPoolBudgetTest, ResidentBytesStayWithinBudget) {
  const auto [codec, form] = GetParam();
  constexpr uint64_t kBits = 64000;
  constexpr uint32_t kKeys = 16;
  const uint64_t decoded = Bitvector::WordCount(kBits) * sizeof(uint64_t);
  const uint64_t budget = 4 * decoded + decoded / 2;
  BitmapStore store;
  uint64_t stored = 0;
  for (uint32_t s = 0; s < kKeys; ++s) {
    Bitvector bv(kBits);
    for (uint64_t i = s; i < kBits; i += 997) bv.Set(i);
    store.PutWithCodec({1, s}, bv, codec);
    stored += store.GetBlob({1, s}).bytes.size();
  }
  if (codec != CodecId::kVerbatim) {
    ASSERT_LE(stored, budget);
  }
  ShardedBitmapCache cache(&store, budget, 1, DiskModel{}, 0.0, nullptr, form);
  for (int pass = 0; pass < 2; ++pass) {
    IoStats stats;
    uint64_t hit_bytes = 0;  // what the keys that hit are charged
    for (uint32_t s = 0; s < kKeys; ++s) {
      const uint64_t hits_before = stats.pool_hits;
      Result<DecodedBitmap> r = cache.TryFetchDecoded({1, s}, &stats);
      ASSERT_TRUE(r.ok());
      if (stats.pool_hits > hits_before) {
        hit_bytes += form == PoolForm::kStored
                         ? store.GetBlob({1, s}).bytes.size()
                         : r.value().resident_bytes();
      }
    }
    EXPECT_LE(hit_bytes, budget) << "pass " << pass;
    EXPECT_LE(cache.pool_bytes_used(), budget) << "pass " << pass;
  }
}

// Field-by-field roll-up of two fully populated blocks: the merge used
// when per-worker stats are aggregated into service counters. Every
// IoStats field is set to a distinct value so a counter dropped from Add()
// fails here (and the static_assert in io_stats.h trips on added fields).
TEST(IoStatsTest, AddMergesEveryFieldOfPopulatedBlocks) {
  IoStats a;
  a.scans = 10;
  a.pool_hits = 4;
  a.disk_reads = 6;
  a.rescans = 2;
  a.bytes_read = 1000;
  a.io_seconds = 1.5;
  a.decode_seconds = 0.5;
  a.cpu_seconds = 0.25;
  for (int c = 0; c < kNumCodecs; ++c) {
    a.codec_decodes[c] = 100 + static_cast<uint64_t>(c);
  }
  IoStats b;
  b.scans = 3;
  b.pool_hits = 1;
  b.disk_reads = 2;
  b.rescans = 1;
  b.bytes_read = 250;
  b.io_seconds = 0.75;
  b.decode_seconds = 0.125;
  b.cpu_seconds = 0.0625;
  for (int c = 0; c < kNumCodecs; ++c) {
    b.codec_decodes[c] = 10 * static_cast<uint64_t>(c) + 1;
  }
  a.Add(b);
  EXPECT_EQ(a.scans, 13u);
  EXPECT_EQ(a.pool_hits, 5u);
  EXPECT_EQ(a.disk_reads, 8u);
  EXPECT_EQ(a.rescans, 3u);
  EXPECT_EQ(a.bytes_read, 1250u);
  EXPECT_DOUBLE_EQ(a.io_seconds, 2.25);
  EXPECT_DOUBLE_EQ(a.decode_seconds, 0.625);
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 0.3125);
  for (int c = 0; c < kNumCodecs; ++c) {
    EXPECT_EQ(a.codec_decodes[c],
              100 + static_cast<uint64_t>(c) + 10 * static_cast<uint64_t>(c) + 1)
        << CodecName(static_cast<CodecId>(c));
  }
  // b is untouched by the merge.
  EXPECT_EQ(b.scans, 3u);
  EXPECT_DOUBLE_EQ(b.io_seconds, 0.75);
}

void ExpectSameIoStats(const IoStats& a, const IoStats& b) {
  EXPECT_EQ(a.scans, b.scans);
  EXPECT_EQ(a.pool_hits, b.pool_hits);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.rescans, b.rescans);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.decode_seconds, b.decode_seconds);
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds);
  for (size_t c = 0; c < kNumCodecs; ++c) {
    EXPECT_EQ(a.codec_decodes[c], b.codec_decodes[c]) << c;
  }
}

// One oracle for the miss-path fault switch and accounting of both forms:
// a stored-form pool and a decoded-form pool, each on its own VirtualClock
// with an identically seeded injector, must fail, account and sleep
// identically on every miss of every codec. A key that succeeded is never
// fetched again, so every fetch is a miss in both. The last key is a
// rotten blob (its bytes no longer match their checksum) that never
// succeeds: neither form may admit it when its decode fails, so its next
// attempt is a miss in both as well.
TEST(CacheFaultOracleTest, BothFormsFaultAndAccountAMissIdentically) {
  BitmapStore store;
  const CodecId codecs[] = {CodecId::kVerbatim, CodecId::kBbc, CodecId::kWah,
                            CodecId::kRoaring};
  std::vector<BitmapKey> keys;
  std::vector<Bitvector> reference;
  for (uint32_t slot = 0; slot < 12; ++slot) {
    keys.push_back({1, slot});
    reference.push_back(MakeBitmap(4000, slot, 0.05));
    store.PutWithCodec(keys.back(), reference.back(), codecs[slot % 4]);
  }
  BitmapStore::Blob rotten;
  rotten.bit_count = 4000;
  rotten.bytes =
      GetCodec(CodecId::kVerbatim).Encode(MakeBitmap(4000, 12, 0.05));
  rotten.crc32c = Crc32c(rotten.bytes.data(), rotten.bytes.size());
  rotten.bytes[7] ^= 0x10;
  keys.push_back({1, 12});
  reference.emplace_back();  // never compared: every fetch fails
  store.PutBlob(keys.back(), std::move(rotten));
  FaultInjectorOptions opts;
  opts.seed = 7;
  opts.unavailable_prob = 0.2;
  opts.bit_flip_prob = 0.2;
  opts.latency_spike_prob = 0.2;
  opts.latency_spike_seconds = 0.004;
  FaultInjector stored_faults(opts), decoded_faults(opts);
  VirtualClock stored_clock, decoded_clock;
  ShardedBitmapCache stored_pool(&store, 1 << 20, 1, DiskModel{},
                                 /*io_latency_scale=*/0.0, &stored_clock,
                                 PoolForm::kStored);
  ShardedBitmapCache decoded_pool(&store, 1 << 20, 1, DiskModel{},
                                  /*io_latency_scale=*/0.0, &decoded_clock,
                                  PoolForm::kDecoded);
  stored_pool.SetFaultInjector(&stored_faults);
  decoded_pool.SetFaultInjector(&decoded_faults);

  uint64_t stored_resident = 0;   // the stored form's unit
  uint64_t decoded_resident = 0;  // the decoded form's unit
  for (size_t k = 0; k < keys.size(); ++k) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      SCOPED_TRACE("slot " + std::to_string(k) + " attempt " +
                   std::to_string(attempt));
      IoStats stored_io, decoded_io;
      Result<DecodedBitmap> a = stored_pool.TryFetchDecoded(keys[k], &stored_io);
      Result<DecodedBitmap> b =
          decoded_pool.TryFetchDecoded(keys[k], &decoded_io);
      ASSERT_EQ(a.status().code(), b.status().code());
      ExpectSameIoStats(stored_io, decoded_io);
      const FaultInjector::Counters pc = stored_faults.counters();
      const FaultInjector::Counters sc = decoded_faults.counters();
      EXPECT_EQ(pc.reads, sc.reads);
      EXPECT_EQ(pc.unavailable, sc.unavailable);
      EXPECT_EQ(pc.bit_flips, sc.bit_flips);
      EXPECT_EQ(pc.latency_spikes, sc.latency_spikes);
      EXPECT_EQ(stored_clock.slept_seconds(), decoded_clock.slept_seconds());
      if (a.ok()) {
        EXPECT_EQ(Expand(a.value()), reference[k]);
        EXPECT_EQ(Expand(b.value()), reference[k]);
        const uint64_t stored = store.GetBlob(keys[k]).bytes.size();
        stored_resident += stored;
        decoded_resident += b.value().is_roaring()
                                ? stored
                                : Bitvector::WordCount(4000) * sizeof(uint64_t);
        break;
      }
    }
  }
  // Both forms hold the same keys, each charged in its own unit: the
  // stored form keeps the stored bytes, the decoded form the decoded
  // bitmap (plain words, or a Roaring bitmap's containers at their stored
  // size).
  EXPECT_EQ(stored_pool.pool_bytes_used(), stored_resident);
  EXPECT_EQ(decoded_pool.pool_bytes_used(), decoded_resident);
  // The oracle saw every kind of fault.
  const FaultInjector::Counters c = stored_faults.counters();
  EXPECT_GT(c.unavailable, 0u);
  EXPECT_GT(c.bit_flips, 0u);
  EXPECT_GT(c.latency_spikes, 0u);
  EXPECT_GT(stored_clock.slept_seconds(), 0.0);
}

TEST(IoStatsTest, AddAccumulates) {
  IoStats a, b;
  a.scans = 1;
  a.io_seconds = 0.5;
  b.scans = 2;
  b.cpu_seconds = 0.25;
  a.Add(b);
  EXPECT_EQ(a.scans, 3u);
  EXPECT_DOUBLE_EQ(a.io_seconds, 0.5);
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 0.25);
  EXPECT_DOUBLE_EQ(a.total_seconds(), 0.75);
}

// --- WAL framing + write-side fault injection (DESIGN.md section 15) ----

std::string WalPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

UpdateBatch SampleBatch(uint64_t seq) {
  UpdateBatch batch;
  batch.seq = seq;
  batch.first_rid = 100;
  batch.inserts = {3, 1, 4};
  batch.updates = {{42, 7, 9}, {17, 2, 5}};
  batch.deletes = {55, 12};
  return batch;
}

TEST(WalTest, AppendReadRoundtrip) {
  const std::string path = WalPath("roundtrip.wal");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(SampleBatch(1)).ok());
    ASSERT_TRUE(writer.value().Append(SampleBatch(2)).ok());
    EXPECT_EQ(writer.value().appends(), 2u);
    EXPECT_EQ(writer.value().size_bytes(), writer.value().bytes_appended());
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().batches.size(), 2u);
  EXPECT_EQ(read.value().truncated_tail_records, 0u);
  const UpdateBatch& got = read.value().batches[1];
  EXPECT_EQ(got.seq, 2u);
  EXPECT_EQ(got.first_rid, 100u);
  EXPECT_EQ(got.inserts, SampleBatch(2).inserts);
  ASSERT_EQ(got.updates.size(), 2u);
  EXPECT_EQ(got.updates[0].rid, 42u);
  EXPECT_EQ(got.updates[0].old_value, 7u);
  EXPECT_EQ(got.updates[0].value, 9u);
  EXPECT_EQ(got.deletes, SampleBatch(2).deletes);
}

TEST(WalTest, MissingFileReadsAsEmptyLog) {
  auto read = ReadWal(WalPath("nonexistent.wal"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().batches.empty());
  EXPECT_EQ(read.value().valid_bytes, 0u);
}

TEST(WalTest, SortByRidIsStableForDuplicateRids) {
  UpdateBatch batch;
  batch.updates = {{9, 0, 1}, {3, 0, 2}, {9, 0, 3}};
  batch.deletes = {8, 2, 5};
  batch.SortByRid();
  ASSERT_EQ(batch.updates.size(), 3u);
  EXPECT_EQ(batch.updates[0].rid, 3u);
  // Both rid-9 updates survive in submission order: last-wins semantics
  // depend on this stability.
  EXPECT_EQ(batch.updates[1].value, 1u);
  EXPECT_EQ(batch.updates[2].value, 3u);
  EXPECT_EQ(batch.deletes, (std::vector<uint64_t>{2, 5, 8}));
}

TEST(WalTest, TornTailIsTrimmedNotFatal) {
  const std::string path = WalPath("torn.wal");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(SampleBatch(1)).ok());
    ASSERT_TRUE(writer.value().Append(SampleBatch(2)).ok());
  }
  const uint64_t first_end = EncodeWalRecord(SampleBatch(1)).size();
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  // Keep the first record and 3 bytes of the second: a classic torn tail.
  ASSERT_EQ(::ftruncate(fileno(f), static_cast<off_t>(first_end + 3)), 0);
  std::fclose(f);

  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().batches.size(), 1u);
  EXPECT_EQ(read.value().batches[0].seq, 1u);
  EXPECT_EQ(read.value().truncated_tail_records, 1u);
  EXPECT_EQ(read.value().valid_bytes, first_end);
}

TEST(WalTest, CorruptPayloadInCompleteRecordIsCorruption) {
  const std::string path = WalPath("corrupt.wal");
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(SampleBatch(1)).ok());
  }
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 20, SEEK_SET), 0);  // inside the payload
  std::fputc(0xFF, f);
  std::fclose(f);
  auto read = ReadWal(path);
  EXPECT_EQ(read.status().code(), Status::Code::kCorruption);
}

TEST(WalTest, InjectedShortWriteRepairsAndRetries) {
  FaultInjector injector({.short_write_first_attempts = 1});
  const std::string path = WalPath("short_write.wal");
  auto writer = WalWriter::Open(path, {.sync = false, .injector = &injector});
  ASSERT_TRUE(writer.ok());
  Status s = writer.value().Append(SampleBatch(1));
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_TRUE(s.IsRetryable());
  // The torn prefix was repaired away: the log is exactly as before.
  EXPECT_EQ(writer.value().size_bytes(), 0u);
  EXPECT_EQ(injector.counters().short_writes, 1u);

  ASSERT_TRUE(writer.value().Append(SampleBatch(1)).ok());
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().batches.size(), 1u);
  EXPECT_EQ(read.value().truncated_tail_records, 0u);
}

TEST(WalTest, InjectedTruncateFailureLeavesLogIntact) {
  FaultInjector injector({.rename_fail_first_attempts = 1});
  const std::string path = WalPath("truncate_fail.wal");
  auto writer = WalWriter::Open(path, {.sync = false, .injector = &injector});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Append(SampleBatch(1)).ok());
  const uint64_t size = writer.value().size_bytes();
  EXPECT_EQ(writer.value().Truncate().code(), Status::Code::kUnavailable);
  EXPECT_EQ(writer.value().size_bytes(), size);
  ASSERT_TRUE(writer.value().Truncate().ok());
  EXPECT_EQ(writer.value().size_bytes(), 0u);
}

TEST(FaultInjectorWriteTest, DeterministicInSeedOpAndAttempt) {
  FaultInjectorOptions options;
  options.seed = 99;
  options.short_write_prob = 0.3;
  options.flush_fail_prob = 0.2;
  options.rename_fail_prob = 0.25;
  // Two injectors with the same seed replay the same fault schedule per
  // (op, attempt) regardless of interleaving with other ops.
  FaultInjector a(options);
  FaultInjector b(options);
  std::vector<FaultInjector::WriteFault> seq_a, seq_b;
  for (int i = 0; i < 64; ++i) {
    seq_a.push_back(a.OnWrite(FaultInjector::WriteOp::kWalAppend));
    a.OnWrite(FaultInjector::WriteOp::kRename);  // interleaved noise
  }
  for (int i = 0; i < 64; ++i) {
    b.OnWrite(FaultInjector::WriteOp::kWalFlush);  // different noise
    seq_b.push_back(b.OnWrite(FaultInjector::WriteOp::kWalAppend));
  }
  EXPECT_EQ(seq_a, seq_b);

  FaultInjectorOptions other = options;
  other.seed = 100;
  FaultInjector c(other);
  std::vector<FaultInjector::WriteFault> seq_c;
  for (int i = 0; i < 64; ++i) {
    seq_c.push_back(c.OnWrite(FaultInjector::WriteOp::kWalAppend));
  }
  EXPECT_NE(seq_a, seq_c);  // the schedule is seed-dependent
}

TEST(FaultInjectorWriteTest, FaultsOnlyApplyToTheirOps) {
  // A short-write draw can only hit WAL appends, flush failures only the
  // flush op, rename failures only rename/truncate — an inapplicable draw
  // is kNone, never a different fault.
  FaultInjectorOptions options;
  options.seed = 7;
  options.short_write_prob = 1.0;
  FaultInjector injector(options);
  EXPECT_EQ(injector.OnWrite(FaultInjector::WriteOp::kWalAppend),
            FaultInjector::WriteFault::kShortWrite);
  EXPECT_EQ(injector.OnWrite(FaultInjector::WriteOp::kWalFlush),
            FaultInjector::WriteFault::kNone);
  EXPECT_EQ(injector.OnWrite(FaultInjector::WriteOp::kRename),
            FaultInjector::WriteFault::kNone);
  EXPECT_EQ(injector.OnWrite(FaultInjector::WriteOp::kWalTruncate),
            FaultInjector::WriteFault::kNone);
  EXPECT_EQ(injector.counters().writes, 4u);
  EXPECT_EQ(injector.counters().short_writes, 1u);
}

TEST(FaultInjectorWriteTest, FirstAttemptsFailDeterministically) {
  FaultInjectorOptions options;
  options.flush_fail_first_attempts = 2;
  FaultInjector injector(options);
  EXPECT_EQ(injector.OnWrite(FaultInjector::WriteOp::kWalFlush),
            FaultInjector::WriteFault::kFailFlush);
  EXPECT_EQ(injector.OnWrite(FaultInjector::WriteOp::kWalFlush),
            FaultInjector::WriteFault::kFailFlush);
  EXPECT_EQ(injector.OnWrite(FaultInjector::WriteOp::kWalFlush),
            FaultInjector::WriteFault::kNone);
  EXPECT_EQ(injector.counters().flush_failures, 2u);
}

TEST(FaultInjectorWriteTest, ShortWriteLengthIsDeterministicAndInRange) {
  FaultInjectorOptions options;
  options.seed = 31;
  FaultInjector a(options);
  FaultInjector b(options);
  for (uint64_t attempt = 0; attempt < 32; ++attempt) {
    const uint64_t len = a.ShortWriteLength(52, attempt);
    EXPECT_EQ(len, b.ShortWriteLength(52, attempt));
    EXPECT_LT(len, 52u);
  }
  EXPECT_EQ(a.ShortWriteLength(0, 3), 0u);
}

}  // namespace
}  // namespace bix
