// Differential tests for the Roaring container codec and the codec
// registry: every generated bitmap must round trip bit-for-bit through
// every codec, and the block reader the evaluator consumes Roaring leaves
// through must yield exactly the plain form, block by block.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/roaring.h"
#include "core/bitmap_index_facade.h"
#include "theory/cost_model.h"
#include "util/rng.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

constexpr uint32_t kChunk = RoaringBitmap::kChunkBits;

// ------------------------------------------------------------ generators --

Bitvector RandomDense(uint64_t bits, double p, uint64_t seed) {
  Rng rng(seed);
  Bitvector bv(bits);
  for (uint64_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(p)) bv.Set(i);
  }
  return bv;
}

Bitvector RandomSparse(uint64_t bits, uint64_t set_count, uint64_t seed) {
  Rng rng(seed);
  Bitvector bv(bits);
  for (uint64_t i = 0; i < set_count && bits > 0; ++i) {
    bv.Set(rng.UniformInt(0, bits - 1));
  }
  return bv;
}

// Alternating 0/1 runs with geometric-ish random lengths: exercises run
// containers and the run detection in both BBC and WAH.
Bitvector RandomRunHeavy(uint64_t bits, uint64_t max_run, uint64_t seed) {
  Rng rng(seed);
  Bitvector bv(bits);
  uint64_t i = 0;
  bool one = rng.Bernoulli(0.5);
  while (i < bits) {
    uint64_t len = rng.UniformInt(1, max_run);
    if (one) {
      for (uint64_t j = i; j < i + len && j < bits; ++j) bv.Set(j);
    }
    i += len;
    one = !one;
  }
  return bv;
}

// Bits clustered on every structural boundary the codecs care about:
// chunk edges, word edges, the array/bitset cutoff, first and last bit.
Bitvector Adversarial(uint64_t bits, uint64_t seed) {
  Rng rng(seed);
  Bitvector bv(bits);
  auto set_if = [&](uint64_t i) {
    if (i < bits) bv.Set(i);
  };
  set_if(0);
  set_if(bits - 1);
  for (uint64_t edge = kChunk; edge <= bits; edge += kChunk) {
    set_if(edge - 1);
    set_if(edge);
    set_if(edge + 1);
  }
  for (uint64_t edge = 64; edge <= bits; edge += 8191) {
    set_if(edge - 1);
    set_if(edge);
  }
  // One chunk pushed right past the array cutoff so it flips to bitset.
  const uint64_t base = bits > kChunk ? kChunk : 0;
  for (uint32_t i = 0; i <= RoaringBitmap::kArrayCutoff; ++i) {
    set_if(base + 2 * i);
  }
  // A little noise so runs are broken irregularly.
  for (int i = 0; i < 64; ++i) set_if(rng.UniformInt(0, bits - 1));
  return bv;
}

// The shared corpus: ragged tails (sizes straddling word and chunk
// boundaries), empty, all-ones, and each structural family.
std::vector<Bitvector> Corpus() {
  std::vector<Bitvector> out;
  const uint64_t sizes[] = {1,          63,         64,      65,
                            1000,       kChunk - 1, kChunk,  kChunk + 1,
                            3 * kChunk + 777};
  for (uint64_t bits : sizes) {
    out.push_back(Bitvector(bits));  // empty
    out.push_back(Bitvector::AllOnes(bits));
    out.push_back(RandomDense(bits, 0.5, 11 + bits));
    out.push_back(RandomDense(bits, 0.05, 12 + bits));
    out.push_back(RandomSparse(bits, bits / 100 + 1, 13 + bits));
    out.push_back(RandomRunHeavy(bits, 200, 14 + bits));
    out.push_back(Adversarial(bits, 15 + bits));
  }
  return out;
}

// ------------------------------------------------- codec round-tripping --

TEST(CodecRoundTrip, EveryCorpusBitmapThroughEveryCodec) {
  for (const Bitvector& bv : Corpus()) {
    for (int c = 0; c < kNumCodecs; ++c) {
      const CodecInterface& codec = GetCodec(static_cast<CodecId>(c));
      const std::vector<uint8_t> bytes = codec.Encode(bv);
      Result<Bitvector> back = codec.Decode(bytes, bv.size());
      ASSERT_TRUE(back.ok())
          << codec.name() << " " << bv.size() << ": "
          << back.status().ToString();
      EXPECT_EQ(back.value(), bv) << codec.name() << " " << bv.size();

      Result<DecodedBitmap> resident = codec.DecodeResident(bytes, bv.size());
      ASSERT_TRUE(resident.ok()) << codec.name();
      EXPECT_EQ(resident.value().Count(), bv.Count());
      EXPECT_EQ(resident.value().bits(), bv.size());
      const DecodedBitmap& d = resident.value();
      EXPECT_EQ(d.is_roaring() ? d.roaring()->ToBitvector() : *d.plain(), bv)
          << codec.name() << " " << bv.size();
    }
  }
}

TEST(CodecRoundTrip, ResidentFormMatchesCodec) {
  const Bitvector bv = RandomRunHeavy(kChunk + 100, 50, 21);
  for (int c = 0; c < kNumCodecs; ++c) {
    const CodecId id = static_cast<CodecId>(c);
    const CodecInterface& codec = GetCodec(id);
    Result<DecodedBitmap> d = codec.DecodeResident(codec.Encode(bv), bv.size());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.value().is_roaring(), id == CodecId::kRoaring)
        << codec.name();
  }
}

TEST(RoaringSerialization, RoundTripAndByteSize) {
  for (const Bitvector& bv : Corpus()) {
    const RoaringBitmap rb = RoaringBitmap::FromBitvector(bv);
    EXPECT_EQ(rb.Count(), bv.Count());
    EXPECT_EQ(rb.bit_count(), bv.size());
    const std::vector<uint8_t> bytes = rb.Serialize();
    EXPECT_EQ(bytes.size(), rb.byte_size());
    Result<RoaringBitmap> back = RoaringBitmap::Deserialize(bytes, bv.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value().ToBitvector(), bv);
  }
}

TEST(RoaringSerialization, CorruptBytesRejectedNotCrashed) {
  const Bitvector bv = Adversarial(2 * kChunk + 99, 31);
  const RoaringBitmap rb = RoaringBitmap::FromBitvector(bv);
  const std::vector<uint8_t> good = rb.Serialize();

  // Truncations at every prefix length must fail cleanly.
  for (size_t keep : {size_t{0}, size_t{3}, good.size() / 2,
                      good.size() - 1}) {
    std::vector<uint8_t> bad(good.begin(), good.begin() + keep);
    Result<RoaringBitmap> r = RoaringBitmap::Deserialize(bad, bv.size());
    EXPECT_FALSE(r.ok()) << "keep=" << keep;
  }
  // Trailing garbage is corruption, not silently ignored.
  std::vector<uint8_t> extra = good;
  extra.push_back(0xAB);
  EXPECT_FALSE(RoaringBitmap::Deserialize(extra, bv.size()).ok());

  // Single-byte flips either fail typed or decode to *some* valid bitmap
  // whose invariants hold — never an abort. (A flip inside a bitset
  // container payload is indistinguishable from data; the storage layer's
  // CRC catches those.)
  Rng rng(32);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bad = good;
    const size_t off = rng.UniformInt(0, bad.size() - 1);
    bad[off] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
    Result<RoaringBitmap> r = RoaringBitmap::Deserialize(bad, bv.size());
    if (r.ok()) {
      EXPECT_LE(r.value().ToBitvector().Count(), bv.size());
    } else {
      EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
    }
  }
}

// ---------------------------------------------------------- block reader --

// Reads `rb` the way the evaluator does — 256-word blocks in increasing
// order, scratch refilled with garbage before each read so a reader that
// leaves stale words shows — and compares every block with `want`.
void ExpectBlocksMatch(const RoaringBitmap& rb, const Bitvector& want,
                       const std::string& label) {
  constexpr uint32_t kBlockWords = 256;
  const std::vector<uint64_t>& words = want.words();
  RoaringBitmap::BlockReader reader(&rb);
  std::vector<uint64_t> scratch(kBlockWords);
  for (uint64_t base = 0; base < words.size(); base += kBlockWords) {
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(kBlockWords, words.size() - base));
    std::fill(scratch.begin(), scratch.end(), 0xA5A5A5A5A5A5A5A5ull);
    const uint64_t* block = reader.Read(base, len, scratch.data());
    ASSERT_TRUE(std::equal(block, block + len, words.begin() + base))
        << label << " block at word " << base;
  }
}

TEST(RoaringBlockReader, EveryBlockMatchesToBitvector) {
  // One chunk per case, then a partial last chunk:
  //   0: array  — a few values, in some blocks only;
  //   1: absent — no bits at all;
  //   2: bitset — dense noise;
  //   3: run    — runs crossing block edges, one covering whole blocks;
  //   4: run    — partial chunk, a run reaching the last bit.
  const uint64_t bits = 4 * uint64_t{kChunk} + 20000;
  Bitvector bv(bits);
  for (uint64_t v : {3u, 64u, 16383u, 16384u, 40000u, 65535u}) bv.Set(v);
  Rng rng(71);
  for (uint64_t i = 2 * uint64_t{kChunk}; i < 3 * uint64_t{kChunk}; ++i) {
    if (rng.Bernoulli(0.5)) bv.Set(i);
  }
  const uint64_t c3 = 3 * uint64_t{kChunk};
  for (uint64_t i = c3 + 16000; i < c3 + 16400; ++i) bv.Set(i);
  for (uint64_t i = c3 + 20000; i < c3 + 60000; ++i) bv.Set(i);
  bv.Set(c3 + 65535);
  const uint64_t c4 = 4 * uint64_t{kChunk};
  for (uint64_t i = c4 + 100; i < c4 + 300; ++i) bv.Set(i);
  for (uint64_t i = c4 + 19000; i < bits; ++i) bv.Set(i);

  const RoaringBitmap rb = RoaringBitmap::FromBitvector(bv);
  using Type = RoaringBitmap::ContainerType;
  ASSERT_EQ(rb.container_count(), 4u);
  EXPECT_EQ(rb.containers()[0].key, 0u);
  EXPECT_EQ(rb.containers()[0].type, Type::kArray);
  EXPECT_EQ(rb.containers()[1].key, 2u);
  EXPECT_EQ(rb.containers()[1].type, Type::kBitset);
  EXPECT_EQ(rb.containers()[2].type, Type::kRun);
  EXPECT_EQ(rb.containers()[3].type, Type::kRun);
  const Bitvector expanded = rb.ToBitvector();
  ASSERT_EQ(expanded, bv);
  ExpectBlocksMatch(rb, expanded, "mixed containers");

  for (const Bitvector& c : Corpus()) {
    const RoaringBitmap r = RoaringBitmap::FromBitvector(c);
    ExpectBlocksMatch(r, r.ToBitvector(), "corpus size=" +
                                              std::to_string(c.size()));
  }
}

TEST(RoaringBlockReader, ReadingBlocksNeverFullyDecodes) {
  const Bitvector bv = RandomRunHeavy(3 * kChunk + 777, 100, 41);
  const RoaringBitmap rb = RoaringBitmap::FromBitvector(bv);
  RoaringStats::Reset();
  ExpectBlocksMatch(rb, bv, "run heavy");
  EXPECT_EQ(RoaringStats::full_decodes(), 0u)
      << "reading blocks expanded a whole bitmap";
  (void)rb.ToBitvector();
  EXPECT_EQ(RoaringStats::full_decodes(), 1u);
}

// ----------------------------------------------------- advisor and model --

TEST(CodecAdvisor, PicksByShape) {
  // Empty domain and pathological shapes fall back to verbatim.
  EXPECT_EQ(AdviseCodec(BitmapShape{0, 0, 0}), CodecId::kVerbatim);
  // All-zero bitmap: Roaring stores it in a handful of bytes.
  EXPECT_EQ(AdviseCodec(AnalyzeBitmap(Bitvector(100000))), CodecId::kRoaring);
  // Sparse: array containers win.
  EXPECT_EQ(AdviseCodec(AnalyzeBitmap(RandomSparse(1 << 20, 100, 51))),
            CodecId::kRoaring);
  // Clustered long runs: run containers win.
  EXPECT_EQ(AdviseCodec(AnalyzeBitmap(RandomRunHeavy(1 << 20, 5000, 52))),
            CodecId::kRoaring);
  // Mid-density noise: incompressible, stay verbatim.
  EXPECT_EQ(AdviseCodec(AnalyzeBitmap(RandomDense(1 << 20, 0.5, 53))),
            CodecId::kVerbatim);
}

TEST(CodecAdvisor, AnalyzeBitmapCountsRuns) {
  Bitvector bv(200);
  for (uint64_t i = 10; i < 20; ++i) bv.Set(i);   // one run of 10
  for (uint64_t i = 63; i < 66; ++i) bv.Set(i);   // run across a word edge
  bv.Set(199);                                    // run of 1 at the tail
  const BitmapShape shape = AnalyzeBitmap(bv);
  EXPECT_EQ(shape.bit_count, 200u);
  EXPECT_EQ(shape.set_bits, 14u);
  EXPECT_EQ(shape.runs, 3u);
}

TEST(CostModel, EstimateTracksRealEncodersWithinBoundedFactor) {
  // The analytic estimate must stay within a bounded factor of the real
  // encoded size on every generated shape — it exists to rank codecs, not
  // to predict bytes exactly. Verbatim and Roaring are pinned tight;
  // BBC/WAH get an order of magnitude because aggregate (set_bits, runs)
  // cannot see sub-word clustering, which swings their literal cost ~10x.
  for (const Bitvector& bv : Corpus()) {
    if (bv.size() < 1000) continue;  // tiny bitmaps are all headers
    const BitmapShape s = AnalyzeBitmap(bv);
    for (int c = 0; c < kNumCodecs; ++c) {
      const CodecId id = static_cast<CodecId>(c);
      const uint64_t actual = GetCodec(id).Encode(bv).size();
      const uint64_t est =
          EstimateStoredBytes(id, s.bit_count, s.set_bits, s.runs);
      if (actual == 0) continue;
      const double bound =
          (id == CodecId::kBbc || id == CodecId::kWah) ? 32.0 : 8.0;
      const double ratio = static_cast<double>(est) /
                           static_cast<double>(actual);
      EXPECT_GT(ratio, 1.0 / bound)
          << CodecName(id) << " size=" << bv.size() << " est=" << est
          << " actual=" << actual << " set=" << s.set_bits
          << " runs=" << s.runs;
      EXPECT_LT(ratio, bound)
          << CodecName(id) << " size=" << bv.size() << " est=" << est
          << " actual=" << actual << " set=" << s.set_bits
          << " runs=" << s.runs;
    }
  }
}

// ------------------------------------- end-to-end service differential --

// The acceptance pin: all seven encoding schemes return bit-identical
// query results whichever codec stores their bitmaps, all the way through
// QueryService (workers, sharded cache, decoded-handle evaluation).
TEST(ServiceDifferential, SevenEncodingsTimesFiveCodecsBitIdentical) {
  const Column col = GenerateZipfColumn(
      {.rows = 4000, .cardinality = 18, .zipf_z = 1.1, .seed = 61});
  const std::vector<IntervalQuery> queries = {
      {0, 17, false}, {0, 0, false},  {17, 17, false}, {3, 9, false},
      {5, 6, false},  {9, 16, false}, {1, 14, false},
  };
  std::vector<Bitvector> expected;
  expected.reserve(queries.size());
  for (const IntervalQuery& q : queries) {
    expected.push_back(NaiveEvaluateInterval(col, q));
  }

  const StorageCodec codecs[] = {StorageCodec::kVerbatim, StorageCodec::kBbc,
                                 StorageCodec::kWah, StorageCodec::kRoaring,
                                 StorageCodec::kAuto};
  for (EncodingKind encoding : AllEncodingKinds()) {
    for (StorageCodec codec : codecs) {
      IndexConfig config;
      config.encoding = encoding;
      config.codec = codec;
      Result<BitmapIndex> index = BuildIndex(col, config);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      ServiceOptions options;
      options.num_workers = 2;
      Result<std::unique_ptr<QueryService>> service =
          Serve(&index.value(), options);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        QueryResult r =
            service.value()->Submit(ServiceQuery::Interval(queries[qi])).get();
        ASSERT_TRUE(r.status.ok())
            << EncodingKindName(encoding) << "/" << StorageCodecName(codec)
            << ": " << r.status.ToString();
        EXPECT_EQ(r.rows, expected[qi])
            << EncodingKindName(encoding) << "/" << StorageCodecName(codec)
            << " query " << qi;
      }
      service.value()->Shutdown();
    }
  }
}

}  // namespace
}  // namespace bix
