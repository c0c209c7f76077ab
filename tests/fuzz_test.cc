// Failure-injection / fuzz tests: random and mutated byte streams fed to
// the validating decoders must never crash and must either fail cleanly or
// produce a stream-consistent bitmap; large-cardinality integration checks
// round out the sweep.

#include <gtest/gtest.h>

#include "compress/bbc.h"
#include "compress/wah.h"
#include "query/executor.h"
#include "util/rng.h"
#include "workload/column_gen.h"
#include "workload/query_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

TEST(BbcFuzzTest, RandomStreamsNeverCrashValidatingDecode) {
  Rng rng(101);
  int ok_count = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    BbcEncoded enc;
    enc.bit_count = rng.UniformInt(0, 4096);
    const uint64_t len = rng.UniformInt(0, 64);
    for (uint64_t i = 0; i < len; ++i) {
      enc.data.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
    }
    Result<Bitvector> r = BbcDecode(enc);
    if (r.ok()) {
      ++ok_count;
      // A stream the validator accepts must re-encode losslessly.
      EXPECT_EQ(BbcDecode(BbcEncode(r.value())).value(), r.value());
    }
  }
  // Random streams virtually never cover exactly ceil(bit_count/8) bytes,
  // so (nearly) all must be rejected -- the property under test is that
  // rejection is always clean.
  EXPECT_LT(ok_count, 3000);
  // The empty stream for an empty bitmap is the trivially valid case.
  BbcEncoded empty;
  EXPECT_TRUE(BbcDecode(empty).ok());
}

TEST(BbcFuzzTest, MutatedValidStreamsNeverCrash) {
  Rng rng(102);
  Bitvector bv(5000);
  for (int i = 0; i < 200; ++i) bv.Set(rng.UniformInt(0, 4999));
  const BbcEncoded original = BbcEncode(bv);
  for (int trial = 0; trial < 2000; ++trial) {
    BbcEncoded mutated = original;
    const int mutations = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int m = 0; m < mutations; ++m) {
      if (mutated.data.empty()) break;
      const size_t pos = rng.UniformInt(0, mutated.data.size() - 1);
      mutated.data[pos] = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    Result<Bitvector> r = BbcDecode(mutated);  // must not crash
    if (r.ok()) {
      EXPECT_EQ(r.value().size(), mutated.bit_count);
    }
  }
}

TEST(BbcFuzzTest, TruncationsAlwaysRejectedOrConsistent) {
  Bitvector bv = Bitvector::AllOnes(10'000);
  bv.Clear(5);
  bv.Clear(9000);
  const BbcEncoded original = BbcEncode(bv);
  for (size_t keep = 0; keep < original.data.size(); ++keep) {
    BbcEncoded truncated;
    truncated.bit_count = original.bit_count;
    truncated.data.assign(original.data.begin(),
                          original.data.begin() + keep);
    EXPECT_FALSE(BbcDecode(truncated).ok()) << keep;
  }
}

TEST(BbcFuzzTest, OverrunStreamsRejected) {
  // Streams with trailing garbage past the point where the bitmap is
  // complete must be rejected, not silently accepted or over-read.
  Rng rng(104);
  Bitvector bv(1000);
  for (int i = 0; i < 50; ++i) bv.Set(rng.UniformInt(0, 999));
  const BbcEncoded original = BbcEncode(bv);
  for (int extra = 1; extra <= 16; ++extra) {
    BbcEncoded overrun = original;
    for (int i = 0; i < extra; ++i) {
      overrun.data.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
    }
    Result<Bitvector> r = BbcDecode(overrun);
    ASSERT_FALSE(r.ok()) << extra;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  }
}

TEST(BbcFuzzTest, ExtendedFillVarintOverflowRejected) {
  // Regression for the decoder bound check: an extended-fill atom carries
  // its length as an untrusted varint, so a crafted stream can claim a
  // fill of nearly 2^64 bytes. A bound of the form
  // `size + fill_len + literals > expected` wraps around and lets the
  // decoder attempt the allocation; the overflow-safe check must reject
  // the atom outright.
  const uint8_t control_extended_with_literals = 0x7F;  // F=0 LLLL=15 TTT=7
  const uint8_t control_extended_plain = 0x78;          // F=0 LLLL=15 TTT=0
  const std::vector<uint64_t> huge = {
      UINT64_MAX, UINT64_MAX - 7, UINT64_MAX - 255, uint64_t{1} << 63,
      (uint64_t{1} << 63) + 1};
  for (uint64_t fill_len : huge) {
    for (uint8_t control :
         {control_extended_with_literals, control_extended_plain}) {
      BbcEncoded enc;
      enc.bit_count = 4096;
      enc.data.push_back(control);
      uint64_t v = fill_len;
      while (v >= 0x80) {
        enc.data.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
      }
      enc.data.push_back(static_cast<uint8_t>(v));
      // Literal payload bytes for the TTT=7 variant (fewer than claimed is
      // also fine -- the atom must already be dead at the bound check).
      for (int i = 0; i < 7; ++i) enc.data.push_back(0xAB);
      Result<Bitvector> r = BbcDecode(enc);
      ASSERT_FALSE(r.ok()) << fill_len << " control=" << int(control);
      EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
    }
  }
}

TEST(BbcFuzzTest, BorrowingOverloadMatchesOwnedDecode) {
  // The store's zero-copy path decodes straight from the blob's byte
  // vector; it must agree with the BbcEncoded-based decode on both valid
  // and mutated streams.
  Rng rng(105);
  Bitvector bv(3000);
  for (int i = 0; i < 120; ++i) bv.Set(rng.UniformInt(0, 2999));
  const BbcEncoded enc = BbcEncode(bv);
  Result<Bitvector> borrowed = BbcDecode(enc.data, enc.bit_count);
  ASSERT_TRUE(borrowed.ok());
  EXPECT_EQ(borrowed.value(), bv);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> mutated = enc.data;
    const size_t pos = rng.UniformInt(0, mutated.size() - 1);
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    Result<Bitvector> a = BbcDecode(mutated, enc.bit_count);
    BbcEncoded owned;
    owned.bit_count = enc.bit_count;
    owned.data = mutated;
    Result<Bitvector> b = BbcDecode(owned);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) EXPECT_EQ(a.value(), b.value());
  }
}

TEST(WahFuzzTest, TruncationsNeverCrash) {
  Bitvector bv = Bitvector::AllOnes(8'000);
  bv.Clear(3);
  bv.Clear(7000);
  const WahEncoded original = WahEncode(bv);
  for (size_t keep = 0; keep < original.words.size(); ++keep) {
    WahEncoded truncated;
    truncated.bit_count = original.bit_count;
    truncated.words.assign(original.words.begin(),
                           original.words.begin() + keep);
    EXPECT_FALSE(WahDecode(truncated).ok()) << keep;
  }
}

TEST(WahFuzzTest, RandomWordStreamsNeverCrash) {
  Rng rng(103);
  int ok_count = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    WahEncoded enc;
    enc.bit_count = rng.UniformInt(0, 4096);
    const uint64_t len = rng.UniformInt(0, 32);
    for (uint64_t i = 0; i < len; ++i) {
      enc.words.push_back(static_cast<uint32_t>(rng.UniformInt(0, UINT32_MAX)));
    }
    Result<Bitvector> r = WahDecode(enc);
    if (r.ok()) {
      ++ok_count;
      EXPECT_EQ(r.value().size(), enc.bit_count);
      EXPECT_EQ(WahDecode(WahEncode(r.value())).value(), r.value());
    }
  }
  EXPECT_LT(ok_count, 3000);
}

TEST(IntegrationTest, Cardinality200MatchesNaive) {
  // The paper's second data-set configuration (C = 200): full pipeline
  // spot-check across encodings and components.
  Column col = GenerateZipfColumn(
      {.rows = 20'000, .cardinality = 200, .zipf_z = 1.0, .seed = 200});
  std::vector<QuerySet> sets = GeneratePaperQuerySets(200, 7, 3);
  for (EncodingKind enc : BasicEncodingKinds()) {
    for (uint32_t n : {1u, 2u}) {
      Decomposition d = ChooseSpaceOptimalBases(200, n, enc).value();
      BitmapIndex index = BitmapIndex::Build(col, d, enc, n == 2);
      QueryExecutor exec(&index, {});
      for (const QuerySet& set : sets) {
        for (const MembershipQuery& q : set.queries) {
          ASSERT_EQ(exec.EvaluateMembership(q.values),
                    NaiveEvaluateMembership(col, q.values))
              << EncodingKindName(enc) << " n=" << n;
        }
      }
    }
  }
}

TEST(IntegrationTest, SingleRowAndTwoValueDomains) {
  // Degenerate shapes: 1 row, C = 2, every encoding.
  Column col;
  col.cardinality = 2;
  col.values = {1};
  for (EncodingKind enc : AllEncodingKinds()) {
    BitmapIndex index = BitmapIndex::Build(
        col, Decomposition::SingleComponent(2), enc, false);
    QueryExecutor exec(&index, {});
    EXPECT_EQ(exec.EvaluateInterval({0, 0}).Count(), 0u)
        << EncodingKindName(enc);
    EXPECT_EQ(exec.EvaluateInterval({1, 1}).Count(), 1u)
        << EncodingKindName(enc);
    EXPECT_EQ(exec.EvaluateInterval({0, 1}).Count(), 1u)
        << EncodingKindName(enc);
  }
}

TEST(IntegrationTest, AllValuesEqualColumn) {
  Column col;
  col.cardinality = 10;
  col.values.assign(500, 7);
  for (EncodingKind enc : AllEncodingKinds()) {
    BitmapIndex index = BitmapIndex::Build(
        col, Decomposition::SingleComponent(10), enc, true);
    QueryExecutor exec(&index, {});
    EXPECT_EQ(exec.EvaluateInterval({7, 7}).Count(), 500u);
    EXPECT_EQ(exec.EvaluateInterval({0, 6}).Count(), 0u);
    EXPECT_EQ(exec.EvaluateInterval({8, 9}).Count(), 0u);
  }
}

}  // namespace
}  // namespace bix
