// Property tests for the WAH comparison codec: encode/decode must round-trip
// every input shape, the one-pass decoder must reject malformed streams at
// every final-group boundary, and WAH and BBC must both stay lossless on
// the same inputs.

#include <gtest/gtest.h>

#include "compress/bbc.h"
#include "compress/codec.h"
#include "compress/wah.h"
#include "util/byte_io.h"
#include "util/rng.h"

namespace bix {
namespace {

Bitvector RandomBitvector(uint64_t n, double density, Rng* rng) {
  Bitvector bv(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(density)) bv.Set(i);
  }
  return bv;
}

struct SizeDensity {
  uint64_t size;
  double density;
};

// --- WAH ---------------------------------------------------------------

class WahSweep : public ::testing::TestWithParam<SizeDensity> {};

TEST_P(WahSweep, Roundtrip) {
  const SizeDensity p = GetParam();
  Rng rng(p.size * 7 + 5);
  Bitvector a = RandomBitvector(p.size, p.density, &rng);
  WahEncoded enc = WahEncode(a);
  Result<Bitvector> dec = WahDecode(enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(dec.value(), a);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WahSweep,
    ::testing::Values(SizeDensity{1, 0.5}, SizeDensity{30, 0.5},
                      SizeDensity{31, 0.9}, SizeDensity{32, 0.5},
                      SizeDensity{62, 1.0}, SizeDensity{63, 0.0},
                      SizeDensity{1000, 0.01}, SizeDensity{99'371, 0.001}));

TEST(WahTest, AllOnesUsesFills) {
  Bitvector bv = Bitvector::AllOnes(31 * 1000);
  WahEncoded enc = WahEncode(bv);
  EXPECT_LE(enc.words.size(), 2u);
  EXPECT_EQ(WahDecode(enc).value(), bv);
}

TEST(WahTest, SparseCompressesWell) {
  Bitvector bv(31 * 10'000);
  bv.Set(5);
  bv.Set(31 * 9999);
  WahEncoded enc = WahEncode(bv);
  EXPECT_LE(enc.words.size(), 6u);
  EXPECT_EQ(WahDecode(enc).value(), bv);
}

TEST(WahTest, DecodeRejectsOverflowingStream) {
  Bitvector bv(100);
  WahEncoded enc = WahEncode(bv);
  enc.words.push_back(0);  // extra literal group
  EXPECT_FALSE(WahDecode(enc).ok());
}

TEST(WahTest, DecodeRejectsPaddingLiteral) {
  // bit_count = 10 but the (single) literal sets bit 20.
  WahEncoded enc;
  enc.bit_count = 10;
  enc.words = {1u << 20};
  EXPECT_FALSE(WahDecode(enc).ok());
}

// --- One-pass decode at the final group's boundaries ---------------------
// Hand-built streams (word layout in compress/wah.h), each run through both
// entry points: the word-level WahDecode and the storage codec's Decode
// over the stream's little-endian byte image.

constexpr uint32_t kFill = 0x80000000u;
constexpr uint32_t kOnes = 0x40000000u;

std::vector<Result<Bitvector>> DecodeBothWays(
    uint64_t bit_count, const std::vector<uint32_t>& words) {
  std::vector<uint8_t> bytes;
  AppendWords32Le(words.data(), words.size(), &bytes);
  std::vector<Result<Bitvector>> out;
  out.push_back(WahDecode(WahEncoded{bit_count, words}));
  out.push_back(GetCodec(CodecId::kWah).Decode(bytes, bit_count));
  return out;
}

void ExpectCorruption(uint64_t bit_count, const std::vector<uint32_t>& words) {
  for (const Result<Bitvector>& r : DecodeBothWays(bit_count, words)) {
    ASSERT_FALSE(r.ok()) << "bit_count " << bit_count;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  }
}

TEST(WahDecodeTest, FinalLiteralWithPaddingBitIsCorruption) {
  // bit_count % 31 == 1: the final group has one payload bit (bit 0).
  ExpectCorruption(32, {kFill | 1, 1u << 1});
  ExpectCorruption(32, {kFill | 1, 1u << 30});
  // bit_count % 31 == 30: only bit 30 of the final group is padding.
  ExpectCorruption(30, {1u << 30});
  ExpectCorruption(61, {0x7FFFFFFEu, 0x7FFFFFFFu});
  // The same streams with only payload bits set decode.
  for (const Result<Bitvector>& r : DecodeBothWays(32, {kFill | 1, 1u})) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().Count(), 1u);
    EXPECT_TRUE(r.value().Get(31));
  }
  for (const Result<Bitvector>& r : DecodeBothWays(30, {0x3FFFFFFFu})) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), Bitvector::AllOnes(30));
  }
}

TEST(WahDecodeTest, OnesFillEndingOnPartialGroupSetsOnlyPayload) {
  // Two groups of ones over 40 bits: the second group has 9 payload bits,
  // and its 22 padding bits must stay clear.
  for (const Result<Bitvector>& r : DecodeBothWays(40, {kFill | kOnes | 2})) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().size(), 40u);
    EXPECT_EQ(r.value().Count(), 40u);
    EXPECT_EQ(r.value(), Bitvector::AllOnes(40));
  }
}

TEST(WahDecodeTest, FillPastTheLastGroupIsCorruption) {
  ExpectCorruption(40, {kFill | kOnes | 3});
  ExpectCorruption(40, {kFill | 3});
  ExpectCorruption(40, {0, kFill | 2});
  // Too few groups is rejected as well.
  ExpectCorruption(40, {kFill | 1});
}

TEST(WahDecodeTest, WholeFinalGroupHasNoPadding) {
  // bit_count % 31 == 0: every bit of the final literal is payload.
  for (const Result<Bitvector>& r :
       DecodeBothWays(62, {kFill | 1, 1u << 30})) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().Count(), 1u);
    EXPECT_TRUE(r.value().Get(61));
  }
  for (const Result<Bitvector>& r : DecodeBothWays(62, {kFill | kOnes | 2})) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), Bitvector::AllOnes(62));
  }
}

TEST(WahVsBbc, BothLosslessSameInputs) {
  Rng rng(21);
  for (double d : {0.001, 0.05, 0.5}) {
    Bitvector bv = RandomBitvector(80'000, d, &rng);
    EXPECT_EQ(BbcDecode(BbcEncode(bv)).value(), bv);
    EXPECT_EQ(WahDecode(WahEncode(bv)).value(), bv);
  }
}

TEST(WahVsBbc, BbcCompressesSparseBitmapsTighter) {
  // BBC's byte granularity beats WAH's 31-bit groups on very sparse data.
  Rng rng(22);
  Bitvector bv = RandomBitvector(1'000'000, 0.0005, &rng);
  EXPECT_LT(BbcEncode(bv).byte_size(), WahEncode(bv).byte_size());
}

}  // namespace
}  // namespace bix
