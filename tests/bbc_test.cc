#include <gtest/gtest.h>

#include "compress/bbc.h"
#include "compress/bytes.h"
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

void ExpectRoundtrip(const Bitvector& bv) {
  BbcEncoded enc = BbcEncode(bv);
  Result<Bitvector> dec = BbcDecode(enc);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(dec.value(), bv);
}

TEST(BytesTest, RoundtripVariousSizes) {
  Rng rng(1);
  for (uint64_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u, 1'000'000u}) {
    Bitvector bv = RandomBitvector(n, 0.5, &rng);
    std::vector<uint8_t> bytes = BitvectorToBytes(bv);
    ASSERT_EQ(bytes.size(), (n + 7) / 8);
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ((bytes[i / 8] >> (i % 8)) & 1, bv.Get(i) ? 1 : 0)
          << "n " << n << " bit " << i;
    }
    EXPECT_EQ(BitvectorFromBytes(bytes, n), bv) << "n " << n;
  }
}

TEST(BytesTest, ByteOrderIsLsbFirst) {
  Bitvector bv(16);
  bv.Set(0);   // byte 0, bit 0
  bv.Set(9);   // byte 1, bit 1
  std::vector<uint8_t> bytes = BitvectorToBytes(bv);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x02);
}

TEST(BbcTest, EmptyBitmap) {
  Bitvector bv(0);
  ExpectRoundtrip(bv);
  EXPECT_EQ(BbcEncode(bv).data.size(), 0u);
}

TEST(BbcTest, AllZerosCompressesToFewBytes) {
  Bitvector bv(1'000'000);
  BbcEncoded enc = BbcEncode(bv);
  EXPECT_LE(enc.data.size(), 8u);  // control byte + varint
  ExpectRoundtrip(bv);
}

TEST(BbcTest, AllOnesCompressesToFewBytes) {
  Bitvector bv = Bitvector::AllOnes(1'000'000);
  BbcEncoded enc = BbcEncode(bv);
  // 124999 full 0xFF bytes + a literal tail byte (size not multiple of 8
  // keeps padding zero -> last byte is a literal).
  EXPECT_LE(enc.data.size(), 8u);
  ExpectRoundtrip(bv);
}

TEST(BbcTest, AllOnesNonByteAligned) {
  for (uint64_t n : {1u, 7u, 9u, 63u, 65u, 12345u}) {
    ExpectRoundtrip(Bitvector::AllOnes(n));
  }
}

TEST(BbcTest, SingleBitPositions) {
  for (uint64_t pos : {0u, 1u, 7u, 8u, 100u, 9999u}) {
    Bitvector bv(10000);
    bv.Set(pos);
    BbcEncoded enc = BbcEncode(bv);
    EXPECT_LE(enc.data.size(), 12u) << pos;
    ExpectRoundtrip(bv);
  }
}

TEST(BbcTest, SparseBitmapCompressesWell) {
  Rng rng(3);
  Bitvector bv(1'000'000);
  for (int i = 0; i < 100; ++i) {
    bv.Set(rng.UniformInt(0, 999'999));
  }
  BbcEncoded enc = BbcEncode(bv);
  EXPECT_LT(enc.data.size(), 125'000u / 10);  // >10x compression
  ExpectRoundtrip(bv);
}

TEST(BbcTest, IncompressibleInputOverheadBounded) {
  Rng rng(4);
  Bitvector bv = RandomBitvector(80'000, 0.5, &rng);
  BbcEncoded enc = BbcEncode(bv);
  // Worst case one control byte per 7 literals: 8/7 of verbatim size.
  EXPECT_LE(enc.data.size(), (10'000u * 8) / 7 + 16);
  ExpectRoundtrip(bv);
}

TEST(BbcTest, AlternatingRunsAndLiterals) {
  Bitvector bv(100'000);
  // Pattern: 100-bit one-runs every 1000 bits plus scattered noise.
  for (uint64_t start = 0; start + 100 < 100'000; start += 1000) {
    for (uint64_t i = start; i < start + 100; ++i) bv.Set(i);
  }
  for (uint64_t i = 500; i < 100'000; i += 977) bv.Set(i);
  ExpectRoundtrip(bv);
}

class BbcDensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(BbcDensitySweep, RoundtripRandomDensities) {
  Rng rng(42);
  const double density = GetParam();
  for (uint64_t n : {1u, 8u, 100u, 4096u, 50'000u}) {
    ExpectRoundtrip(RandomBitvector(n, density, &rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, BbcDensitySweep,
                         ::testing::Values(0.0, 0.001, 0.01, 0.1, 0.3, 0.5,
                                           0.7, 0.9, 0.99, 0.999, 1.0));

TEST(BbcTest, DecodeRejectsTruncatedStream) {
  Bitvector bv = Bitvector::AllOnes(10'000);
  BbcEncoded enc = BbcEncode(bv);
  enc.data.pop_back();
  EXPECT_FALSE(BbcDecode(enc).ok());
}

TEST(BbcTest, DecodeRejectsOverlongStream) {
  Bitvector bv(100);
  bv.Set(5);
  BbcEncoded enc = BbcEncode(bv);
  enc.data.push_back(0x07);  // extra atom with 7 literals, truncated
  EXPECT_FALSE(BbcDecode(enc).ok());
}

TEST(BbcTest, DecodeRejectsWrongBitCount) {
  Bitvector bv(1000);
  bv.Set(1);
  BbcEncoded enc = BbcEncode(bv);
  enc.bit_count = 2000;  // stream covers fewer bytes than promised
  EXPECT_FALSE(BbcDecode(enc).ok());
}

TEST(BbcTest, DecodeRejectsNonzeroPadding) {
  // Hand-craft a stream whose final (partial) byte has padding bits set:
  // bit_count = 4 but the literal byte is 0xFF.
  BbcEncoded enc;
  enc.bit_count = 4;
  enc.data = {0x01, 0xFF};  // control: fill_len=0, literals=1; literal 0xFF
  EXPECT_FALSE(BbcDecode(enc).ok());
}

TEST(BbcTest, CompressedSizeMonotoneInRunStructure) {
  // A bitmap with long runs must compress better than the same bit count
  // scattered uniformly.
  const uint64_t n = 1'000'000;
  Bitvector runs(n);
  for (uint64_t i = 0; i < 100'000; ++i) runs.Set(i);  // one long run
  Rng rng(8);
  Bitvector scattered(n);
  for (uint64_t i = 0; i < 100'000; ++i) {
    scattered.Set(rng.UniformInt(0, n - 1));
  }
  EXPECT_LT(BbcEncode(runs).data.size(), BbcEncode(scattered).data.size());
}

}  // namespace
}  // namespace bix
