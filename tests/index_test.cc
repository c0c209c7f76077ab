#include <gtest/gtest.h>

#include "index/bitmap_index.h"
#include "index/decomposition.h"
#include "workload/column_gen.h"

namespace bix {
namespace {

TEST(DecompositionTest, MakeValidatesInput) {
  EXPECT_FALSE(Decomposition::Make(0, {10}).ok());
  EXPECT_FALSE(Decomposition::Make(10, {}).ok());
  EXPECT_FALSE(Decomposition::Make(10, {1, 10}).ok());
  EXPECT_FALSE(Decomposition::Make(10, {3, 3}).ok());  // 9 < 10
  EXPECT_TRUE(Decomposition::Make(10, {3, 4}).ok());
  EXPECT_TRUE(Decomposition::Make(10, {10}).ok());
}

TEST(DecompositionTest, PaperBase34Example) {
  // Paper Figure 2: base-<3,4> for C = 10; value 9 = 2*4+1 -> digits
  // (v2, v1) = (2, 1).
  Decomposition d = Decomposition::Make(10, {3, 4}).value();
  EXPECT_EQ(d.num_components(), 2u);
  EXPECT_EQ(d.base(1), 4u);  // least significant
  EXPECT_EQ(d.base(2), 3u);
  EXPECT_EQ(d.Digit(9, 1), 1u);
  EXPECT_EQ(d.Digit(9, 2), 2u);
  EXPECT_EQ(d.Digit(3, 1), 3u);  // 3 = 0*4+3 (paper row 1)
  EXPECT_EQ(d.Digit(3, 2), 0u);
  EXPECT_EQ(d.ToString(), "<3,4>");
}

TEST(DecompositionTest, DigitsComposeRoundtrip) {
  for (uint32_t c : {2u, 7u, 10u, 50u, 200u}) {
    for (auto& bases : EnumerateBaseSequences(c, 2)) {
      Decomposition d = Decomposition::Make(c, bases).value();
      for (uint32_t v = 0; v < c; ++v) {
        EXPECT_EQ(d.Compose(d.Digits(v)), v) << c << " " << d.ToString();
      }
    }
  }
}

TEST(DecompositionTest, DigitMatchesDigits) {
  Decomposition d = Decomposition::Make(1000, {10, 10, 10}).value();
  for (uint32_t v : {0u, 357u, 999u}) {
    auto digits = d.Digits(v);
    for (uint32_t i = 1; i <= 3; ++i) {
      EXPECT_EQ(d.Digit(v, i), digits[i - 1]);
    }
  }
  EXPECT_EQ(d.Digit(357, 1), 7u);
  EXPECT_EQ(d.Digit(357, 2), 5u);
  EXPECT_EQ(d.Digit(357, 3), 3u);
}

TEST(DecompositionTest, EnumerateBaseSequencesCoversAndIsValid) {
  auto seqs = EnumerateBaseSequences(10, 2);
  EXPECT_FALSE(seqs.empty());
  for (const auto& seq : seqs) {
    ASSERT_EQ(seq.size(), 2u);
    uint64_t prod = 1;
    for (uint32_t b : seq) {
      EXPECT_GE(b, 2u);
      prod *= b;
    }
    EXPECT_GE(prod, 10u);
  }
  // <5,2>, <4,3>, <3,4>, <2,5>, ... must be present.
  auto contains = [&](std::vector<uint32_t> want) {
    for (const auto& seq : seqs) {
      if (seq == want) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains({5, 2}));
  EXPECT_TRUE(contains({2, 5}));
  EXPECT_TRUE(contains({4, 3}));
  EXPECT_TRUE(contains({3, 4}));
}

TEST(ChooseBasesTest, SingleComponentIsCardinality) {
  Decomposition d =
      ChooseSpaceOptimalBases(50, 1, EncodingKind::kEquality).value();
  EXPECT_EQ(d.num_components(), 1u);
  EXPECT_EQ(d.base(1), 50u);
}

TEST(ChooseBasesTest, TwoComponentEqualityC50) {
  // Minimal sum of bases covering 50: <8,7> (15 bitmaps) beats <10,5> (15)
  // ties allowed, but must be <= 15 and cover.
  Decomposition d =
      ChooseSpaceOptimalBases(50, 2, EncodingKind::kEquality).value();
  EXPECT_EQ(TotalBitmaps(d, EncodingKind::kEquality), 15u);
}

TEST(ChooseBasesTest, EqualityExploitsBaseTwoFootnote) {
  // For equality encoding a base-2 component stores a single bitmap, so the
  // best 6-component decomposition of 50 is all-binary: 6 bitmaps.
  Decomposition d =
      ChooseSpaceOptimalBases(50, 6, EncodingKind::kEquality).value();
  EXPECT_EQ(TotalBitmaps(d, EncodingKind::kEquality), 6u);
}

TEST(ChooseBasesTest, IntervalHalvesRange) {
  Decomposition di =
      ChooseSpaceOptimalBases(50, 1, EncodingKind::kInterval).value();
  Decomposition dr =
      ChooseSpaceOptimalBases(50, 1, EncodingKind::kRange).value();
  EXPECT_EQ(TotalBitmaps(di, EncodingKind::kInterval), 25u);
  EXPECT_EQ(TotalBitmaps(dr, EncodingKind::kRange), 49u);
}

TEST(ChooseBasesTest, RejectsTooManyComponents) {
  EXPECT_FALSE(ChooseSpaceOptimalBases(50, 7, EncodingKind::kEquality).ok());
  EXPECT_TRUE(ChooseSpaceOptimalBases(50, 6, EncodingKind::kEquality).ok());
}

TEST(BitmapIndexTest, BuildsPaperExampleEqualityIndex) {
  // Paper Figure 1(b): equality index over the 12-record example.
  Column col = PaperExampleColumn();
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(10),
                         EncodingKind::kEquality, /*compressed=*/false);
  EXPECT_EQ(index.BitmapCount(), 10u);
  EXPECT_EQ(index.row_count(), 12u);
  // E^2 has bits for records 2, 4, 6 (1-based in the paper; 1,3,5 here).
  Bitvector e2 = index.store().Materialize({1, 2});
  EXPECT_EQ(e2, Bitvector::FromPositions(12, {1, 3, 5}));
  // E^9 has record 7 (paper) = row 6.
  EXPECT_EQ(index.store().Materialize({1, 9}),
            Bitvector::FromPositions(12, {6}));
}

TEST(BitmapIndexTest, BuildsPaperExampleRangeIndex) {
  // Paper Figure 1(c): R^0 has a bit only for the record with value 0
  // (record 8, row 7); R^8 covers everything but value 9 (record 7, row 6).
  Column col = PaperExampleColumn();
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(10),
                         EncodingKind::kRange, /*compressed=*/false);
  EXPECT_EQ(index.BitmapCount(), 9u);
  EXPECT_EQ(index.store().Materialize({1, 0}),
            Bitvector::FromPositions(12, {7}));
  Bitvector r8 = index.store().Materialize({1, 8});
  Bitvector expected = Bitvector::AllOnes(12);
  expected.Clear(6);
  EXPECT_EQ(r8, expected);
}

TEST(BitmapIndexTest, MultiComponentDigitBitmaps) {
  // Base-<3,4> equality index (paper Figure 2b): record with value 9
  // (row 6) sets E_2^2 and E_1^1.
  Column col = PaperExampleColumn();
  Decomposition d = Decomposition::Make(10, {3, 4}).value();
  BitmapIndex index = BitmapIndex::Build(col, d, EncodingKind::kEquality,
                                         /*compressed=*/false);
  EXPECT_EQ(index.BitmapCount(), 7u);  // 3 + 4
  EXPECT_TRUE(index.store().Materialize({2, 2}).Get(6));
  EXPECT_TRUE(index.store().Materialize({1, 1}).Get(6));
  EXPECT_FALSE(index.store().Materialize({2, 0}).Get(6));
}

TEST(BitmapIndexTest, CompressedStoresSmallerOnSkewedData) {
  Column col = GenerateZipfColumn({.rows = 20'000, .cardinality = 50,
                                   .zipf_z = 2.0, .seed = 7});
  BitmapIndex unc =
      BitmapIndex::Build(col, Decomposition::SingleComponent(50),
                         EncodingKind::kEquality, /*compressed=*/false);
  BitmapIndex cmp =
      BitmapIndex::Build(col, Decomposition::SingleComponent(50),
                         EncodingKind::kEquality, /*compressed=*/true);
  EXPECT_LT(cmp.TotalStoredBytes(), unc.TotalStoredBytes());
  // Contents identical after decode.
  for (uint32_t s = 0; s < 50; ++s) {
    EXPECT_EQ(cmp.store().Materialize({1, s}),
              unc.store().Materialize({1, s}));
  }
}

TEST(BitmapIndexTest, RecordTouchesMatchEncoding) {
  // Section 4.2's update cost: the bitmaps a record with value v sets a
  // bit in, over a single component of base 10.
  const auto touched = [](EncodingKind kind, uint32_t v) {
    std::vector<uint32_t> slots;
    GetEncoding(kind).SlotsForValue(10, v, &slots);
    return slots.size();
  };
  // E touches 1; value v touches R^v..R^{C-2}, i.e. C-1-v of them.
  EXPECT_EQ(touched(EncodingKind::kEquality, 3), 1u);
  EXPECT_EQ(touched(EncodingKind::kRange, 0), 9u);
  EXPECT_EQ(touched(EncodingKind::kRange, 9), 0u);
  EXPECT_EQ(touched(EncodingKind::kInterval, 0), 1u);  // only I^0
  EXPECT_EQ(touched(EncodingKind::kInterval, 4), 5u);  // I^0..I^4 (m = 4)
  EXPECT_EQ(touched(EncodingKind::kInterval, 9), 0u);  // in no interval bitmap
}

}  // namespace
}  // namespace bix
