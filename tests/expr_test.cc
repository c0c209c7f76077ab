#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "expr/bitmap_expr.h"
#include "expr/delta_eval.h"
#include "expr/evaluate.h"
#include "util/rng.h"

namespace bix {
namespace {

TEST(ExprBuilderTest, ConstantsFold) {
  EXPECT_TRUE(ExprNot(ExprConst(false))->const_value);
  EXPECT_FALSE(ExprNot(ExprConst(true))->const_value);

  ExprPtr leaf = ExprLeaf(1, 0);
  // AND with identities and annihilators.
  EXPECT_EQ(ExprAnd(leaf, ExprConst(true)).get(), leaf.get());
  EXPECT_EQ(ExprAnd(leaf, ExprConst(false))->op, ExprOp::kConst);
  EXPECT_FALSE(ExprAnd(leaf, ExprConst(false))->const_value);
  // OR.
  EXPECT_EQ(ExprOr(leaf, ExprConst(false)).get(), leaf.get());
  EXPECT_TRUE(ExprOr(leaf, ExprConst(true))->const_value);
  // XOR: true toggles a NOT, false drops.
  EXPECT_EQ(ExprXor(leaf, ExprConst(false)).get(), leaf.get());
  EXPECT_EQ(ExprXor(leaf, ExprConst(true))->op, ExprOp::kNot);
}

TEST(ExprBuilderTest, DoubleNegationCancels) {
  ExprPtr leaf = ExprLeaf(1, 3);
  EXPECT_EQ(ExprNot(ExprNot(leaf)).get(), leaf.get());
}

TEST(ExprBuilderTest, FlattensNestedSameOp) {
  ExprPtr e = ExprOr(ExprOr(ExprLeaf(1, 0), ExprLeaf(1, 1)),
                     ExprOr(ExprLeaf(1, 2), ExprLeaf(1, 3)));
  ASSERT_EQ(e->op, ExprOp::kOr);
  EXPECT_EQ(e->children.size(), 4u);
}

TEST(ExprBuilderTest, IdempotentDuplicatesDropForAndOr) {
  ExprPtr leaf = ExprLeaf(2, 7);
  EXPECT_EQ(ExprAnd(leaf, leaf).get(), leaf.get());
  EXPECT_EQ(ExprOr(leaf, leaf).get(), leaf.get());
}

TEST(ExprBuilderTest, XorDuplicatesCancel) {
  ExprPtr leaf = ExprLeaf(2, 7);
  ExprPtr e = ExprXor(leaf, leaf);
  ASSERT_EQ(e->op, ExprOp::kConst);
  EXPECT_FALSE(e->const_value);
  // Three copies leave one.
  ExprPtr e3 = ExprXor({leaf, leaf, leaf});
  EXPECT_EQ(e3.get(), leaf.get());
}

TEST(ExprBuilderTest, SingleChildCollapses) {
  ExprPtr leaf = ExprLeaf(1, 1);
  EXPECT_EQ(ExprAnd(std::vector<ExprPtr>{leaf}).get(), leaf.get());
}

TEST(ExprEqualTest, StructuralEquality) {
  EXPECT_TRUE(ExprEqual(ExprLeaf(1, 2), ExprLeaf(1, 2)));
  EXPECT_FALSE(ExprEqual(ExprLeaf(1, 2), ExprLeaf(1, 3)));
  EXPECT_FALSE(ExprEqual(ExprLeaf(1, 2), ExprLeaf(2, 2)));
  EXPECT_TRUE(ExprEqual(ExprAnd(ExprLeaf(1, 0), ExprLeaf(1, 1)),
                        ExprAnd(ExprLeaf(1, 0), ExprLeaf(1, 1))));
  EXPECT_FALSE(ExprEqual(ExprAnd(ExprLeaf(1, 0), ExprLeaf(1, 1)),
                         ExprOr(ExprLeaf(1, 0), ExprLeaf(1, 1))));
}

TEST(ExprLeavesTest, CountDistinctLeaves) {
  ExprPtr e = ExprOr(ExprAnd(ExprLeaf(1, 0), ExprLeaf(2, 0)),
                     ExprAnd(ExprLeaf(1, 0), ExprNot(ExprLeaf(2, 1))));
  EXPECT_EQ(CountDistinctLeaves(e), 3u);
  EXPECT_EQ(CountDistinctLeaves(ExprConst(true)), 0u);
}

TEST(ExprToStringTest, RendersOperators) {
  ExprPtr e = ExprOr(ExprAnd(ExprLeaf(2, 8), ExprNot(ExprLeaf(1, 6))),
                     ExprLeaf(2, 9));
  EXPECT_EQ(ExprToString(e), "((B2^8 & ~B1^6) | B2^9)");
}

class EvalTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 128;

  EvalTest() {
    Rng rng(11);
    for (uint32_t s = 0; s < 4; ++s) {
      Bitvector bv(kRows);
      for (uint64_t i = 0; i < kRows; ++i) {
        if (rng.Bernoulli(0.4)) bv.Set(i);
      }
      bitmaps_.push_back(std::make_shared<const Bitvector>(std::move(bv)));
    }
  }

  DecodedLeafFetcher Fetcher() {
    return [this](BitmapKey key) {
      ++fetches_;
      EXPECT_EQ(key.component, 1u);
      return DecodedBitmap::Plain(bitmaps_[key.slot]);
    };
  }

  Bitvector Eval(const ExprPtr& e) {
    Bitvector rows;
    EvaluateUnionBlocked({e}, kRows, Fetcher(), &rows);
    return rows;
  }

  // Shared handles the evaluator borrows, as it borrows the cache's.
  std::vector<std::shared_ptr<const Bitvector>> bitmaps_;
  int fetches_ = 0;
};

TEST_F(EvalTest, EvaluatesConstants) {
  EXPECT_EQ(Eval(ExprConst(false)).Count(), 0u);
  EXPECT_EQ(Eval(ExprConst(true)).Count(), kRows);
  EXPECT_EQ(fetches_, 0);
}

TEST_F(EvalTest, EvaluatesLeafAndOperators) {
  ExprPtr e = ExprOr(ExprAnd(ExprLeaf(1, 0), ExprLeaf(1, 1)),
                     ExprXor(ExprLeaf(1, 2), ExprNot(ExprLeaf(1, 3))));
  Bitvector expected = Bitvector::Or(
      Bitvector::And(*bitmaps_[0], *bitmaps_[1]),
      Bitvector::Xor(*bitmaps_[2], Bitvector::Not(*bitmaps_[3])));
  EXPECT_EQ(Eval(e), expected);
}

TEST_F(EvalTest, FetchesEachDistinctLeafOnce) {
  ExprPtr e = ExprOr(ExprAnd(ExprLeaf(1, 0), ExprLeaf(1, 1)),
                     ExprAnd(ExprLeaf(1, 0), ExprNot(ExprLeaf(1, 1))));
  Eval(e);
  EXPECT_EQ(fetches_, 2);
}

// ValueSet answers exactly its definition: dense member sets (one mask,
// word boundaries straddled), wide sparse sets (sorted fallback), the empty
// set, and intervals with and without negation.
TEST(ValueSetTest, ContainsMatchesDefinition) {
  const std::vector<std::vector<uint32_t>> sets = {
      {5},
      {63, 64},
      {0, 2, 63, 64, 65, 127, 128, 200},
      {1000, 1063, 1064, 1127},
      {0, 70000},                          // wider than the mask allows
      {7, 3000000000u, UINT32_MAX, 7},     // duplicates, domain top
      {}};
  std::vector<uint32_t> probes = {0, 1, UINT32_MAX, UINT32_MAX - 1};
  for (uint32_t v = 0; v < 1200; ++v) probes.push_back(v);
  for (const std::vector<uint32_t>& members : sets) {
    for (uint32_t m : members) {
      probes.push_back(m);
      if (m > 0) probes.push_back(m - 1);
      if (m < UINT32_MAX) probes.push_back(m + 1);
    }
  }
  for (const std::vector<uint32_t>& members : sets) {
    const ValueSet set = ValueSet::Members(members);
    for (uint32_t v : probes) {
      const bool expected =
          std::find(members.begin(), members.end(), v) != members.end();
      ASSERT_EQ(set.Contains(v), expected) << "v=" << v;
    }
  }
  for (bool negated : {false, true}) {
    const ValueSet interval = ValueSet::Interval(64, 127, negated);
    for (uint32_t v : probes) {
      ASSERT_EQ(interval.Contains(v), (64 <= v && v <= 127) != negated)
          << "v=" << v;
    }
  }
}

}  // namespace
}  // namespace bix
