// Differential fuzz test for the expression builders: random operator
// trees are built twice — once through the simplifying builders
// (ExprAnd/ExprOr/ExprXor/ExprNot, which flatten, fold constants and
// cancel duplicates) and once evaluated directly from the recipe — and the
// results must agree bit for bit. This pins the algebraic rewrites the
// scan-count accounting relies on.

#include <gtest/gtest.h>

#include "expr/evaluate.h"
#include "util/rng.h"

namespace bix {
namespace {

constexpr uint64_t kRows = 257;  // deliberately not word-aligned
constexpr uint32_t kLeaves = 5;

struct Env {
  // Shared handles the evaluator borrows, as it borrows the cache's.
  std::vector<std::shared_ptr<const Bitvector>> bitmaps;

  explicit Env(uint64_t seed) {
    Rng rng(seed);
    for (uint32_t s = 0; s < kLeaves; ++s) {
      Bitvector bv(kRows);
      for (uint64_t i = 0; i < kRows; ++i) {
        if (rng.Bernoulli(0.4)) bv.Set(i);
      }
      bitmaps.push_back(std::make_shared<const Bitvector>(std::move(bv)));
    }
  }

  DecodedLeafFetcher Fetcher() const {
    return [this](BitmapKey key) {
      return DecodedBitmap::Plain(bitmaps[key.slot]);
    };
  }
};

// Builds a random expression via the builders while computing its
// reference value directly.
struct Built {
  ExprPtr expr;
  Bitvector value;
};

Built BuildRandom(const Env& env, Rng* rng, int depth) {
  const uint64_t choice = rng->UniformInt(0, depth <= 0 ? 1 : 5);
  switch (choice) {
    case 0: {  // leaf
      const uint32_t s = static_cast<uint32_t>(rng->UniformInt(0, kLeaves - 1));
      return {ExprLeaf(1, s), *env.bitmaps[s]};
    }
    case 1: {  // constant
      const bool v = rng->Bernoulli(0.5);
      return {ExprConst(v),
              v ? Bitvector::AllOnes(kRows) : Bitvector(kRows)};
    }
    case 2: {  // NOT
      Built child = BuildRandom(env, rng, depth - 1);
      child.value.NotSelf();
      return {ExprNot(std::move(child.expr)), std::move(child.value)};
    }
    default: {  // AND / OR / XOR with 2-4 children
      const uint64_t arity = rng->UniformInt(2, 4);
      std::vector<ExprPtr> children;
      std::vector<Bitvector> values;
      for (uint64_t i = 0; i < arity; ++i) {
        Built child = BuildRandom(env, rng, depth - 1);
        children.push_back(std::move(child.expr));
        values.push_back(std::move(child.value));
      }
      Bitvector acc = values[0];
      ExprPtr e;
      if (choice == 3) {
        for (size_t i = 1; i < values.size(); ++i) acc.AndWith(values[i]);
        e = ExprAnd(std::move(children));
      } else if (choice == 4) {
        for (size_t i = 1; i < values.size(); ++i) acc.OrWith(values[i]);
        e = ExprOr(std::move(children));
      } else {
        for (size_t i = 1; i < values.size(); ++i) acc.XorWith(values[i]);
        e = ExprXor(std::move(children));
      }
      return {std::move(e), std::move(acc)};
    }
  }
}

class ExprFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprFuzz, BuilderSimplificationsPreserveSemantics) {
  Env env(GetParam());
  Rng rng(GetParam() * 7919 + 13);
  for (int trial = 0; trial < 200; ++trial) {
    Built b = BuildRandom(env, &rng, 4);
    Bitvector evaluated;
    EvaluateUnionBlocked({b.expr}, kRows, env.Fetcher(), &evaluated);
    ASSERT_EQ(evaluated, b.value)
        << "seed=" << GetParam() << " trial=" << trial << " expr "
        << ExprToString(b.expr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const ::testing::TestParamInfo<uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

TEST(ExprFuzzDeep, DeepXorChainsKeepParity) {
  // XOR of an odd number of copies of the same leaf reduces to the leaf;
  // an even number reduces to constant false — check through deep chains.
  ExprPtr leaf = ExprLeaf(1, 0);
  ExprPtr acc = leaf;
  Env env(99);
  for (int i = 2; i <= 40; ++i) {
    acc = ExprXor(std::move(acc), leaf);
    Bitvector v;
    EvaluateUnionBlocked({acc}, kRows, env.Fetcher(), &v);
    if (i % 2 == 0) {
      EXPECT_EQ(v.Count(), 0u) << i;
    } else {
      EXPECT_EQ(v, *env.bitmaps[0]) << i;
    }
  }
}

}  // namespace
}  // namespace bix
