// Tests for the query-layer extensions: negated interval queries (part of
// the paper's interval-query definition) and EXPLAIN plans.

#include <gtest/gtest.h>

#include "query/executor.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

class NegatedQuerySweep : public ::testing::TestWithParam<EncodingKind> {};

TEST_P(NegatedQuerySweep, NotIntervalMatchesNaiveEverywhere) {
  const uint32_t kC = 20;
  Column col = GenerateZipfColumn(
      {.rows = 1000, .cardinality = kC, .zipf_z = 1.0, .seed = 71});
  for (const auto& bases :
       std::vector<std::vector<uint32_t>>{{20}, {4, 5}}) {
    Decomposition d = Decomposition::Make(kC, bases).value();
    BitmapIndex index = BitmapIndex::Build(col, d, GetParam(), false);
    QueryExecutor exec(&index, {});
    for (uint32_t lo = 0; lo < kC; ++lo) {
      for (uint32_t hi = lo; hi < kC; ++hi) {
        IntervalQuery q{lo, hi, /*negated=*/true};
        ASSERT_EQ(exec.EvaluateInterval(q), NaiveEvaluateInterval(col, q))
            << "NOT [" << lo << "," << hi << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, NegatedQuerySweep,
                         ::testing::ValuesIn(AllEncodingKinds()),
                         [](const ::testing::TestParamInfo<EncodingKind>& i) {
                           std::string n = EncodingKindName(i.param);
                           if (n == "EI*") n = "EIstar";
                           return n;
                         });

TEST(NegatedQueryTest, CostsNoExtraScans) {
  // "NOT (x <= A <= y)" is a complement of the positive expression: the
  // scan count must be identical.
  Column col = GenerateZipfColumn(
      {.rows = 500, .cardinality = 50, .zipf_z = 0.0, .seed = 2});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(50),
                         EncodingKind::kInterval, false);
  QueryExecutor exec(&index, {});
  ExprPtr pos = exec.Rewrite({10, 20, false});
  ExprPtr neg = exec.Rewrite({10, 20, true});
  EXPECT_EQ(CountDistinctLeaves(pos), CountDistinctLeaves(neg));
  EXPECT_EQ(neg->op, ExprOp::kNot);
}

TEST(ExplainTest, ReportsConstituentsAndWorkingSet) {
  Column col = GenerateZipfColumn(
      {.rows = 4000, .cardinality = 50, .zipf_z = 1.0, .seed = 5});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(50),
                         EncodingKind::kInterval, false);
  QueryExecutor exec(&index, {});
  auto plan = exec.ExplainMembership({6, 19, 20, 21, 22, 35});
  EXPECT_EQ(plan.constituents.size(), 3u);  // A=6, 19..22, A=35
  EXPECT_GT(plan.distinct_bitmaps, 0u);
  EXPECT_LE(plan.distinct_bitmaps, 6u);  // <= 2 per constituent
  EXPECT_EQ(plan.cold_bytes, plan.distinct_bitmaps * 500u);  // 4000 bits
  EXPECT_GT(plan.est_io_seconds, 0.0);
  EXPECT_DOUBLE_EQ(plan.est_decode_seconds, 0.0);  // uncompressed
  EXPECT_NE(plan.ToString().find("3 constituent(s)"), std::string::npos);
}

TEST(ExplainTest, EstimateMatchesColdExecution) {
  Column col = GenerateZipfColumn(
      {.rows = 4000, .cardinality = 50, .zipf_z = 1.0, .seed = 5});
  for (bool compressed : {false, true}) {
    BitmapIndex index =
        BitmapIndex::Build(col, Decomposition::SingleComponent(50),
                           EncodingKind::kRange, compressed);
    QueryExecutor exec(&index, {});
    const std::vector<uint32_t> values = {3, 20, 21, 40};
    auto plan = exec.ExplainMembership(values);
    exec.EvaluateMembership(values);
    EXPECT_EQ(exec.stats().scans, plan.distinct_bitmaps);
    EXPECT_DOUBLE_EQ(exec.stats().io_seconds, plan.est_io_seconds);
    EXPECT_DOUBLE_EQ(exec.stats().decode_seconds, plan.est_decode_seconds);
  }
}

TEST(ExplainTest, IntervalExplainMatchesMembershipOfRange) {
  Column col = GenerateZipfColumn(
      {.rows = 1000, .cardinality = 30, .zipf_z = 0.0, .seed = 3});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(30),
                         EncodingKind::kEquality, false);
  QueryExecutor exec(&index, {});
  auto a = exec.ExplainInterval({5, 9});
  std::vector<uint32_t> values = {5, 6, 7, 8, 9};
  auto b = exec.ExplainMembership(values);
  EXPECT_EQ(a.distinct_bitmaps, b.distinct_bitmaps);
  EXPECT_EQ(a.cold_bytes, b.cold_bytes);
}

TEST(ExplainTest, IntervalValidatesBoundsUpFront) {
  // Regression: ExplainInterval used to build the whole value list before
  // checking `negated` (wasted work, and for q.hi == UINT32_MAX the
  // uint32_t loop `v <= q.hi` never terminated), and it accepted
  // out-of-domain bounds EvaluateMembership would have rejected. All three
  // preconditions now fail fast at the entry.
  Column col = GenerateZipfColumn(
      {.rows = 1000, .cardinality = 30, .zipf_z = 0.0, .seed = 3});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(30),
                         EncodingKind::kEquality, false);
  QueryExecutor exec(&index, {});
  // The full positive domain still explains fine.
  EXPECT_EQ(exec.ExplainInterval({0, 29}).constituents.size(), 1u);
  EXPECT_DEATH(exec.ExplainInterval({5, 9, /*negated=*/true}),
               "positive intervals");
  EXPECT_DEATH(exec.ExplainInterval({9, 5}), "lo > hi");
  EXPECT_DEATH(exec.ExplainInterval({5, 30}), "cardinality");
  // The hang case: hi == UINT32_MAX is simply out of domain now.
  EXPECT_DEATH(exec.ExplainInterval({5, UINT32_MAX}), "cardinality");
}

TEST(ExplainTest, MembershipValidatesValuesUpFront) {
  // Regression: ExplainMembership ran no entry checks. An empty list gave a
  // 0-constituent plan for a query EvaluateMembership (and the service)
  // rejects, and an out-of-domain value aborted deep in the interval
  // rewrite. Both now fail at the entry with EvaluateMembership's checks.
  Column col = GenerateZipfColumn(
      {.rows = 1000, .cardinality = 50, .zipf_z = 0.0, .seed = 3});
  BitmapIndex index = BitmapIndex::Build(
      col, Decomposition::Make(50, {8, 7}).value(), EncodingKind::kInterval,
      false);
  QueryExecutor exec(&index, {});
  EXPECT_EQ(exec.ExplainMembership({0, 49}).constituents.size(), 2u);
  EXPECT_DEATH(exec.ExplainMembership({}), "empty membership query");
  EXPECT_DEATH(exec.ExplainMembership({3, 52}), "cardinality.*executor\\.cc");
}

TEST(ExplainTest, EvaluateIntervalValidatesBounds) {
  // The public evaluation entry shares EvaluateMembership's contract.
  Column col = GenerateZipfColumn(
      {.rows = 1000, .cardinality = 30, .zipf_z = 0.0, .seed = 3});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(30),
                         EncodingKind::kEquality, false);
  QueryExecutor exec(&index, {});
  EXPECT_DEATH(exec.EvaluateInterval({9, 5}), "lo > hi");
  EXPECT_DEATH(exec.EvaluateInterval({0, 30}), "cardinality");
}

}  // namespace
}  // namespace bix
