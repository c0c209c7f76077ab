// The oracle for merged reads over a writable index (DESIGN.md section 15),
// shared by the delta and reorder suites: every read through {base index +
// delta overlay} must equal the naive scan of the current logical column
// with tombstoned rows masked out — as a bitmap, as the count handed back
// with it, and as a count-only answer.

#ifndef BIX_TESTS_MERGED_ORACLE_H_
#define BIX_TESTS_MERGED_ORACLE_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/writable_index.h"
#include "query/executor.h"
#include "util/rng.h"
#include "workload/scan_baseline.h"

namespace bix {

inline void ExpectMergedReadMatches(QueryExecutor& exec,
                                    const std::vector<ExprPtr>& exprs,
                                    const DeltaView& view, const ValueSet& pred,
                                    const Bitvector& expected,
                                    const std::string& context) {
  uint64_t count = 0;
  Result<Bitvector> rows =
      exec.TryEvaluateRewrittenMerged(exprs, view, pred, nullptr, &count);
  ASSERT_TRUE(rows.ok()) << context;
  ASSERT_EQ(rows.value(), expected) << context;
  ASSERT_EQ(count, expected.Count()) << context << " (merged count)";
  Result<uint64_t> count_only =
      exec.TryEvaluateCountRewritten(exprs, nullptr, &view, &pred);
  ASSERT_TRUE(count_only.ok()) << context;
  ASSERT_EQ(count_only.value(), expected.Count())
      << context << " (count-only)";
}

// Gapped membership sets over [0, cardinality): strided sets, pairs and
// runs straddling every multiple of 64 (the word boundaries of
// ValueSet's member mask), the domain's two ends, and a few seeded draws.
inline std::vector<std::vector<uint32_t>> GappedMemberSets(
    uint32_t cardinality) {
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t stride : {2u, 3u, 7u}) {
    for (uint32_t offset = 0; offset < 2 && offset < cardinality; ++offset) {
      sets.emplace_back();
      for (uint32_t v = offset; v < cardinality; v += stride) {
        sets.back().push_back(v);
      }
    }
  }
  sets.push_back({0, cardinality - 1});
  for (uint32_t b = 64; b < cardinality; b += 64) {
    sets.push_back({b - 1, b});
    sets.push_back({b - 3, b - 1, b + 1});
    if (b + 2 < cardinality) sets.back().push_back(b + 2);
  }
  Rng rng(cardinality);
  for (int i = 0; i < 4; ++i) {
    sets.emplace_back();
    const uint64_t n = rng.UniformInt(1, 6);
    for (uint64_t j = 0; j < n; ++j) {
      sets.back().push_back(
          static_cast<uint32_t>(rng.UniformInt(0, cardinality - 1)));
    }
  }
  return sets;
}

// Sweeps intervals [lo, hi], plain and negated, with lo and hi stepping by
// `lo_step` and `hi_step` (1 and 1 cover every interval), then every
// GappedMemberSets set, through the merged entry points of an executor
// over the index's current base.
inline void ExpectMergedReadsMatchLogical(const WritableBitmapIndex& index,
                                          const std::string& context,
                                          uint32_t lo_step = 1,
                                          uint32_t hi_step = 1) {
  const IndexSnapshot snap = index.Snapshot();
  const DeltaView view = snap.delta->View();
  Column logical;
  logical.cardinality = index.cardinality();
  logical.values = index.LogicalValues();
  const Bitvector live = index.LiveMask();
  QueryExecutor exec(snap.base.get(), {});
  for (uint32_t lo = 0; lo < logical.cardinality; lo += lo_step) {
    for (uint32_t hi = lo; hi < logical.cardinality; hi += hi_step) {
      for (bool negated : {false, true}) {
        const IntervalQuery q{lo, hi, negated};
        Bitvector expected = NaiveEvaluateInterval(logical, q);
        expected.AndWith(live);
        ASSERT_NO_FATAL_FAILURE(ExpectMergedReadMatches(
            exec, {exec.Rewrite(q)}, view, ValueSet::Interval(lo, hi, negated),
            expected,
            context + (negated ? " not[" : " [") + std::to_string(lo) + "," +
                std::to_string(hi) + "]"));
      }
    }
  }
  for (const std::vector<uint32_t>& values :
       GappedMemberSets(logical.cardinality)) {
    Bitvector expected = NaiveEvaluateMembership(logical, values);
    expected.AndWith(live);
    std::string name = context + " in{";
    for (uint32_t v : values) name += std::to_string(v) + ",";
    ASSERT_NO_FATAL_FAILURE(ExpectMergedReadMatches(
        exec, exec.RewriteMembership(values), view, ValueSet::Members(values),
        expected, name + "}"));
  }
}

}  // namespace bix

#endif  // BIX_TESTS_MERGED_ORACLE_H_
