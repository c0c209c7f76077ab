// Permutation-invariance harness for the row-reordering preprocessing
// pass (src/index/reorder, DESIGN.md section 18). The contract under
// test: a reordered index is *invisible* — every strategy, over every
// encoding and codec, through the plain and the delta-overlay writable
// path, produces bit-identical query results to the unreordered build —
// while the compressed tier only ever gets smaller on clustered inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "core/index_io.h"
#include "core/writable_index.h"
#include "index/reorder.h"
#include "index/rid_index.h"
#include "merged_oracle.h"
#include "query/executor.h"
#include "server/query_service.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FreshDir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

// The adversarial table of the issue: heavy Zipf skew puts one giant value
// block next to a long sparse tail, the worst case for any ordering
// heuristic that only helps "nice" distributions.
Column AdversarialZipf(uint64_t rows, uint32_t cardinality, uint64_t seed) {
  return GenerateZipfColumn(
      {.rows = rows, .cardinality = cardinality, .zipf_z = 2.5, .seed = seed});
}

// --- GrayRank ----------------------------------------------------------

// Digit vector of `value` under `d`, msb first.
std::vector<uint32_t> Digits(const Decomposition& d, uint32_t value) {
  std::vector<uint32_t> out;
  for (uint32_t comp = d.num_components(); comp >= 1; --comp) {
    out.push_back(d.Digit(value, comp));
  }
  return out;
}

TEST(GrayRankTest, BijectionWithUnitDigitStepsOnFullDomains) {
  const std::vector<std::vector<uint32_t>> base_sets = {
      {10}, {5, 4}, {3, 3, 3}, {2, 2, 2, 2}};
  for (const auto& bases : base_sets) {
    uint32_t domain = 1;
    for (uint32_t b : bases) domain *= b;
    Decomposition d = Decomposition::Make(domain, bases).value();

    // Ranks are a permutation of [0, domain).
    std::vector<uint32_t> by_rank(domain, domain);
    for (uint32_t v = 0; v < domain; ++v) {
      const uint64_t rank = GrayRank(d, v);
      ASSERT_LT(rank, domain);
      ASSERT_EQ(by_rank[rank], domain) << "duplicate rank " << rank;
      by_rank[rank] = v;
    }
    // The defining Gray property: walking the ranks in order changes
    // exactly one digit, by exactly one.
    for (uint32_t r = 1; r < domain; ++r) {
      const std::vector<uint32_t> a = Digits(d, by_rank[r - 1]);
      const std::vector<uint32_t> b = Digits(d, by_rank[r]);
      uint32_t changed = 0;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) {
          ++changed;
          EXPECT_EQ(std::max(a[i], b[i]) - std::min(a[i], b[i]), 1u)
              << "rank step " << r;
        }
      }
      EXPECT_EQ(changed, 1u) << "rank step " << r;
    }
  }
}

TEST(GrayRankTest, SingleComponentGrayIsValueOrder) {
  // With one component there is nothing to reflect: rank == value, so
  // kGrayCode degenerates to kLexicographic exactly as documented.
  Decomposition d = Decomposition::SingleComponent(17);
  for (uint32_t v = 0; v < 17; ++v) EXPECT_EQ(GrayRank(d, v), v);
}

// --- Permutation mechanics ---------------------------------------------

TEST(RowOrderTest, ComputeProducesAStablePermutation) {
  Column col = GenerateZipfColumn(
      {.rows = 500, .cardinality = 12, .zipf_z = 1.0, .seed = 7});
  Decomposition d = Decomposition::Make(12, {4, 3}).value();
  for (ReorderStrategy strategy : AllReorderStrategies()) {
    SCOPED_TRACE(ReorderStrategyName(strategy));
    const std::vector<uint32_t> order = ComputeRowOrder(col, d, strategy);
    ASSERT_EQ(order.size(), col.row_count());
    EXPECT_TRUE(ValidateRowOrder(order));
    // Stability: within a block of equal values, original arrival order.
    for (size_t j = 1; j < order.size(); ++j) {
      if (col.values[order[j - 1]] == col.values[order[j]]) {
        EXPECT_LT(order[j - 1], order[j]) << "position " << j;
      }
    }
    // Each value's rows form one contiguous block (every strategy orders
    // by a per-value key, so blocks never interleave).
    std::vector<bool> block_closed(col.cardinality, false);
    uint32_t current = col.values[order[0]];
    for (size_t j = 1; j < order.size(); ++j) {
      const uint32_t v = col.values[order[j]];
      if (v == current) continue;
      ASSERT_FALSE(block_closed[v]) << "value " << v << " split into blocks";
      block_closed[current] = true;
      current = v;
    }
  }
}

TEST(RowOrderTest, PermutationRoundTripFuzz) {
  std::mt19937_64 rng(2026);
  for (int iter = 0; iter < 25; ++iter) {
    const uint64_t rows = 1 + rng() % 700;
    const uint32_t cardinality = 2 + static_cast<uint32_t>(rng() % 30);
    Column col = GenerateZipfColumn({.rows = rows,
                                     .cardinality = cardinality,
                                     .zipf_z = (iter % 4) * 0.8,
                                     .seed = rng()});
    Decomposition d = Decomposition::SingleComponent(cardinality);
    const ReorderStrategy strategy =
        AllReorderStrategies()[iter % AllReorderStrategies().size()];
    const std::vector<uint32_t> p = ComputeRowOrder(col, d, strategy);
    ASSERT_TRUE(ValidateRowOrder(p));
    const std::vector<uint32_t> inv = InvertRowOrder(p);
    ASSERT_EQ(inv.size(), p.size());
    for (size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(p[inv[i]], i);
      EXPECT_EQ(inv[p[i]], i);
    }
    // ApplyRowOrder matches its defining equation.
    const Column permuted = ApplyRowOrder(col, p);
    ASSERT_EQ(permuted.row_count(), col.row_count());
    for (size_t j = 0; j < p.size(); ++j) {
      EXPECT_EQ(permuted.values[j], col.values[p[j]]);
    }
  }
}

TEST(RowOrderTest, ValidateRejectsNonBijections) {
  EXPECT_TRUE(ValidateRowOrder({}));
  EXPECT_TRUE(ValidateRowOrder({0}));
  EXPECT_TRUE(ValidateRowOrder({2, 0, 1}));
  EXPECT_FALSE(ValidateRowOrder({0, 0}));     // duplicate
  EXPECT_FALSE(ValidateRowOrder({1, 2}));     // out of range
  EXPECT_FALSE(ValidateRowOrder({3, 1, 0}));  // out of range
}

TEST(RowOrderTest, MapToOriginalRidsMovesEveryBitHome) {
  std::mt19937_64 rng(99);
  const std::vector<uint32_t> p = {3, 1, 4, 0, 2};
  // Index space larger than the order: the tail is appended rows, which
  // must map to themselves.
  Bitvector in(8);
  for (uint64_t j = 0; j < 8; ++j) {
    if (rng() % 2) in.Set(j);
  }
  const Bitvector out = MapToOriginalRids(in, p);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out.Count(), in.Count());
  for (uint64_t j = 0; j < 8; ++j) {
    const uint64_t home = j < p.size() ? p[j] : j;
    EXPECT_EQ(out.Get(home), in.Get(j)) << "bit " << j;
  }
  // Identity order is a pass-through.
  EXPECT_EQ(MapToOriginalRids(in, {}), in);
}

TEST(RowOrderTest, IdentityOrdersAreDroppedAtBuild) {
  // An already-sorted column: lexicographic reorder is the identity, and
  // the facade must not saddle the index with a useless permutation.
  Column col;
  col.cardinality = 8;
  for (uint32_t v = 0; v < 8; ++v) {
    for (int k = 0; k < 5; ++k) col.values.push_back(v);
  }
  IndexConfig config;
  config.reorder = ReorderStrategy::kLexicographic;
  Result<BitmapIndex> index = BuildIndex(col, config);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index.value().reordered());
}

// --- The invariance matrix ---------------------------------------------
// Every strategy x all encodings x all codecs: interval, membership, and
// count-only results over a reordered index are bit-identical to the
// naive scan (and therefore to the unreordered index, which the seed
// suites already hold to the same oracle).

struct MatrixParam {
  EncodingKind encoding;
  std::vector<uint32_t> bases;
};

class ReorderInvarianceMatrix : public ::testing::TestWithParam<MatrixParam> {
};

void ExpectInvariant(const Column& col, const IndexConfig& config,
                     const std::string& context) {
  Result<BitmapIndex> built = BuildIndex(col, config);
  ASSERT_TRUE(built.ok()) << context << ": " << built.status().ToString();
  const BitmapIndex& index = built.value();
  const uint32_t c = col.cardinality;
  QueryExecutor exec(&index, {});
  for (uint32_t lo = 0; lo < c; lo += 3) {
    for (uint32_t hi = lo; hi < c; hi += 4) {
      const Bitvector expected = NaiveEvaluateInterval(col, {lo, hi});
      EXPECT_EQ(exec.EvaluateInterval({lo, hi}), expected)
          << context << " [" << lo << "," << hi << "]";
      // Count-only path: permutations preserve popcounts, so the count
      // entry point must agree without any mapping.
      std::vector<ExprPtr> exprs;
      exprs.push_back(exec.Rewrite({lo, hi}));
      EXPECT_EQ(exec.TryEvaluateCountRewritten(exprs).value(),
                expected.Count())
          << context << " count [" << lo << "," << hi << "]";
    }
  }
  const std::vector<std::vector<uint32_t>> member_sets = {
      {0}, {c - 1}, {1, 4, 7}, {0, c / 2, c - 1, c / 3}};
  for (const auto& values : member_sets) {
    EXPECT_EQ(exec.EvaluateMembership(values),
              NaiveEvaluateMembership(col, values))
        << context << " membership";
  }
}

TEST_P(ReorderInvarianceMatrix, AllStrategiesAllCodecsMatchNaiveScan) {
  const MatrixParam& p = GetParam();
  const Column random_table = GenerateZipfColumn(
      {.rows = 1500, .cardinality = 24, .zipf_z = 0.0, .seed = 17});
  const Column adversarial = AdversarialZipf(1500, 24, 18);
  for (const Column* col : {&random_table, &adversarial}) {
    for (StorageCodec codec :
         {StorageCodec::kVerbatim, StorageCodec::kBbc, StorageCodec::kWah,
          StorageCodec::kRoaring}) {
      for (ReorderStrategy strategy : AllReorderStrategies()) {
        IndexConfig config;
        config.encoding = p.encoding;
        config.bases_msb_first = p.bases;
        config.codec = codec;
        config.reorder = strategy;
        ExpectInvariant(
            *col, config,
            std::string(col == &adversarial ? "zipf" : "random") + "/" +
                StorageCodecName(codec) + "/" + ReorderStrategyName(strategy));
      }
    }
  }
}

std::vector<MatrixParam> MatrixParams() {
  std::vector<MatrixParam> params;
  // Every encoding, multi-component to exercise the Gray reflection.
  for (EncodingKind enc : AllEncodingKinds()) params.push_back({enc, {6, 4}});
  // And single-component equality/interval for the degenerate path.
  params.push_back({EncodingKind::kEquality, {24}});
  params.push_back({EncodingKind::kInterval, {24}});
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, ReorderInvarianceMatrix, ::testing::ValuesIn(MatrixParams()),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = EncodingKindName(info.param.encoding);
      if (name == "EI*") name = "EIstar";
      return name + "_" + std::to_string(info.param.bases.size()) + "comp";
    });

// --- RID-list index -----------------------------------------------------

TEST(ReorderRidListTest, ReorderedListsReturnOriginalRids) {
  Column col = AdversarialZipf(1200, 16, 5);
  Decomposition d = Decomposition::SingleComponent(16);
  const DiskModel disk;
  RidListIndex plain = RidListIndex::Build(col);
  for (ReorderStrategy strategy : AllReorderStrategies()) {
    SCOPED_TRACE(ReorderStrategyName(strategy));
    RidListIndex reordered =
        RidListIndex::Build(col, ComputeRowOrder(col, d, strategy));
    EXPECT_TRUE(ValidateRowOrder(reordered.row_order()));
    for (uint32_t lo = 0; lo < 16; lo += 3) {
      EXPECT_EQ(reordered.EvaluateInterval({lo, 15}, disk, nullptr),
                plain.EvaluateInterval({lo, 15}, disk, nullptr));
    }
    EXPECT_EQ(reordered.EvaluateMembership({0, 3, 9}, disk, nullptr),
              plain.EvaluateMembership({0, 3, 9}, disk, nullptr));
    // The physical payoff: each value's list is one contiguous position
    // range in the reordered row file.
    for (uint32_t v = 0; v < 16; ++v) {
      const std::vector<uint32_t>& list = reordered.ListForValue(v);
      for (size_t i = 1; i < list.size(); ++i) {
        EXPECT_EQ(list[i], list[i - 1] + 1) << "value " << v;
      }
    }
  }
}

// --- Persistence (format v4) -------------------------------------------

TEST(ReorderPersistenceTest, V4RoundTripCarriesThePermutation) {
  Column col = AdversarialZipf(2000, 20, 31);
  for (ReorderStrategy strategy : AllReorderStrategies()) {
    SCOPED_TRACE(ReorderStrategyName(strategy));
    IndexConfig config;
    config.encoding = EncodingKind::kInterval;
    config.bases_msb_first = {5, 4};
    config.codec = StorageCodec::kAuto;
    config.reorder = strategy;
    Result<BitmapIndex> built = BuildIndex(col, config);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value().reordered());

    const std::string path = TempPath("reordered_v4.bix");
    ASSERT_TRUE(SaveIndex(built.value(), path).ok());
    Result<BitmapIndex> loaded = LoadIndex(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().row_order(), built.value().row_order());
    EXPECT_EQ(loaded.value().TotalStoredBytes(),
              built.value().TotalStoredBytes());

    QueryExecutor exec(&loaded.value(), {});
    for (uint32_t lo = 0; lo < 20; lo += 3) {
      EXPECT_EQ(exec.EvaluateInterval({lo, 19}),
                NaiveEvaluateInterval(col, {lo, 19}));
    }
    std::remove(path.c_str());
  }
}

TEST(ReorderPersistenceTest, CorruptedRowOrderFailsTheLoad) {
  Column col = GenerateZipfColumn(
      {.rows = 600, .cardinality = 12, .zipf_z = 1.2, .seed = 13});
  IndexConfig config;
  config.codec = StorageCodec::kWah;
  config.reorder = ReorderStrategy::kHistogram;
  Result<BitmapIndex> built = BuildIndex(col, config);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value().reordered());
  const std::string path = TempPath("corrupt_order.bix");
  ASSERT_TRUE(SaveIndex(built.value(), path).ok());

  // Flip one byte inside the row-order section. The header layout up to
  // the order is magic(4) version(4) encoding(1) policy(1) cardinality(4)
  // row_count(8) n(4) bases(4n) order_count(8) — so offset 40 sits in the
  // first order entry for this single-component index.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[40] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Result<BitmapIndex> loaded = LoadIndex(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

// --- Writable path: delta overlay over a reordered base ----------------

// Merged query results over {reordered base + overlay} must equal the
// naive scan of the current logical column with tombstones masked out —
// the oracle the unreordered delta tests use (tests/merged_oracle.h), over
// every other interval start and every third end.
void ExpectMergedQueriesMatchLogical(const WritableBitmapIndex& index,
                                     const std::string& context) {
  ExpectMergedReadsMatchLogical(index, context, /*lo_step=*/2, /*hi_step=*/3);
}

TEST(ReorderWritableTest, DeltaOverlayStaysInOriginalRidSpace) {
  constexpr uint32_t kC = 10;
  Column column = AdversarialZipf(300, kC, 23);
  for (ReorderStrategy strategy : AllReorderStrategies()) {
    const std::string name = ReorderStrategyName(strategy);
    SCOPED_TRACE(name);
    IndexConfig config;
    config.encoding = EncodingKind::kInterval;
    config.bases_msb_first = {5, 2};
    config.codec = StorageCodec::kAuto;
    config.reorder = strategy;
    auto index = WritableBitmapIndex::Create(FreshDir("reorder_delta_" + name),
                                             column, config);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_TRUE(index.value()->Snapshot().base->reordered());

    // Updates target original RIDs; the fold and the merge must translate.
    UpdateBatch b1;
    b1.inserts = {9, 0, 4, 4};
    b1.updates = {{2, 0, 9}, {7, 0, 0}, {299, 0, 1}};
    b1.deletes = {11, 301};
    ASSERT_TRUE(index.value()->ApplyBatch(b1).ok());
    ExpectMergedQueriesMatchLogical(*index.value(), name + "/after-batch");

    // Compaction folds the overlay into the reordered base; the folded
    // index must keep the permutation and keep answering in original RIDs.
    ASSERT_TRUE(index.value()->Compact(nullptr).ok());
    EXPECT_TRUE(index.value()->Snapshot().base->reordered());
    ExpectMergedQueriesMatchLogical(*index.value(), name + "/after-compact");

    // And a second batch over the folded base exercises translation against
    // a base whose row count now exceeds the stored order.
    UpdateBatch b2;
    b2.inserts = {kC - 1, 2};
    b2.updates = {{0, 0, 5}, {302, 0, 3}};
    b2.deletes = {4};
    ASSERT_TRUE(index.value()->ApplyBatch(b2).ok());
    ExpectMergedQueriesMatchLogical(*index.value(), name + "/second-batch");
  }
}

TEST(ReorderWritableTest, CheckpointReopenKeepsThePermutation) {
  constexpr uint32_t kC = 8;
  Column column = GenerateZipfColumn(
      {.rows = 250, .cardinality = kC, .zipf_z = 1.5, .seed = 47});
  IndexConfig config;
  config.codec = StorageCodec::kBbc;
  config.reorder = ReorderStrategy::kGrayCode;
  const std::string dir = FreshDir("reorder_reopen");
  std::vector<uint32_t> order;
  {
    auto created = WritableBitmapIndex::Create(dir, column, config);
    ASSERT_TRUE(created.ok());
    order = created.value()->Snapshot().base->row_order();
    ASSERT_FALSE(order.empty());
    UpdateBatch b;
    b.inserts = {1, 7};
    b.updates = {{10, 0, 3}};
    ASSERT_TRUE(created.value()->ApplyBatch(b).ok());
  }
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->Snapshot().base->row_order(), order);
  ExpectMergedQueriesMatchLogical(*reopened.value(), "reopened");
}

// --- Serving layer ------------------------------------------------------

TEST(ReorderServiceTest, ServedQueriesReturnOriginalRids) {
  Column col = AdversarialZipf(2000, 16, 61);
  IndexConfig config;
  config.codec = StorageCodec::kAuto;
  config.reorder = ReorderStrategy::kHistogram;
  Result<BitmapIndex> built = BuildIndex(col, config);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value().reordered());
  ServiceOptions options;
  options.num_workers = 2;
  auto service = Serve(&built.value(), options);
  ASSERT_TRUE(service.ok());
  ServiceQuery q;
  q.kind = ServiceQuery::Kind::kInterval;
  q.interval = {3, 11};
  QueryResult result = service.value()->Submit(q).get();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.rows, NaiveEvaluateInterval(col, {3, 11}));
  ServiceQuery count = q;
  count.count_only = true;
  QueryResult count_result = service.value()->Submit(count).get();
  ASSERT_TRUE(count_result.status.ok());
  EXPECT_EQ(count_result.count, result.rows.Count());
}

// --- Space: reordering only ever helps on clustered inputs -------------

TEST(ReorderSpaceTest, CompressedSizesAreMonotoneOnClusteredZipf) {
  // The iid Zipf draw is the unclustered baseline; every strategy clusters
  // equal values into contiguous blocks, so each run-length codec must
  // compress at least as well — this is the size gate CI enforces on the
  // benchmark corpus, held here as a property over strategies x codecs.
  const Column col = GenerateZipfColumn(
      {.rows = 6000, .cardinality = 40, .zipf_z = 1.2, .seed = 77});
  for (EncodingKind encoding :
       {EncodingKind::kEquality, EncodingKind::kInterval}) {
    for (StorageCodec codec :
         {StorageCodec::kBbc, StorageCodec::kWah, StorageCodec::kRoaring}) {
      IndexConfig base_config;
      base_config.encoding = encoding;
      base_config.codec = codec;
      Result<BitmapIndex> plain = BuildIndex(col, base_config);
      ASSERT_TRUE(plain.ok());
      const uint64_t plain_bytes = plain.value().TotalStoredBytes();
      for (ReorderStrategy strategy : AllReorderStrategies()) {
        IndexConfig config = base_config;
        config.reorder = strategy;
        Result<BitmapIndex> reordered = BuildIndex(col, config);
        ASSERT_TRUE(reordered.ok());
        EXPECT_LE(reordered.value().TotalStoredBytes(), plain_bytes)
            << EncodingKindName(encoding) << "/" << StorageCodecName(codec)
            << "/" << ReorderStrategyName(strategy);
      }
    }
  }
}

}  // namespace
}  // namespace bix
