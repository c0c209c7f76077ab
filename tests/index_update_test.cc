// Tests for batched index maintenance (BitmapIndex::Append): after
// appending records, every query over the extended relation must match the
// naive scan, for every encoding, compressed and uncompressed, single- and
// multi-component.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/writable_index.h"
#include "merged_oracle.h"
#include "query/executor.h"
#include "server/query_service.h"
#include "util/rng.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

struct UpdateParam {
  EncodingKind encoding;
  std::vector<uint32_t> bases;
  bool compressed;
};

class IndexUpdateSweep : public ::testing::TestWithParam<UpdateParam> {};

TEST_P(IndexUpdateSweep, AppendThenQueryMatchesNaive) {
  const UpdateParam& p = GetParam();
  constexpr uint32_t kC = 20;
  Column full = GenerateZipfColumn(
      {.rows = 1500, .cardinality = kC, .zipf_z = 1.0, .seed = 31});
  Column prefix = full;
  prefix.values.resize(1000);
  std::vector<uint32_t> tail(full.values.begin() + 1000, full.values.end());

  Decomposition d = Decomposition::Make(kC, p.bases).value();
  BitmapIndex index = BitmapIndex::Build(prefix, d, p.encoding, p.compressed);
  index.Append(tail);
  EXPECT_EQ(index.row_count(), full.row_count());

  QueryExecutor exec(&index, {});
  for (uint32_t lo = 0; lo < kC; ++lo) {
    for (uint32_t hi = lo; hi < kC; ++hi) {
      ASSERT_EQ(exec.EvaluateInterval({lo, hi}),
                NaiveEvaluateInterval(full, {lo, hi}))
          << EncodingKindName(p.encoding) << " [" << lo << "," << hi << "]";
    }
  }
}

TEST_P(IndexUpdateSweep, IncrementalEqualsBulkBuild) {
  const UpdateParam& p = GetParam();
  constexpr uint32_t kC = 20;
  Column full = GenerateZipfColumn(
      {.rows = 800, .cardinality = kC, .zipf_z = 0.5, .seed = 33});
  Column prefix = full;
  prefix.values.resize(300);
  std::vector<uint32_t> tail(full.values.begin() + 300, full.values.end());

  Decomposition d = Decomposition::Make(kC, p.bases).value();
  BitmapIndex incremental =
      BitmapIndex::Build(prefix, d, p.encoding, p.compressed);
  incremental.Append(tail);
  BitmapIndex bulk = BitmapIndex::Build(full, d, p.encoding, p.compressed);

  ASSERT_EQ(incremental.BitmapCount(), bulk.BitmapCount());
  for (uint32_t comp = 1; comp <= d.num_components(); ++comp) {
    const uint32_t slots =
        GetEncoding(p.encoding).NumBitmaps(d.base(comp));
    for (uint32_t s = 0; s < slots; ++s) {
      EXPECT_EQ(incremental.store().Materialize({comp, s}),
                bulk.store().Materialize({comp, s}))
          << "comp=" << comp << " slot=" << s;
    }
  }
  EXPECT_EQ(incremental.TotalStoredBytes(), bulk.TotalStoredBytes());
}

std::vector<UpdateParam> UpdateParams() {
  std::vector<UpdateParam> params;
  for (EncodingKind enc : AllEncodingKinds()) {
    params.push_back({enc, {20}, false});
    params.push_back({enc, {4, 5}, false});
    params.push_back({enc, {20}, true});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IndexUpdateSweep, ::testing::ValuesIn(UpdateParams()),
    [](const ::testing::TestParamInfo<UpdateParam>& info) {
      std::string name = EncodingKindName(info.param.encoding);
      if (name == "EI*") name = "EIstar";
      name += "_" + std::to_string(info.param.bases.size()) + "comp";
      name += info.param.compressed ? "_bbc" : "_raw";
      return name;
    });

TEST(IndexUpdateTest, TouchedCountMatchesAnalyticModel) {
  Column col = PaperExampleColumn();
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(10),
                         EncodingKind::kRange, /*compressed=*/false);
  // Appending one record with value 0 sets bits in R^0..R^8: 9 bitmaps.
  EXPECT_EQ(index.Append({0}), 9u);
  EXPECT_EQ(index.UpdateTouchCount(0), 9u);
  // Value 9 is in no range bitmap.
  EXPECT_EQ(index.Append({9}), 0u);
}

TEST(IndexUpdateTest, BatchTouchesUnionOfSlots) {
  Column col = PaperExampleColumn();
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(10),
                         EncodingKind::kEquality, /*compressed=*/false);
  // Batch {2, 2, 7}: two distinct equality bitmaps touched.
  EXPECT_EQ(index.Append({2, 2, 7}), 2u);
}

TEST(IndexUpdateTest, EmptyAppendIsNoop) {
  Column col = PaperExampleColumn();
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(10),
                         EncodingKind::kInterval, false);
  const uint64_t bytes = index.TotalStoredBytes();
  EXPECT_EQ(index.Append({}), 0u);
  EXPECT_EQ(index.row_count(), 12u);
  EXPECT_EQ(index.TotalStoredBytes(), bytes);
}

// --- Writable-index delta semantics (DESIGN.md section 15) --------------
// Every scenario is checked the same way: merged query results (and, after
// compaction, the stored bitmaps themselves) must be bit-identical to an
// index rebuilt from scratch over the updated logical column. The merged
// reads sweep every interval, plain and negated, and gapped membership
// sets, each as a bitmap, its count and a count-only answer
// (ExpectMergedReadsMatchLogical, tests/merged_oracle.h).

std::string FreshDeltaDir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

void ExpectStoreMatchesRebuild(const WritableBitmapIndex& index,
                               EncodingKind encoding,
                               const IndexConfig& config) {
  Column logical;
  logical.cardinality = index.cardinality();
  logical.values = index.LogicalValues();
  Result<BitmapIndex> rebuilt = BuildIndex(logical, config);
  ASSERT_TRUE(rebuilt.ok());
  const BitmapIndex& base = *index.Snapshot().base;
  const Decomposition& d = base.decomposition();
  for (uint32_t comp = 1; comp <= d.num_components(); ++comp) {
    const uint32_t slots = GetEncoding(encoding).NumBitmaps(d.base(comp));
    for (uint32_t s = 0; s < slots; ++s) {
      ASSERT_EQ(base.store().Materialize({comp, s}),
                rebuilt.value().store().Materialize({comp, s}))
          << "comp=" << comp << " slot=" << s;
    }
  }
}

TEST(WritableDeltaTest, DeleteThenReinsertSameRidMatchesRebuild) {
  constexpr uint32_t kC = 10;
  Column column = GenerateZipfColumn(
      {.rows = 200, .cardinality = kC, .zipf_z = 0.7, .seed = 41});
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  auto index = WritableBitmapIndex::Create(
      FreshDeltaDir("delete_reinsert"), column, config);
  ASSERT_TRUE(index.ok());

  UpdateBatch del;
  del.deletes = {5, 6};
  ASSERT_TRUE(index.value()->ApplyBatch(del).ok());
  EXPECT_FALSE(index.value()->LiveMask().Get(5));
  ExpectMergedReadsMatchLogical(*index.value(), "after delete");

  // Reinsert rid 5 with a different value; rid 6 stays dead.
  UpdateBatch revive;
  revive.updates = {{5, 0, (column.values[5] + 3) % kC}};
  ASSERT_TRUE(index.value()->ApplyBatch(revive).ok());
  EXPECT_TRUE(index.value()->LiveMask().Get(5));
  EXPECT_FALSE(index.value()->LiveMask().Get(6));
  EXPECT_EQ(index.value()->LogicalValues()[5], (column.values[5] + 3) % kC);
  ExpectMergedReadsMatchLogical(*index.value(), "after reinsert");

  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  ExpectMergedReadsMatchLogical(*index.value(), "after compact");
  ExpectStoreMatchesRebuild(*index.value(), config.encoding, config);
}

TEST(WritableDeltaTest, UpdateToSameValueIsANoop) {
  constexpr uint32_t kC = 10;
  Column column = GenerateZipfColumn(
      {.rows = 150, .cardinality = kC, .zipf_z = 0.5, .seed = 43});
  IndexConfig config;
  config.encoding = EncodingKind::kRange;
  auto index = WritableBitmapIndex::Create(
      FreshDeltaDir("same_value"), column, config);
  ASSERT_TRUE(index.ok());

  UpdateBatch batch;
  batch.updates = {{10, 0, column.values[10]}, {20, 0, column.values[20]}};
  ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
  ExpectMergedReadsMatchLogical(*index.value(), "after same-value update");
  EXPECT_EQ(index.value()->LogicalValues(), column.values);

  // Folding the no-op overlay reproduces the original index exactly.
  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  Result<BitmapIndex> original = BuildIndex(column, config);
  ASSERT_TRUE(original.ok());
  const BitmapIndex& base = *index.value()->Snapshot().base;
  EXPECT_EQ(base.TotalStoredBytes(), original.value().TotalStoredBytes());
  ExpectStoreMatchesRebuild(*index.value(), config.encoding, config);
}

TEST(WritableDeltaTest, InterleavedBatchesStayBitIdenticalToRebuild) {
  constexpr uint32_t kC = 8;
  Column column = GenerateZipfColumn(
      {.rows = 120, .cardinality = kC, .zipf_z = 1.0, .seed = 47});
  IndexConfig config;
  config.encoding = EncodingKind::kEqualityInterval;
  config.codec = StorageCodec::kAuto;
  auto index = WritableBitmapIndex::Create(
      FreshDeltaDir("interleaved"), column, config);
  ASSERT_TRUE(index.ok());

  Rng rng(99);
  uint64_t rows = column.row_count();
  for (int round = 0; round < 6; ++round) {
    UpdateBatch batch;
    const uint32_t n_ins = static_cast<uint32_t>(rng.UniformInt(0, 3));
    for (uint32_t i = 0; i < n_ins; ++i) {
      batch.inserts.push_back(
          static_cast<uint32_t>(rng.UniformInt(0, kC - 1)));
    }
    for (uint32_t i = 0; i < 3; ++i) {
      batch.updates.push_back(
          UpdateRecord{rng.UniformInt(0, rows - 1), 0,
                       static_cast<uint32_t>(rng.UniformInt(0, kC - 1))});
    }
    batch.deletes = {rng.UniformInt(0, rows - 1)};
    ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
    rows += n_ins;
    ExpectMergedReadsMatchLogical(*index.value(),
                                  "round " + std::to_string(round));
    if (round == 2) {
      // Compact mid-stream: later batches overlay the folded base.
      ASSERT_TRUE(index.value()->Compact(nullptr).ok());
      ExpectMergedReadsMatchLogical(*index.value(), "mid-stream compact");
    }
  }
  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  ExpectMergedReadsMatchLogical(*index.value(), "final compact");
  ExpectStoreMatchesRebuild(*index.value(), config.encoding, config);
}

TEST(WritableDeltaTest, WideDomainOverlayMatchesRebuild) {
  // Cardinality past 128: membership sets straddle two word boundaries of
  // ValueSet's member mask, and the overlay keeps carried tombstones,
  // overrides of them, of live rows and of rows deleted after their
  // update, and appended rows in both states.
  constexpr uint32_t kC = 150;
  Column column = GenerateZipfColumn(
      {.rows = 400, .cardinality = kC, .zipf_z = 0.3, .seed = 59});
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  config.bases_msb_first = {10, 15};
  auto index = WritableBitmapIndex::Create(FreshDeltaDir("wide_domain"),
                                           column, config);
  ASSERT_TRUE(index.ok());

  UpdateBatch first;
  first.inserts = {149, 63, 64};
  first.updates = {{7, 0, 128}, {8, 0, 0}};
  first.deletes = {8, 9, 10, 401};  // 8: overridden, then deleted
  ASSERT_TRUE(index.value()->ApplyBatch(first).ok());
  ExpectMergedReadsMatchLogical(*index.value(), "first batch");

  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  UpdateBatch second;
  second.inserts = {127, 65};
  second.updates = {{9, 0, 64}, {11, 0, 149}, {400, 0, 1}};
  second.deletes = {11, 12, 404};
  ASSERT_TRUE(index.value()->ApplyBatch(second).ok());
  ExpectMergedReadsMatchLogical(*index.value(), "over carried tombstones");
}

// A negated interval served over a writable overlay: the overlay rows must
// be judged by the complement the base rewrite evaluated, in bitmap and
// count-only mode, before and after a compaction.
TEST(WritableDeltaTest, ServedNegatedIntervalMatchesComplement) {
  constexpr uint32_t kC = 10;
  Column column = GenerateZipfColumn(
      {.rows = 1000, .cardinality = kC, .zipf_z = 0.5, .seed = 61});
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  auto index = WritableBitmapIndex::Create(FreshDeltaDir("served_negated"),
                                           column, config);
  ASSERT_TRUE(index.ok());
  WritableBitmapIndex& writable = *index.value();
  UpdateBatch batch;
  batch.inserts = {3, 8};
  batch.updates = {{0, 0, 4}, {1, 0, 9}};
  batch.deletes = {2};
  ASSERT_TRUE(writable.ApplyBatch(batch).ok());

  ServiceOptions options;
  options.num_workers = 1;
  QueryService service(&writable, options);
  auto expect_complement = [&](const std::string& context) {
    Column logical;
    logical.cardinality = kC;
    logical.values = writable.LogicalValues();
    for (const IntervalQuery q :
         {IntervalQuery{2, 5, true}, IntervalQuery{0, 3, true},
          IntervalQuery{4, 9, true}}) {
      Bitvector expected = NaiveEvaluateInterval(logical, q);
      expected.AndWith(writable.LiveMask());
      const std::string name = context + " not[" + std::to_string(q.lo) +
                               "," + std::to_string(q.hi) + "]";
      QueryResult rows = service.Submit(ServiceQuery::Interval(q)).get();
      ASSERT_TRUE(rows.status.ok()) << name;
      EXPECT_EQ(rows.rows, expected) << name;
      EXPECT_EQ(rows.count, expected.Count()) << name;
      QueryResult count =
          service.Submit(ServiceQuery::Interval(q).CountOnly()).get();
      ASSERT_TRUE(count.status.ok()) << name;
      EXPECT_EQ(count.count, expected.Count()) << name;
    }
  };
  expect_complement("overlay");
  ASSERT_TRUE(service.CompactNow().ok());
  UpdateBatch after;
  after.inserts = {5};
  after.updates = {{3, 0, 2}};
  ASSERT_TRUE(writable.ApplyBatch(after).ok());
  expect_complement("after compact");
  service.Shutdown();
}

TEST(WritableDeltaTest, EmptyBatchIsAcceptedAndChangesNothing) {
  Column column = GenerateZipfColumn(
      {.rows = 50, .cardinality = 5, .zipf_z = 0.5, .seed = 51});
  auto index = WritableBitmapIndex::Create(
      FreshDeltaDir("empty_batch"), column, {});
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->ApplyBatch({}).ok());
  EXPECT_EQ(index.value()->PendingDeltaOps(), 0u);
  EXPECT_EQ(index.value()->durability().wal_appends, 0u);
}

TEST(WritableDeltaTest, InvalidBatchesAreRejectedWithoutSideEffects) {
  constexpr uint32_t kC = 5;
  Column column = GenerateZipfColumn(
      {.rows = 50, .cardinality = kC, .zipf_z = 0.5, .seed = 53});
  auto index = WritableBitmapIndex::Create(
      FreshDeltaDir("invalid_batch"), column, {});
  ASSERT_TRUE(index.ok());

  UpdateBatch bad_value;
  bad_value.inserts = {kC};  // out of domain
  EXPECT_EQ(index.value()->ApplyBatch(bad_value).code(),
            Status::Code::kInvalidArgument);
  UpdateBatch bad_rid;
  bad_rid.updates = {{500, 0, 1}};  // beyond the tail
  EXPECT_EQ(index.value()->ApplyBatch(bad_rid).code(),
            Status::Code::kInvalidArgument);
  UpdateBatch bad_delete;
  bad_delete.deletes = {50};
  EXPECT_EQ(index.value()->ApplyBatch(bad_delete).code(),
            Status::Code::kInvalidArgument);

  EXPECT_EQ(index.value()->PendingDeltaOps(), 0u);
  EXPECT_EQ(index.value()->LogicalValues(), column.values);
}

TEST(IndexUpdateTest, CompressedSizeTracksAfterAppend) {
  Column col = GenerateZipfColumn(
      {.rows = 5000, .cardinality = 30, .zipf_z = 2.0, .seed = 3});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(30),
                         EncodingKind::kEquality, /*compressed=*/true);
  const uint64_t before = index.TotalStoredBytes();
  std::vector<uint32_t> tail(2000, 7);
  index.Append(tail);
  // Stored size changed and the store's total matches the sum of blobs.
  uint64_t sum = 0;
  for (uint32_t s = 0; s < 30; ++s) sum += index.store().StoredBytes({1, s});
  EXPECT_EQ(index.TotalStoredBytes(), sum);
  EXPECT_NE(index.TotalStoredBytes(), before);
}

}  // namespace
}  // namespace bix
