// Tests for batched index maintenance through the writable index (DESIGN.md
// section 15): after a batch of inserts, updates and deletes, every merged
// read must match the naive scan of the logical column, and a compaction
// must fold the overlay into stored bitmaps identical to a rebuild, for
// every encoding, compressed and uncompressed, single- and
// multi-component.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "core/writable_index.h"
#include "merged_oracle.h"
#include "server/query_service.h"
#include "util/rng.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

std::string FreshDeltaDir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

// A folded base must equal a rebuild of the logical column (tombstoned
// rows keep their last value) blob for blob: same codec tags, same stored
// bytes, same total.
void ExpectStoreMatchesRebuild(const WritableBitmapIndex& index,
                               const IndexConfig& config) {
  Column logical;
  logical.cardinality = index.cardinality();
  logical.values = index.LogicalValues();
  Result<BitmapIndex> rebuilt = BuildIndex(logical, config);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const BitmapIndex& base = *index.Snapshot().base;
  ASSERT_EQ(base.row_count(), rebuilt.value().row_count());
  ASSERT_EQ(base.BitmapCount(), rebuilt.value().BitmapCount());
  base.store().ForEachBlob(
      [&](const BitmapKey& key, const BitmapStore::Blob& blob) {
        const BitmapStore::Blob& want = rebuilt.value().store().GetBlob(key);
        EXPECT_EQ(blob.codec, want.codec)
            << "comp=" << key.component << " slot=" << key.slot;
        EXPECT_EQ(blob.bit_count, want.bit_count);
        EXPECT_EQ(blob.bytes, want.bytes)
            << "comp=" << key.component << " slot=" << key.slot;
      });
  EXPECT_EQ(base.TotalStoredBytes(), rebuilt.value().TotalStoredBytes());
}

struct UpdateParam {
  EncodingKind encoding;
  std::vector<uint32_t> bases;
  bool compressed;
};

std::string UpdateParamName(const UpdateParam& p) {
  std::string name = EncodingKindName(p.encoding);
  if (name == "EI*") name = "EIstar";
  name += "_" + std::to_string(p.bases.size()) + "comp";
  name += p.compressed ? "_bbc" : "_raw";
  return name;
}

class IndexUpdateSweep : public ::testing::TestWithParam<UpdateParam> {};

// The writable index is the one way a built index changes: create it over
// a prefix, apply one batch that appends the rest and updates and deletes
// rows, read through the overlay, then fold it.
TEST_P(IndexUpdateSweep, FoldedBatchMatchesRebuild) {
  const UpdateParam& p = GetParam();
  constexpr uint32_t kC = 20;
  Column full = GenerateZipfColumn(
      {.rows = 1500, .cardinality = kC, .zipf_z = 1.0, .seed = 31});
  Column prefix = full;
  prefix.values.resize(1000);

  IndexConfig config;
  config.encoding = p.encoding;
  config.bases_msb_first = p.bases;
  config.codec = p.compressed ? StorageCodec::kBbc : StorageCodec::kVerbatim;
  auto index = WritableBitmapIndex::Create(
      FreshDeltaDir("sweep_" + UpdateParamName(p)), prefix, config,
      {.sync_wal = false});
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  UpdateBatch batch;
  batch.inserts.assign(full.values.begin() + 1000, full.values.end());
  // Updates in the base and in the appended rows; one deleted row was
  // updated first, one appended row is deleted.
  for (uint64_t rid : {3u, 97u, 500u, 998u, 1001u, 1333u}) {
    batch.updates.push_back({rid, 0, (full.values[rid] + 7) % kC});
  }
  batch.deletes = {0, 97, 640, 1499};
  ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
  EXPECT_EQ(index.value()->LogicalValues().size(), full.row_count());
  ExpectMergedReadsMatchLogical(*index.value(), "overlay");

  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  EXPECT_EQ(index.value()->Snapshot().base->row_count(), full.row_count());
  ExpectStoreMatchesRebuild(*index.value(), config);
  ExpectMergedReadsMatchLogical(*index.value(), "folded");
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
      return UpdateParamName(info.param);
    });

// --- Writable-index delta semantics (DESIGN.md section 15) --------------
// Every scenario is checked the same way: merged query results (and, after
// compaction, the stored bitmaps themselves) must be identical to an index
// rebuilt from scratch over the updated logical column. The merged
// reads sweep every interval, plain and negated, and gapped membership
// sets, each as a bitmap, its count and a count-only answer
// (ExpectMergedReadsMatchLogical, tests/merged_oracle.h).

// Every file in `dir`, by name.
std::map<std::string, std::string> DirImage(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()].assign(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

// A writable index with one pending batch whose base has a bit flipped in
// memory: row 0's bit set in the equality bitmap of a value row 0 does not
// hold (verbatim bytes are LSB-first). The bytes live in the vector's heap
// buffer, not in the const index, so writing them is well defined.
struct RottenBase {
  IndexConfig config;
  std::unique_ptr<WritableBitmapIndex> index;
  UpdateBatch batch;
  IndexSnapshot before;  // pins the rotten base
};

void MakeRottenBase(const std::string& dir, RottenBase* out) {
  constexpr uint32_t kC = 8;
  Column column = GenerateZipfColumn(
      {.rows = 200, .cardinality = kC, .zipf_z = 0.7, .seed = 61});
  out->config.encoding = EncodingKind::kEquality;
  out->config.codec = StorageCodec::kVerbatim;
  auto created = WritableBitmapIndex::Create(dir, column, out->config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  out->index = std::move(created).value();
  out->batch.inserts = {5, 2};
  out->batch.updates = {{1, 0, 3}};
  out->batch.deletes = {4};
  ASSERT_TRUE(out->index->ApplyBatch(out->batch).ok());

  out->before = out->index->Snapshot();
  const uint32_t wrong = (column.values[0] + 1) % kC;
  const BitmapStore& store = out->before.base->store();
  const BitmapStore::Blob& blob = store.GetBlob({1, wrong});
  ASSERT_EQ(blob.bytes[0] & 0x01, 0);
  const_cast<uint8_t&>(blob.bytes[0]) ^= 0x01;
  ASSERT_FALSE(store.TryMaterialize({1, wrong}).ok());
}

// The checkpoint file holds the base and its record checksums vouch for
// it, so compaction folds from the file instead: the rotten bit never
// reaches the new checkpoint, and the fold commits.
TEST(WritableDeltaTest, CompactHealsARottenBaseFromTheCheckpoint) {
  const std::string dir = FreshDeltaDir("rotten_base");
  RottenBase r;
  ASSERT_NO_FATAL_FAILURE(MakeRottenBase(dir, &r));
  const uint64_t compactions = r.index->durability().compactions;
  const Status s = r.index->Compact(nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(r.index->Snapshot().base_epoch, r.before.base_epoch + 1);
  EXPECT_EQ(r.index->durability().compactions, compactions + 1);
  EXPECT_EQ(r.index->PendingDeltaOps(), 0u);
  ExpectStoreMatchesRebuild(*r.index, r.config);
  ExpectMergedReadsMatchLogical(*r.index, "healed");

  r.index.reset();
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovery_info().recovered_batches, 0u);
  ExpectStoreMatchesRebuild(*reopened.value(), r.config);
}

// When the checkpoint file has rotted as well, nothing vouches for the
// base: Compact refuses with Corruption before writing anything.
TEST(WritableDeltaTest, CompactRefusesWhenTheCheckpointIsRottenToo) {
  const std::string dir = FreshDeltaDir("rotten_base_and_checkpoint");
  RottenBase r;
  ASSERT_NO_FATAL_FAILURE(MakeRottenBase(dir, &r));
  const std::string path = dir + "/index-0.bix";
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 8u);
  bytes[bytes.size() - 8] ^= 0x01;  // inside the last record's payload
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const uint64_t compactions = r.index->durability().compactions;
  const std::map<std::string, std::string> files = DirImage(dir);

  const Status s = r.index->Compact(nullptr);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_EQ(r.index->durability().compactions, compactions);
  EXPECT_EQ(r.index->Snapshot().base_epoch, r.before.base_epoch);
  EXPECT_EQ(r.index->PendingDeltaOps(), r.batch.ops());
  EXPECT_EQ(DirImage(dir), files);
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
  ExpectStoreMatchesRebuild(*index.value(), config);
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
  ExpectStoreMatchesRebuild(*index.value(), config);
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
  ExpectStoreMatchesRebuild(*index.value(), config);
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

}  // namespace
}  // namespace bix
