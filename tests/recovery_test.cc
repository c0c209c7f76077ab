// Crash-recovery tests for the writable index (DESIGN.md section 15):
// a deterministic crash-point sweep that kills the WAL at every byte
// offset, checkpoint commits interrupted by injected rename/flush/truncate
// failures, torn-tail repair, and replay idempotence — each recovery
// asserted bit-identical to a from-scratch rebuild of the logical column.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/writable_index.h"
#include "index/reorder.h"
#include "query/executor.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes,
                    size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
}

// End offset of every complete record in a WAL image (frame = len|crc|body).
std::vector<size_t> RecordBoundaries(const std::vector<uint8_t>& wal) {
  std::vector<size_t> ends;
  size_t off = 0;
  while (off + 8 <= wal.size()) {
    uint32_t len = 0;
    for (int i = 3; i >= 0; --i) len = (len << 8) | wal[off + i];
    if (wal.size() - off - 8 < len) break;
    off += 8 + len;
    ends.push_back(off);
  }
  return ends;
}

// Reference interpreter for batch semantics: the state a rebuilt index
// would serve. Mirrors DeltaSnapshot::Apply (inserts, updates, deletes, in
// that order; an update revives a tombstoned row).
struct LogicalOracle {
  std::vector<uint32_t> values;
  std::vector<bool> live;

  explicit LogicalOracle(const Column& column)
      : values(column.values), live(column.values.size(), true) {}

  void Apply(const UpdateBatch& batch) {
    for (uint32_t v : batch.inserts) {
      values.push_back(v);
      live.push_back(true);
    }
    for (const UpdateRecord& u : batch.updates) {
      values[u.rid] = u.value;
      live[u.rid] = true;
    }
    for (uint64_t rid : batch.deletes) live[rid] = false;
  }

  Bitvector LiveMask() const {
    Bitvector mask(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i]) mask.Set(i);
    }
    return mask;
  }
};

void ExpectStateMatchesOracle(const WritableBitmapIndex& index,
                              const LogicalOracle& oracle,
                              const std::string& context) {
  EXPECT_EQ(index.LogicalValues(), oracle.values) << context;
  EXPECT_EQ(index.LiveMask(), oracle.LiveMask()) << context;
}

// The two batches every crash test replays: inserts + updates + deletes
// touching base rows, appended rows, and a delete-then-revive pair.
UpdateBatch BatchOne(uint32_t cardinality) {
  UpdateBatch b;
  b.inserts = {1 % cardinality, 3 % cardinality, 0, 2 % cardinality};
  b.updates = {{2, 0, cardinality - 1}, {5, 0, 1 % cardinality}};
  b.deletes = {7, 11};
  return b;
}

UpdateBatch BatchTwo(uint64_t rows_after_one, uint32_t cardinality) {
  UpdateBatch b;
  b.inserts = {cardinality - 1, 1 % cardinality};
  // Revive row 7 (deleted by batch one) and rewrite an appended row.
  b.updates = {{7, 0, 2 % cardinality}, {rows_after_one - 1, 0, 0}};
  b.deletes = {3, rows_after_one - 2};
  return b;
}

struct SweepParam {
  EncodingKind encoding;
  std::vector<uint32_t> bases;
};

class CrashPointSweep : public ::testing::TestWithParam<SweepParam> {};

// Kill the write path at every byte offset of the WAL: recovery must land
// on exactly the batches whose records are fully contained in the prefix —
// the pre-batch state or the post-batch state, never anything in between.
TEST_P(CrashPointSweep, EveryByteOffsetRecoversToABatchBoundary) {
  const SweepParam& p = GetParam();
  constexpr uint32_t kC = 6;
  Column column = GenerateZipfColumn(
      {.rows = 40, .cardinality = kC, .zipf_z = 0.8, .seed = 11});

  const std::string src = FreshDir("sweep_src");
  IndexConfig config;
  config.encoding = p.encoding;
  config.bases_msb_first = p.bases;
  config.codec = StorageCodec::kAuto;
  {
    auto created = WritableBitmapIndex::Create(src, column, config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(created.value()->ApplyBatch(BatchOne(kC)).ok());
    ASSERT_TRUE(
        created.value()->ApplyBatch(BatchTwo(column.row_count() + 4, kC)).ok());
    // Destructor closes the WAL file handle before the sweep copies it.
  }

  const std::vector<uint8_t> wal = ReadFileBytes(src + "/wal.log");
  const std::vector<size_t> boundaries = RecordBoundaries(wal);
  ASSERT_EQ(boundaries.size(), 2u);
  ASSERT_EQ(boundaries.back(), wal.size());

  std::vector<LogicalOracle> oracle_at;  // state after k recovered batches
  oracle_at.emplace_back(column);
  oracle_at.emplace_back(column);
  oracle_at.back().Apply(BatchOne(kC));
  oracle_at.emplace_back(oracle_at.back());
  oracle_at.back().Apply(BatchTwo(column.row_count() + 4, kC));

  const std::string dst = FreshDir("sweep_dst");
  for (const auto& entry : fs::directory_iterator(src)) {
    if (entry.path().filename() != "wal.log") {
      fs::copy_file(entry.path(), dst + "/" + entry.path().filename().string());
    }
  }
  for (size_t cut = 0; cut <= wal.size(); ++cut) {
    WriteFileBytes(dst + "/wal.log", wal, cut);
    auto reopened = WritableBitmapIndex::Open(dst);
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();
    size_t batches = 0;
    while (batches < boundaries.size() && boundaries[batches] <= cut) {
      ++batches;
    }
    const bool at_boundary =
        cut == 0 || (batches > 0 && boundaries[batches - 1] == cut);
    const RecoveryInfo info = reopened.value()->recovery_info();
    EXPECT_EQ(info.recovered_batches, batches) << "cut=" << cut;
    EXPECT_EQ(info.truncated_tail_records, at_boundary ? 0u : 1u)
        << "cut=" << cut;
    ExpectStateMatchesOracle(*reopened.value(), oracle_at[batches],
                             "cut=" + std::to_string(cut));
  }
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  for (EncodingKind enc : AllEncodingKinds()) params.push_back({enc, {6}});
  params.push_back({EncodingKind::kInterval, {3, 2}});
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, CrashPointSweep, ::testing::ValuesIn(SweepParams()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = EncodingKindName(info.param.encoding);
      if (name == "EI*") name = "EIstar";
      return name + "_" + std::to_string(info.param.bases.size()) + "comp";
    });

struct CodecParam {
  EncodingKind encoding;
  StorageCodec codec;
};

class RecoveryCodecMatrix : public ::testing::TestWithParam<CodecParam> {};

// Reopen + compact for every encoding x storage codec: recovered queries
// and the folded store must be bit-identical to an index rebuilt from the
// updated logical column (tombstoned rows keep their last value in both).
TEST_P(RecoveryCodecMatrix, RecoverCompactMatchesRebuild) {
  const CodecParam& p = GetParam();
  constexpr uint32_t kC = 8;
  Column column = GenerateZipfColumn(
      {.rows = 300, .cardinality = kC, .zipf_z = 1.0, .seed = 17});

  const std::string dir = FreshDir("codec_matrix");
  IndexConfig config;
  config.encoding = p.encoding;
  config.codec = p.codec;
  LogicalOracle oracle(column);
  {
    auto created = WritableBitmapIndex::Create(dir, column, config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    UpdateBatch one = BatchOne(kC);
    UpdateBatch two = BatchTwo(column.row_count() + 4, kC);
    ASSERT_TRUE(created.value()->ApplyBatch(one).ok());
    ASSERT_TRUE(created.value()->ApplyBatch(two).ok());
    oracle.Apply(one);
    oracle.Apply(two);
  }

  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  WritableBitmapIndex& index = *reopened.value();
  EXPECT_EQ(index.recovery_info().recovered_batches, 2u);
  ExpectStateMatchesOracle(index, oracle, "after reopen");

  ASSERT_TRUE(index.Compact(nullptr).ok());
  EXPECT_EQ(index.PendingDeltaOps(), 0u);
  ExpectStateMatchesOracle(index, oracle, "after compact");

  // Folded base == bulk rebuild of the logical column, bitmap for bitmap.
  Column logical;
  logical.cardinality = kC;
  logical.values = index.LogicalValues();
  Result<BitmapIndex> rebuilt = BuildIndex(logical, config);
  ASSERT_TRUE(rebuilt.ok());
  const BitmapIndex& base = *index.Snapshot().base;
  const Decomposition& d = base.decomposition();
  ASSERT_EQ(base.row_count(), rebuilt.value().row_count());
  for (uint32_t comp = 1; comp <= d.num_components(); ++comp) {
    const uint32_t slots = GetEncoding(p.encoding).NumBitmaps(d.base(comp));
    for (uint32_t s = 0; s < slots; ++s) {
      EXPECT_EQ(base.store().Materialize({comp, s}),
                rebuilt.value().store().Materialize({comp, s}))
          << "comp=" << comp << " slot=" << s;
    }
  }

  // Query equivalence end to end, through the writable serving path.
  ServiceOptions sopts;
  sopts.num_workers = 2;
  auto service = Serve(&index, sopts);
  ASSERT_TRUE(service.ok());
  const Bitvector live = index.LiveMask();
  for (uint32_t lo = 0; lo < kC; ++lo) {
    for (uint32_t hi = lo; hi < kC; ++hi) {
      Bitvector expected = NaiveEvaluateInterval(logical, {lo, hi});
      expected.AndWith(live);
      QueryResult got = service.value()
                            ->Submit(ServiceQuery::Interval({lo, hi}))
                            .get();
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_EQ(got.rows, expected) << "[" << lo << "," << hi << "]";
    }
  }
  service.value()->Shutdown();
}

std::vector<CodecParam> CodecParams() {
  std::vector<CodecParam> params;
  const StorageCodec codecs[] = {StorageCodec::kVerbatim, StorageCodec::kBbc,
                                 StorageCodec::kWah, StorageCodec::kRoaring,
                                 StorageCodec::kAuto};
  for (EncodingKind enc : AllEncodingKinds()) {
    for (StorageCodec codec : codecs) params.push_back({enc, codec});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecoveryCodecMatrix, ::testing::ValuesIn(CodecParams()),
    [](const ::testing::TestParamInfo<CodecParam>& info) {
      std::string name = EncodingKindName(info.param.encoding);
      if (name == "EI*") name = "EIstar";
      switch (info.param.codec) {
        case StorageCodec::kVerbatim: name += "_verbatim"; break;
        case StorageCodec::kBbc: name += "_bbc"; break;
        case StorageCodec::kWah: name += "_wah"; break;
        case StorageCodec::kRoaring: name += "_roaring"; break;
        case StorageCodec::kAuto: name += "_auto"; break;
      }
      return name;
    });

// --- Reordered base + delta recovery (DESIGN.md section 18) ------------

// Merged interval results over {reordered base + recovered overlay},
// checked in *original* RID space against the oracle's logical column.
// ExpectStateMatchesOracle only covers the sidecar state; this one proves
// the recovered bitmaps answer through the permutation correctly.
void ExpectQueriesMatchOracle(const WritableBitmapIndex& index,
                              const LogicalOracle& oracle,
                              const std::string& context) {
  const IndexSnapshot snap = index.Snapshot();
  Column logical;
  logical.cardinality = index.cardinality();
  logical.values = oracle.values;
  const Bitvector live = oracle.LiveMask();
  QueryExecutor exec(snap.base.get(), {});
  const uint32_t c = logical.cardinality;
  for (const IntervalQuery q :
       {IntervalQuery{0, c - 1}, IntervalQuery{1, c / 2},
        IntervalQuery{c - 2, c - 1}}) {
    std::vector<ExprPtr> exprs;
    exprs.push_back(exec.Rewrite(q));
    Result<Bitvector> got = exec.TryEvaluateRewrittenMerged(
        exprs, snap.delta->View(), ValueSet::Interval(q.lo, q.hi));
    ASSERT_TRUE(got.ok()) << context;
    Bitvector expected = NaiveEvaluateInterval(logical, q);
    expected.AndWith(live);
    ASSERT_EQ(got.value(), expected)
        << context << " [" << q.lo << "," << q.hi << "]";
  }
}

class ReorderedRecoverySweep
    : public ::testing::TestWithParam<ReorderStrategy> {};

// The crash-point sweep over a *reordered* base: every WAL prefix must
// recover to a batch boundary whose merged query results come back in
// original RIDs — the overlay (WAL records, overrides, tombstones) is
// keyed by original RIDs while the recovered base's bitmaps are permuted,
// so any missed translation shows up as a wrong result here.
TEST_P(ReorderedRecoverySweep, EveryPrefixAnswersInOriginalRids) {
  const ReorderStrategy strategy = GetParam();
  constexpr uint32_t kC = 6;
  Column column = GenerateZipfColumn(
      {.rows = 40, .cardinality = kC, .zipf_z = 2.0, .seed = 29});

  const std::string src = FreshDir("reorder_sweep_src");
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  config.bases_msb_first = {3, 2};
  config.codec = StorageCodec::kBbc;
  config.reorder = strategy;
  {
    auto created = WritableBitmapIndex::Create(src, column, config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(created.value()->Snapshot().base->reordered());
    ASSERT_TRUE(created.value()->ApplyBatch(BatchOne(kC)).ok());
    ASSERT_TRUE(
        created.value()->ApplyBatch(BatchTwo(column.row_count() + 4, kC)).ok());
  }

  const std::vector<uint8_t> wal = ReadFileBytes(src + "/wal.log");
  const std::vector<size_t> boundaries = RecordBoundaries(wal);
  ASSERT_EQ(boundaries.size(), 2u);

  std::vector<LogicalOracle> oracle_at;
  oracle_at.emplace_back(column);
  oracle_at.emplace_back(column);
  oracle_at.back().Apply(BatchOne(kC));
  oracle_at.emplace_back(oracle_at.back());
  oracle_at.back().Apply(BatchTwo(column.row_count() + 4, kC));

  const std::string dst = FreshDir("reorder_sweep_dst");
  for (const auto& entry : fs::directory_iterator(src)) {
    if (entry.path().filename() != "wal.log") {
      fs::copy_file(entry.path(), dst + "/" + entry.path().filename().string());
    }
  }
  // Batch boundaries plus a mid-record cut on either side of each.
  std::vector<size_t> cuts = {0, wal.size() / 4};
  for (size_t b : boundaries) {
    cuts.push_back(b - 3);
    cuts.push_back(b);
  }
  for (size_t cut : cuts) {
    WriteFileBytes(dst + "/wal.log", wal, cut);
    auto reopened = WritableBitmapIndex::Open(dst);
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();
    EXPECT_TRUE(reopened.value()->Snapshot().base->reordered());
    size_t batches = 0;
    while (batches < boundaries.size() && boundaries[batches] <= cut) {
      ++batches;
    }
    const std::string context = "cut=" + std::to_string(cut);
    ExpectStateMatchesOracle(*reopened.value(), oracle_at[batches], context);
    ExpectQueriesMatchOracle(*reopened.value(), oracle_at[batches], context);
    // Fold the recovered overlay into the permuted base and re-check: the
    // compaction path translates override RIDs through the inverse order.
    ASSERT_TRUE(reopened.value()->Compact(nullptr).ok()) << context;
    EXPECT_TRUE(reopened.value()->Snapshot().base->reordered()) << context;
    ExpectQueriesMatchOracle(*reopened.value(), oracle_at[batches],
                             context + " compacted");
    // Leave dst pristine for the next cut (compaction rewrote files).
    fs::remove_all(dst);
    fs::create_directories(dst);
    for (const auto& entry : fs::directory_iterator(src)) {
      if (entry.path().filename() != "wal.log") {
        fs::copy_file(entry.path(),
                      dst + "/" + entry.path().filename().string());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ReorderedRecoverySweep,
    ::testing::ValuesIn(AllReorderStrategies()),
    [](const ::testing::TestParamInfo<ReorderStrategy>& info) {
      return std::string(ReorderStrategyName(info.param));
    });

Column SmallColumn() {
  return GenerateZipfColumn(
      {.rows = 120, .cardinality = 5, .zipf_z = 0.5, .seed = 23});
}

IndexConfig SmallConfig() {
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  return config;
}

// An injected WAL flush failure must leave the batch unapplied (the append
// is repaired away) and the call retryable; the retry succeeds and the
// final state matches the oracle.
TEST(RecoveryTest, FailedWalFsyncAppliesNothingAndIsRetryable) {
  const std::string dir = FreshDir("flush_fail");
  FaultInjector injector({.flush_fail_first_attempts = 1});
  Column column = SmallColumn();
  auto index =
      WritableBitmapIndex::Create(dir, column, SmallConfig(), {.injector = &injector});
  ASSERT_TRUE(index.ok());

  UpdateBatch batch = BatchOne(5);
  Status s = index.value()->ApplyBatch(batch);
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_EQ(index.value()->PendingDeltaOps(), 0u);

  ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
  LogicalOracle oracle(column);
  oracle.Apply(batch);
  ExpectStateMatchesOracle(*index.value(), oracle, "after retry");

  // The repaired-then-retried WAL replays exactly one batch.
  index.value().reset();
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->recovery_info().recovered_batches, 1u);
  ExpectStateMatchesOracle(*reopened.value(), oracle, "after reopen");
}

// Checkpoint commit interrupted by an injected rename failure: the first
// Compact fails without losing anything; the retry commits — and its
// injected WAL-truncate failure is tolerated because replay skips stale
// records by sequence number.
TEST(RecoveryTest, CheckpointRenameFailureThenStaleWalIsSkipped) {
  const std::string dir = FreshDir("rename_fail");
  Column column = SmallColumn();
  {
    auto created = WritableBitmapIndex::Create(dir, column, SmallConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }
  // Injector attached on reopen, so the initial checkpoint stays clean.
  FaultInjector injector({.rename_fail_first_attempts = 1});
  auto index = WritableBitmapIndex::Open(dir, {.injector = &injector});
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  UpdateBatch batch = BatchOne(5);
  ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
  LogicalOracle oracle(column);
  oracle.Apply(batch);

  // First attempt dies at the first checkpoint rename; nothing committed,
  // nothing lost.
  Status s = index.value()->Compact(nullptr);
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_EQ(index.value()->PendingDeltaOps(), batch.ops());
  ExpectStateMatchesOracle(*index.value(), oracle, "after failed compact");

  // Retry: renames succeed now, but the first WAL truncate fails — the
  // checkpoint is already durable, so Compact reports success and leaves
  // the stale records behind.
  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  EXPECT_EQ(index.value()->PendingDeltaOps(), 0u);
  EXPECT_GT(ReadFileBytes(dir + "/wal.log").size(), 0u);

  // Replay must skip the stale (seq <= checkpoint) records.
  index.value().reset();
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovery_info().recovered_batches, 0u);
  ExpectStateMatchesOracle(*reopened.value(), oracle, "after reopen");
}

// A crash exactly between manifest commit and WAL truncation, simulated by
// restoring the pre-compaction WAL image after a clean Compact.
TEST(RecoveryTest, CrashBetweenCheckpointAndTruncateIsIdempotent) {
  const std::string dir = FreshDir("ckpt_truncate_gap");
  Column column = SmallColumn();
  auto index = WritableBitmapIndex::Create(dir, column, SmallConfig());
  ASSERT_TRUE(index.ok());

  UpdateBatch batch = BatchOne(5);
  ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
  LogicalOracle oracle(column);
  oracle.Apply(batch);

  const std::vector<uint8_t> wal_before = ReadFileBytes(dir + "/wal.log");
  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  index.value().reset();

  // The crash left the old WAL in place alongside the new manifest.
  WriteFileBytes(dir + "/wal.log", wal_before, wal_before.size());
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovery_info().recovered_batches, 0u);
  ExpectStateMatchesOracle(*reopened.value(), oracle, "stale WAL skipped");
}

// A torn tail is trimmed on open and the log stays writable: the next
// batch lands after the repaired prefix and survives another reopen.
TEST(RecoveryTest, TornTailRepairKeepsLogWritable) {
  const std::string dir = FreshDir("torn_tail");
  Column column = SmallColumn();
  auto index = WritableBitmapIndex::Create(dir, column, SmallConfig());
  ASSERT_TRUE(index.ok());
  UpdateBatch one = BatchOne(5);
  UpdateBatch two = BatchTwo(column.row_count() + 4, 5);
  ASSERT_TRUE(index.value()->ApplyBatch(one).ok());
  ASSERT_TRUE(index.value()->ApplyBatch(two).ok());
  index.value().reset();

  std::vector<uint8_t> wal = ReadFileBytes(dir + "/wal.log");
  const std::vector<size_t> ends = RecordBoundaries(wal);
  ASSERT_EQ(ends.size(), 2u);
  WriteFileBytes(dir + "/wal.log", wal, ends[0] + 5);  // mid-second-record

  LogicalOracle oracle(column);
  oracle.Apply(one);
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->recovery_info().recovered_batches, 1u);
  EXPECT_EQ(reopened.value()->recovery_info().truncated_tail_records, 1u);
  ExpectStateMatchesOracle(*reopened.value(), oracle, "tail trimmed");

  // Write after repair, then prove the log is again fully intact.
  ASSERT_TRUE(reopened.value()->ApplyBatch(two).ok());
  oracle.Apply(two);
  reopened.value().reset();
  auto again = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->recovery_info().recovered_batches, 2u);
  EXPECT_EQ(again.value()->recovery_info().truncated_tail_records, 0u);
  ExpectStateMatchesOracle(*again.value(), oracle, "after repair + append");
}

// A complete record whose checksum fails is corruption, not a torn tail —
// short writes only ever shorten the file, so mid-file damage means the
// storage lied about durability.
TEST(RecoveryTest, ChecksumMismatchInCompleteRecordIsCorruption) {
  const std::string dir = FreshDir("midfile_corruption");
  Column column = SmallColumn();
  auto index = WritableBitmapIndex::Create(dir, column, SmallConfig());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->ApplyBatch(BatchOne(5)).ok());
  index.value().reset();

  std::vector<uint8_t> wal = ReadFileBytes(dir + "/wal.log");
  wal[wal.size() / 2] ^= 0x40;  // flip a payload bit, length intact
  WriteFileBytes(dir + "/wal.log", wal, wal.size());
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Status::Code::kCorruption);
}

// Reopening without intervening writes is idempotent: same recovered
// counts, same state, every time.
TEST(RecoveryTest, ReopenIsIdempotent) {
  const std::string dir = FreshDir("idempotent");
  Column column = SmallColumn();
  auto index = WritableBitmapIndex::Create(dir, column, SmallConfig());
  ASSERT_TRUE(index.ok());
  UpdateBatch batch = BatchOne(5);
  ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
  index.value().reset();

  LogicalOracle oracle(column);
  oracle.Apply(batch);
  for (int round = 0; round < 3; ++round) {
    auto reopened = WritableBitmapIndex::Open(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.value()->recovery_info().recovered_batches, 1u);
    ExpectStateMatchesOracle(*reopened.value(), oracle,
                             "round " + std::to_string(round));
  }
}

// The rename-then-no-dirsync crash point: the checkpoint MANIFEST was
// atomically renamed into place, but the *directory entry* never reached
// the platter — on power loss the directory may still name the old
// manifest. The injected dir-fsync failure makes Compact report exactly
// that (Unavailable, nothing truncated), and restoring the old MANIFEST
// bytes simulates the lost dirent: recovery must replay every WAL batch
// onto the old checkpoint and land bit-identical to the oracle.
TEST(RecoveryTest, CheckpointDirFsyncFailureSurvivesLostRename) {
  const std::string dir = FreshDir("dir_fsync_crash");
  Column column = SmallColumn();
  {
    auto created = WritableBitmapIndex::Create(dir, column, SmallConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }
  // Injector attached on reopen, so the initial checkpoint stays clean;
  // the first directory fsync it sees is Compact's commit-point sync.
  FaultInjector injector({.dir_fsync_fail_first_attempts = 1});
  auto index = WritableBitmapIndex::Open(dir, {.injector = &injector});
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  UpdateBatch one = BatchOne(5);
  UpdateBatch two = BatchTwo(column.values.size() + one.inserts.size(), 5);
  ASSERT_TRUE(index.value()->ApplyBatch(one).ok());
  ASSERT_TRUE(index.value()->ApplyBatch(two).ok());
  LogicalOracle oracle(column);
  oracle.Apply(one);
  oracle.Apply(two);

  const std::vector<uint8_t> manifest_before =
      ReadFileBytes(dir + "/MANIFEST");
  const std::vector<uint8_t> wal_before = ReadFileBytes(dir + "/wal.log");

  // The rename lands but its dirent sync fails: not durable, so Compact
  // must refuse to declare the checkpoint committed or touch the WAL.
  Status s = index.value()->Compact(nullptr);
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_EQ(index.value()->PendingDeltaOps(), one.ops() + two.ops());
  EXPECT_EQ(ReadFileBytes(dir + "/wal.log"), wal_before);
  ExpectStateMatchesOracle(*index.value(), oracle, "after failed compact");
  index.value().reset();

  // Power loss: the directory forgot the rename. Replay carries recovery.
  WriteFileBytes(dir + "/MANIFEST", manifest_before, manifest_before.size());
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovery_info().recovered_batches, 2u);
  ExpectStateMatchesOracle(*reopened.value(), oracle, "old manifest + replay");
}

// Same injected failure without the crash: the failed Compact is cleanly
// retryable, and the retry's checkpoint makes replay unnecessary.
TEST(RecoveryTest, CheckpointDirFsyncFailureIsRetryable) {
  const std::string dir = FreshDir("dir_fsync_retry");
  Column column = SmallColumn();
  {
    auto created = WritableBitmapIndex::Create(dir, column, SmallConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
  }
  FaultInjector injector({.dir_fsync_fail_first_attempts = 1});
  auto index = WritableBitmapIndex::Open(dir, {.injector = &injector});
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  UpdateBatch batch = BatchOne(5);
  ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
  LogicalOracle oracle(column);
  oracle.Apply(batch);

  EXPECT_EQ(index.value()->Compact(nullptr).code(),
            Status::Code::kUnavailable);
  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  EXPECT_EQ(index.value()->PendingDeltaOps(), 0u);
  EXPECT_EQ(injector.counters().flush_failures, 1u);

  index.value().reset();
  auto reopened = WritableBitmapIndex::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->recovery_info().recovered_batches, 0u);
  ExpectStateMatchesOracle(*reopened.value(), oracle, "after retried compact");
}

// Create refuses a directory that already holds an index, and Open refuses
// a directory that never held one.
TEST(RecoveryTest, CreateAndOpenGuardRails) {
  const std::string dir = FreshDir("guard_rails");
  Column column = SmallColumn();
  ASSERT_TRUE(WritableBitmapIndex::Create(dir, column, SmallConfig()).ok());
  EXPECT_FALSE(WritableBitmapIndex::Create(dir, column, SmallConfig()).ok());
  EXPECT_FALSE(WritableBitmapIndex::Open(FreshDir("never_created")).ok());
}

uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

// Every single-byte corruption of a checkpoint sidecar or the MANIFEST
// fails Open with a typed error, and no flipped count sizes an allocation
// beyond the file's own bytes. Swept twice: the sidecar Create writes (no
// tombstones) and the one a compaction writes (rows and tombstones).
TEST(RecoveryTest, EveryCheckpointByteFlipFailsOpenCleanly) {
  const std::string dir = FreshDir("checkpoint_byte_flips");
  const uint64_t rss_before = PeakRssBytes();
  const auto sweep = [&](const std::string& name) {
    const std::string path = dir + "/" + name;
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    ASSERT_FALSE(bytes.empty()) << name;
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] ^= 0x2A;
      WriteFileBytes(path, bytes, bytes.size());
      bytes[i] ^= 0x2A;
      auto opened = WritableBitmapIndex::Open(dir);
      ASSERT_FALSE(opened.ok()) << name << " byte " << i;
      const Status::Code code = opened.status().code();
      EXPECT_TRUE(code == Status::Code::kCorruption ||
                  code == Status::Code::kInvalidArgument ||
                  code == Status::Code::kNotSupported)
          << name << " byte " << i << ": " << opened.status().ToString();
    }
    WriteFileBytes(path, bytes, bytes.size());
  };
  {
    auto created = WritableBitmapIndex::Create(dir, SmallColumn(), SmallConfig());
    ASSERT_TRUE(created.ok());
  }
  sweep("state-0.bix");
  sweep("MANIFEST");
  {
    auto reopened = WritableBitmapIndex::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE(reopened.value()->ApplyBatch(BatchOne(5)).ok());
    ASSERT_TRUE(reopened.value()->Compact(nullptr).ok());
  }
  sweep("state-1.bix");
  sweep("MANIFEST");
  EXPECT_LT(PeakRssBytes() - rss_before, uint64_t{64} << 20);
  EXPECT_TRUE(WritableBitmapIndex::Open(dir).ok());
}

}  // namespace
}  // namespace bix
