// Round-trip and corruption tests for index persistence (core/index_io).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/index_io.h"
#include "query/executor.h"
#include "util/byte_io.h"
#include "util/crc32c.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct IoParam {
  EncodingKind encoding;
  std::vector<uint32_t> bases;
  bool compressed;
};

class IndexIoSweep : public ::testing::TestWithParam<IoParam> {};

TEST_P(IndexIoSweep, SaveLoadRoundtrip) {
  const IoParam& p = GetParam();
  Column col = GenerateZipfColumn(
      {.rows = 2000, .cardinality = 24, .zipf_z = 1.0, .seed = 81});
  Decomposition d = Decomposition::Make(24, p.bases).value();
  BitmapIndex original = BitmapIndex::Build(col, d, p.encoding, p.compressed);

  const std::string path = TempPath("roundtrip.bix");
  ASSERT_TRUE(SaveIndex(original, path).ok());
  Result<BitmapIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value().row_count(), original.row_count());
  EXPECT_EQ(loaded.value().encoding_kind(), original.encoding_kind());
  EXPECT_EQ(loaded.value().compressed(), original.compressed());
  EXPECT_EQ(loaded.value().TotalStoredBytes(), original.TotalStoredBytes());
  EXPECT_EQ(loaded.value().decomposition().BasesMsbFirst(),
            original.decomposition().BasesMsbFirst());

  // Queries over the loaded index match naive evaluation.
  QueryExecutor exec(&loaded.value(), {});
  for (uint32_t lo = 0; lo < 24; lo += 3) {
    for (uint32_t hi = lo; hi < 24; hi += 5) {
      EXPECT_EQ(exec.EvaluateInterval({lo, hi}),
                NaiveEvaluateInterval(col, {lo, hi}));
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IndexIoSweep,
    ::testing::Values(IoParam{EncodingKind::kEquality, {24}, false},
                      IoParam{EncodingKind::kInterval, {24}, true},
                      IoParam{EncodingKind::kRange, {4, 6}, false},
                      IoParam{EncodingKind::kEiStar, {4, 6}, true},
                      IoParam{EncodingKind::kOreo, {24}, false}),
    [](const ::testing::TestParamInfo<IoParam>& info) {
      std::string name = EncodingKindName(info.param.encoding);
      if (name == "EI*") name = "EIstar";
      name += "_" + std::to_string(info.param.bases.size()) + "comp";
      name += info.param.compressed ? "_bbc" : "_raw";
      return name;
    });

class IndexIoCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    Column col = GenerateZipfColumn(
        {.rows = 500, .cardinality = 10, .zipf_z = 0.0, .seed = 82});
    BitmapIndex index =
        BitmapIndex::Build(col, Decomposition::SingleComponent(10),
                           EncodingKind::kInterval, false);
    path_ = TempPath("corrupt.bix");
    ASSERT_TRUE(SaveIndex(index, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in), {});
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBack(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(IndexIoCorruption, RejectsBadMagic) {
  std::vector<char> bad = bytes_;
  bad[0] = 'X';
  WriteBack(bad);
  EXPECT_FALSE(LoadIndex(path_).ok());
}

TEST_F(IndexIoCorruption, RejectsBadVersion) {
  // v4 is the only version: the retired v1-v3 layouts and an unknown
  // future one are all NotSupported.
  for (int version : {99, 1, 2, 3, 5}) {
    std::vector<char> bad = bytes_;
    bad[4] = static_cast<char>(version);
    WriteBack(bad);
    Result<BitmapIndex> r = LoadIndex(path_);
    ASSERT_FALSE(r.ok()) << version;
    EXPECT_EQ(r.status().code(), Status::Code::kNotSupported) << version;
  }
}

TEST_F(IndexIoCorruption, RejectsTruncatedFile) {
  for (size_t keep : {size_t{10}, bytes_.size() / 2, bytes_.size() - 1}) {
    std::vector<char> bad(bytes_.begin(), bytes_.begin() + keep);
    WriteBack(bad);
    EXPECT_FALSE(LoadIndex(path_).ok()) << keep;
  }
}

TEST_F(IndexIoCorruption, RejectsBadEncodingKind) {
  std::vector<char> bad = bytes_;
  bad[8] = 42;  // encoding byte
  WriteBack(bad);
  EXPECT_FALSE(LoadIndex(path_).ok());
}

TEST_F(IndexIoCorruption, RejectsMissingFile) {
  EXPECT_FALSE(LoadIndex(TempPath("does_not_exist.bix")).ok());
}

TEST_F(IndexIoCorruption, EverySingleByteFlipRejectedCleanly) {
  // The tentpole integrity property: flip one byte at *every* offset of a
  // v4 file and the load must fail with a typed status -- never a crash,
  // an abort, or a silently wrong index. A flip in the version field may
  // legitimately yield NotSupported; everything else must surface as
  // Corruption or InvalidArgument (a header flip can reach structural
  // validation, e.g. an invalid decomposition).
  for (size_t offset = 0; offset < bytes_.size(); ++offset) {
    std::vector<char> bad = bytes_;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x2A);
    WriteBack(bad);
    Result<BitmapIndex> r = LoadIndex(path_);
    ASSERT_FALSE(r.ok()) << "offset " << offset << " of " << bytes_.size();
    const Status::Code code = r.status().code();
    EXPECT_TRUE(code == Status::Code::kCorruption ||
                code == Status::Code::kInvalidArgument ||
                code == Status::Code::kNotSupported)
        << "offset " << offset << ": " << r.status().ToString();
  }
}

TEST_F(IndexIoCorruption, PayloadBitFlipIsCorruption) {
  // A flip inside a bitmap payload (well past the header) must be caught
  // by the record checksum specifically as Corruption.
  const size_t offset = bytes_.size() - 8;
  std::vector<char> bad = bytes_;
  bad[offset] = static_cast<char>(bad[offset] ^ 0x01);
  WriteBack(bad);
  Result<BitmapIndex> r = LoadIndex(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
}

// Writes `index` as a v4 file laid out exactly as SaveIndex lays it out,
// but with the given row order, bitmap count and record keys in place of
// the index's own. Every checksum is valid, so a load passes both CRC
// checks and only the structural checks behind them can refuse the file.
// A key the index lacks gets the blob of the first of `keys`.
void WriteV4(const std::string& path, const BitmapIndex& index,
             const std::vector<uint32_t>& row_order, uint64_t bitmap_count,
             const std::vector<BitmapKey>& keys) {
  FileWriter w(path);
  ASSERT_TRUE(w.is_open());
  w.Bytes("BIXI", 4);
  w.Le32(4);
  w.U8(static_cast<uint8_t>(index.encoding_kind()));
  w.U8(static_cast<uint8_t>(index.storage_codec()));
  w.Le32(index.decomposition().cardinality());
  w.Le64(index.row_count());
  const std::vector<uint32_t> bases = index.decomposition().BasesMsbFirst();
  w.Le32(static_cast<uint32_t>(bases.size()));
  w.Le32s(bases.data(), bases.size());
  w.Le64(row_order.size());
  w.Le32s(row_order.data(), row_order.size());
  w.Le64(bitmap_count);
  w.Le32(w.crc());
  const BitmapStore& store = index.store();
  for (const BitmapKey& key : keys) {
    const BitmapStore::Blob& blob =
        store.GetBlob(store.Contains(key) ? key : keys.front());
    w.ResetCrc();
    w.Le32(key.component);
    w.Le32(key.slot);
    w.U8(static_cast<uint8_t>(blob.codec));
    w.Le64(blob.bit_count);
    w.Le64(blob.bytes.size());
    w.Bytes(blob.bytes.data(), blob.bytes.size());
    w.Le32(w.crc());
  }
  ASSERT_TRUE(w.Close());
}

// Pins the four structural checks LoadIndex runs on a checksum-valid file:
// each CRC-valid file below breaks exactly one of them.
class IndexIoStructure : public ::testing::Test {
 protected:
  void SetUp() override {
    Column col = GenerateZipfColumn(
        {.rows = 300, .cardinality = 10, .zipf_z = 1.0, .seed = 85});
    index_ = std::make_unique<BitmapIndex>(
        BitmapIndex::Build(col, Decomposition::SingleComponent(10),
                           EncodingKind::kEquality, false));
    index_->SetRowOrder(ReverseOrder());
    index_->store().ForEachBlob(
        [&](const BitmapKey& key, const BitmapStore::Blob&) {
          keys_.push_back(key);
        });
    path_ = TempPath("structure.bix");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<uint32_t> ReverseOrder() const {
    std::vector<uint32_t> order(300);
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = 299 - i;
    return order;
  }

  // Writes the parts, loads them, and expects Corruption saying `message`.
  void ExpectCorruption(const std::vector<uint32_t>& row_order,
                        uint64_t bitmap_count,
                        const std::vector<BitmapKey>& keys,
                        const std::string& message) {
    WriteV4(path_, *index_, row_order, bitmap_count, keys);
    Result<BitmapIndex> r = LoadIndex(path_);
    ASSERT_FALSE(r.ok()) << message;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(r.status().message(), message);
  }

  std::unique_ptr<BitmapIndex> index_;
  std::vector<BitmapKey> keys_;
  std::string path_;
};

TEST_F(IndexIoStructure, HelperWritesWhatSaveIndexWrites) {
  ASSERT_TRUE(SaveIndex(*index_, path_).ok());
  std::ifstream saved_in(path_, std::ios::binary);
  const std::vector<char> saved(std::istreambuf_iterator<char>(saved_in), {});
  WriteV4(path_, *index_, ReverseOrder(), keys_.size(), keys_);
  std::ifstream written_in(path_, std::ios::binary);
  const std::vector<char> written(std::istreambuf_iterator<char>(written_in),
                                  {});
  EXPECT_EQ(written, saved);
  EXPECT_TRUE(LoadIndex(path_).ok());
}

TEST_F(IndexIoStructure, RowOrderNotAPermutation) {
  std::vector<uint32_t> order = ReverseOrder();
  order[1] = order[0];
  ExpectCorruption(order, keys_.size(), keys_,
                   "row order is not a permutation");
}

TEST_F(IndexIoStructure, BitmapCountDisagreesWithDecomposition) {
  ExpectCorruption(ReverseOrder(), keys_.size() + 1, keys_,
                   "bitmap inventory mismatch");
}

TEST_F(IndexIoStructure, RepeatedKey) {
  std::vector<BitmapKey> keys = keys_;
  keys.back() = keys.front();
  ExpectCorruption(ReverseOrder(), keys.size(), keys,
                   "duplicate bitmap key in file");
}

TEST_F(IndexIoStructure, KeyOutsideItsComponent) {
  std::vector<BitmapKey> keys = keys_;
  keys.back() = BitmapKey{1, 10};  // equality over 10 values: slots 0-9
  ExpectCorruption(ReverseOrder(), keys.size(), keys,
                   "bitmap key out of range");
}

class IndexIoVersions : public ::testing::Test {
 protected:
  void SetUp() override {
    col_ = GenerateZipfColumn(
        {.rows = 1500, .cardinality = 16, .zipf_z = 1.0, .seed = 83});
    index_ = std::make_unique<BitmapIndex>(
        BitmapIndex::Build(col_, Decomposition::Make(16, {4, 4}).value(),
                           EncodingKind::kRange, true));
  }

  void ExpectQueriesMatch(const BitmapIndex& loaded) {
    QueryExecutor exec(&loaded, {});
    for (uint32_t lo = 0; lo < 16; lo += 2) {
      EXPECT_EQ(exec.EvaluateInterval({lo, 15}),
                NaiveEvaluateInterval(col_, {lo, 15}));
    }
  }

  Column col_;
  std::unique_ptr<BitmapIndex> index_;
};

TEST_F(IndexIoVersions, CurrentFormatIsChecksummed) {
  const std::string path = TempPath("v4.bix");
  ASSERT_TRUE(SaveIndex(*index_, path).ok());
  Result<BitmapIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Every loaded blob carries its payload checksum, which the storage
  // layer re-checks on materialization.
  loaded.value().store().ForEachBlob(
      [](const BitmapKey&, const BitmapStore::Blob& blob) {
        EXPECT_EQ(blob.crc32c, Crc32c(blob.bytes.data(), blob.bytes.size()));
      });
  ExpectQueriesMatch(loaded.value());
  std::remove(path.c_str());
}

class IndexIoCodecSweep : public ::testing::TestWithParam<StorageCodec> {};

TEST_P(IndexIoCodecSweep, CurrentRoundTripPreservesCodecTags) {
  const StorageCodec codec = GetParam();
  Column col = GenerateZipfColumn(
      {.rows = 3000, .cardinality = 20, .zipf_z = 1.2, .seed = 84});
  BitmapIndex original =
      BitmapIndex::Build(col, Decomposition::Make(20, {5, 4}).value(),
                         EncodingKind::kInterval, codec);

  const std::string path = TempPath("codec_roundtrip.bix");
  ASSERT_TRUE(SaveIndex(original, path).ok());
  Result<BitmapIndex> loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().storage_codec(), codec);
  EXPECT_EQ(loaded.value().TotalStoredBytes(), original.TotalStoredBytes());

  // Every blob keeps its exact codec tag and stored bytes across the
  // round trip.
  size_t count = 0;
  loaded.value().store().ForEachBlob([&](const BitmapKey& key,
                                         const BitmapStore::Blob& blob) {
    ++count;
    Result<const BitmapStore::Blob*> orig = original.store().TryGetBlob(key);
    ASSERT_TRUE(orig.ok());
    EXPECT_EQ(blob.codec, orig.value()->codec);
    EXPECT_EQ(blob.bytes, orig.value()->bytes);
    if (codec != StorageCodec::kAuto) {
      EXPECT_EQ(blob.codec, static_cast<CodecId>(codec));
    }
  });
  EXPECT_GT(count, 0u);

  QueryExecutor exec(&loaded.value(), {});
  for (uint32_t lo = 0; lo < 20; lo += 3) {
    EXPECT_EQ(exec.EvaluateInterval({lo, 19}),
              NaiveEvaluateInterval(col, {lo, 19}));
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Codecs, IndexIoCodecSweep,
                         ::testing::Values(StorageCodec::kVerbatim,
                                           StorageCodec::kBbc,
                                           StorageCodec::kWah,
                                           StorageCodec::kRoaring,
                                           StorageCodec::kAuto),
                         [](const ::testing::TestParamInfo<StorageCodec>& i) {
                           return std::string(StorageCodecName(i.param));
                         });

}  // namespace
}  // namespace bix
