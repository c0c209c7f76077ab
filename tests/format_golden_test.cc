// Byte-exact goldens for every stored and wire format: index files (v1-v4),
// the writable index's state sidecar and MANIFEST, WAL records, wire
// frames, WAH word images and Roaring blobs. Each fixed input is
// serialized and the output's length and 64-bit FNV-1a hash compared with
// constants captured from the reference encoders. A round trip cannot
// catch a layout change made the same way in the writer and the reader;
// these can. A deliberate format change updates the constants here and
// bumps the format's version.
//
// The fingerprint is deliberately not CRC32C: a CRC over bytes that end in
// their own CRC is a fixed residue, so every checksummed region (index
// header and records, sidecar, MANIFEST) could change without moving a
// whole-file CRC.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/roaring.h"
#include "core/index_io.h"
#include "core/writable_index.h"
#include "net/frame.h"
#include "storage/wal.h"

namespace bix {
namespace {

namespace fs = std::filesystem;

struct Golden {
  uint64_t size;
  uint64_t fnv;
};

uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (uint8_t b : bytes) h = (h ^ b) * 0x100000001B3ull;
  return h;
}

void ExpectGolden(const std::vector<uint8_t>& bytes, Golden want,
                  const std::string& what) {
  const uint64_t fnv = Fnv1a64(bytes);
  std::ostringstream actual;
  actual << "{" << bytes.size() << ", 0x" << std::hex << std::setw(16)
         << std::setfill('0') << fnv << "ull}";
  EXPECT_EQ(bytes.size(), want.size) << what << " is " << actual.str();
  EXPECT_EQ(fnv, want.fnv) << what << " is " << actual.str();
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

std::string FreshDir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

// A fixed pseudo-random column from a 64-bit LCG, so the inputs depend on
// no library distribution.
Column LcgColumn(uint64_t rows, uint32_t cardinality, uint64_t seed) {
  Column col;
  col.cardinality = cardinality;
  uint64_t x = seed;
  for (uint64_t i = 0; i < rows; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    col.values.push_back(static_cast<uint32_t>((x >> 33) % cardinality));
  }
  return col;
}

// Index files list their records in the store's hash-map iteration order,
// so the index constants also pin BitmapKeyHash and the standard library's
// unordered_map (they were captured with libstdc++).
std::vector<uint8_t> SavedIndex(const BitmapIndex& index, uint32_t version) {
  const std::string path = ::testing::TempDir() + "/golden_index.bix";
  EXPECT_TRUE(SaveIndexAtVersion(index, path, version).ok()) << version;
  std::vector<uint8_t> bytes = FileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(FormatGolden, IndexFilesV1ToV3FromBbcIndex) {
  const BitmapIndex index =
      BitmapIndex::Build(LcgColumn(500, 10, 1),
                         Decomposition::Make(10, {5, 2}).value(),
                         EncodingKind::kRange, StorageCodec::kBbc);
  ExpectGolden(SavedIndex(index, 1), {516, 0xac74d0a83e4dc9cbull}, "index v1");
  ExpectGolden(SavedIndex(index, 2), {540, 0x6d8cd31980306a4aull}, "index v2");
  ExpectGolden(SavedIndex(index, 3), {540, 0x736fb28898bd5ec1ull}, "index v3");
}

TEST(FormatGolden, IndexFileV4FromReorderedAutoIndex) {
  // Gray-reordered equality bitmaps over 400 values: the high component's
  // slots come out as long runs (Roaring), the low component's as short
  // runs at density 1/20 (verbatim).
  IndexConfig config;
  config.encoding = EncodingKind::kEquality;
  config.bases_msb_first = {20, 20};
  config.codec = StorageCodec::kAuto;
  config.reorder = ReorderStrategy::kGrayCode;
  Result<BitmapIndex> index = BuildIndex(LcgColumn(3000, 400, 2), config);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(index.value().reordered());
  bool roaring = false, verbatim = false;
  index.value().store().ForEachBlob(
      [&](const BitmapKey&, const BitmapStore::Blob& blob) {
        roaring |= blob.codec == CodecId::kRoaring;
        verbatim |= blob.codec == CodecId::kVerbatim;
      });
  ASSERT_TRUE(roaring && verbatim);
  ExpectGolden(SavedIndex(index.value(), 4), {21134, 0xe1d7651bb327daf5ull}, "index v4");
}

TEST(FormatGolden, WritableIndexCheckpointFiles) {
  const std::string dir = FreshDir("golden_writable");
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  auto index = WritableBitmapIndex::Create(dir, LcgColumn(120, 5, 3), config,
                                           {.sync_wal = false});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  UpdateBatch batch;
  batch.inserts = {4, 0, 2};
  batch.updates = {{5, 0, 3}, {121, 0, 1}};
  batch.deletes = {7, 64};
  ASSERT_TRUE(index.value()->ApplyBatch(batch).ok());
  ASSERT_TRUE(index.value()->Compact(nullptr).ok());
  ExpectGolden(FileBytes(dir + "/state-1.bix"), {540, 0xc7cd4a47034df7bfull}, "state sidecar");
  ExpectGolden(FileBytes(dir + "/MANIFEST"), {50, 0x42e56ac3d0f9bad7ull}, "MANIFEST");
  ExpectGolden(FileBytes(dir + "/index-1.bix"), {185, 0xeb9274ba6e372d60ull},
               "checkpoint index");
}

TEST(FormatGolden, WalRecord) {
  UpdateBatch batch;
  batch.seq = 0x0102030405060708ull;
  batch.first_rid = 1000;
  batch.inserts = {3, 1, 0xFFFFFFFFu};
  batch.updates = {{42, 7, 9}, {1ull << 40, 2, 5}};
  batch.deletes = {55, 12, ~uint64_t{0}};
  ExpectGolden(EncodeWalRecord(batch), {104, 0xcf58b80948483c9full}, "WAL record");
  ExpectGolden(EncodeWalRecord(UpdateBatch{}), {36, 0xb8d4695aadbda239ull},
               "empty WAL record");
}

TEST(FormatGolden, WireFrames) {
  NetRequest req;
  req.request_id = 0xA1B2C3D4u;
  req.count_only = true;
  req.traced = true;
  req.lo = 4;
  req.hi = 0x80000017u;
  req.deadline_micros = 0x0000123456789ABCull;
  req.values = {1, 5, 9, 0xFFFFFFF0u};
  req.inserts = {3, 1};
  req.updates = {{10, 7}, {1ull << 35, 0xFFFFFFFFu}};
  req.deletes = {5, 6, ~uint64_t{0} - 1};
  const std::pair<FrameType, Golden> requests[] = {
      {FrameType::kPing, {16, 0x58e95bf0e770a4b1ull}},
      {FrameType::kInterval, {32, 0xb7027e2796d8feb4ull}},
      {FrameType::kMembership, {44, 0x09df716025a27007ull}},
      {FrameType::kWriteBatch, {84, 0x10df6cb5829c6388ull}},
      {FrameType::kResponse, {16, 0x054dca495ae13931ull}},
  };
  for (const auto& [type, golden] : requests) {
    req.type = type;
    ExpectGolden(EncodeRequest(req), golden,
                 "request type " + std::to_string(static_cast<int>(type)));
  }

  NetResponse resp;
  resp.request_id = 77;
  resp.code = Status::Code::kCorruption;
  resp.message = "bitmap c1/s2 failed its checksum";
  resp.count = 3;
  resp.row_bits = 130;
  resp.words = {0x8000000000000001ull, 0x0123456789ABCDEFull, 0x3};
  resp.trace = "query 1.2ms\n  read c1/s2 0.4ms\n";
  ExpectGolden(EncodeResponse(resp), {130, 0xed0362676c49ec79ull}, "response");
}

// 3 chunks: sparse (array), dense noise (bitset), long runs (run).
Bitvector ThreeContainerBitmap() {
  constexpr uint64_t kChunk = RoaringBitmap::kChunkBits;
  Bitvector bv(3 * kChunk - 1000);
  for (uint64_t i = 0; i < kChunk; i += 97) bv.Set(i);
  uint64_t x = 4;
  for (uint64_t i = kChunk; i < 2 * kChunk; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    if ((x >> 62) == 0) bv.Set(i);
  }
  for (uint64_t i = 2 * kChunk; i < bv.size(); ++i) {
    if ((i / 5000) % 2 == 0) bv.Set(i);
  }
  return bv;
}

TEST(FormatGolden, CodecPayloads) {
  const Bitvector bv = ThreeContainerBitmap();
  const RoaringBitmap rb = RoaringBitmap::FromBitvector(bv);
  ASSERT_EQ(rb.container_count(), 3u);
  EXPECT_EQ(rb.containers()[0].type, RoaringBitmap::ContainerType::kArray);
  EXPECT_EQ(rb.containers()[1].type, RoaringBitmap::ContainerType::kBitset);
  EXPECT_EQ(rb.containers()[2].type, RoaringBitmap::ContainerType::kRun);
  ExpectGolden(rb.Serialize(), {9607, 0x4e9fca46b490f40cull}, "roaring");
  ExpectGolden(GetCodec(CodecId::kWah).Encode(bv), {13972, 0x026627a2a30bf317ull}, "WAH");
}

}  // namespace
}  // namespace bix
