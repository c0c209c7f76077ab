#include "util/byte_io.h"

#include <algorithm>

#include "util/crc32c.h"

namespace bix {
namespace {

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

}  // namespace

void AppendWordsLe(const uint64_t* words, size_t n_bytes,
                   std::vector<uint8_t>* out) {
  if constexpr (kLittleEndianHost) {
    const auto* image = reinterpret_cast<const uint8_t*>(words);
    out->insert(out->end(), image, image + n_bytes);
  } else {
    uint8_t image[8];
    for (size_t j = 0; j < n_bytes; j += 8) {
      StoreLe64(image, words[j / 8]);
      out->insert(out->end(), image, image + std::min<size_t>(8, n_bytes - j));
    }
  }
}

void LoadWordsLe(const uint8_t* in, size_t n_bytes, uint64_t* words) {
  const size_t full = n_bytes / 8;
  if (n_bytes % 8 != 0) words[full] = 0;
  if constexpr (kLittleEndianHost) {
    if (n_bytes > 0) std::memcpy(words, in, n_bytes);
  } else {
    for (size_t i = 0; i < full; ++i) words[i] = LoadLe64(in + 8 * i);
    for (size_t j = 8 * full; j < n_bytes; ++j) {
      words[full] |= static_cast<uint64_t>(in[j]) << ((j & 7) * 8);
    }
  }
}

void AppendWords32Le(const uint32_t* words, size_t count,
                     std::vector<uint8_t>* out) {
  if constexpr (kLittleEndianHost) {
    const auto* image = reinterpret_cast<const uint8_t*>(words);
    out->insert(out->end(), image, image + 4 * count);
  } else {
    for (size_t i = 0; i < count; ++i) AppendLe32(out, words[i]);
  }
}

void LoadWords32Le(const uint8_t* in, size_t count, uint32_t* words) {
  if constexpr (kLittleEndianHost) {
    if (count > 0) std::memcpy(words, in, 4 * count);
  } else {
    for (size_t i = 0; i < count; ++i) words[i] = LoadLe32(in + 4 * i);
  }
}

FileWriter::FileWriter(const std::string& path)
    : f_(std::fopen(path.c_str(), "wb")), ok_(f_ != nullptr) {}

FileWriter::~FileWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void FileWriter::Bytes(const void* p, size_t n) {
  if (!ok_ || n == 0) return;
  if (std::fwrite(p, 1, n, f_) != n) {
    ok_ = false;
    return;
  }
  crc_ = Crc32cExtend(crc_, p, n);
}

void FileWriter::Le32(uint32_t v) {
  uint8_t image[4];
  StoreLe32(image, v);
  Bytes(image, 4);
}

void FileWriter::Le64(uint64_t v) {
  uint8_t image[8];
  StoreLe64(image, v);
  Bytes(image, 8);
}

void FileWriter::Le32s(const uint32_t* v, size_t count) {
  if constexpr (kLittleEndianHost) {
    Bytes(v, 4 * count);
  } else {
    for (size_t i = 0; i < count; ++i) Le32(v[i]);
  }
}

void FileWriter::Le64s(const uint64_t* v, size_t count) {
  if constexpr (kLittleEndianHost) {
    Bytes(v, 8 * count);
  } else {
    for (size_t i = 0; i < count; ++i) Le64(v[i]);
  }
}

bool FileWriter::Close() {
  if (f_ == nullptr) return false;
  const bool closed = std::fclose(f_) == 0;
  f_ = nullptr;
  return ok_ && closed;
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::InvalidArgument("cannot open file: " + path);
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::Corruption("read error in file: " + path);
  return bytes;
}

}  // namespace bix
