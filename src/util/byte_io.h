#ifndef BIX_UTIL_BYTE_IO_H_
#define BIX_UTIL_BYTE_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace bix {

// The one definition of how integers and word arrays are laid out in
// stored and wire bytes — index files, checkpoint sidecars, MANIFEST, WAL
// records, wire frames, Roaring blobs and WAH word images (DESIGN.md
// section 10). Every integer is little-endian and an array is its
// elements' images back to back, so on little-endian hosts an array image
// is a memcpy (or an fwrite) of the array itself and elsewhere a byte swap
// per element. Parsers of untrusted bytes read through ByteReader.

namespace byte_io_internal {

// Host order <-> little-endian; a byte swap is its own inverse.
template <typename T>
T SwapLe(T v) {
  if constexpr (std::endian::native == std::endian::little) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

template <typename T>
void Store(uint8_t* p, T v) {
  v = SwapLe(v);
  std::memcpy(p, &v, sizeof(v));
}

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return SwapLe(v);
}

template <typename T>
void Append(std::vector<uint8_t>* out, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

}  // namespace byte_io_internal

inline void StoreLe16(uint8_t* p, uint16_t v) { byte_io_internal::Store(p, v); }
inline void StoreLe32(uint8_t* p, uint32_t v) { byte_io_internal::Store(p, v); }
inline void StoreLe64(uint8_t* p, uint64_t v) { byte_io_internal::Store(p, v); }

inline uint16_t LoadLe16(const uint8_t* p) {
  return byte_io_internal::Load<uint16_t>(p);
}
inline uint32_t LoadLe32(const uint8_t* p) {
  return byte_io_internal::Load<uint32_t>(p);
}
inline uint64_t LoadLe64(const uint8_t* p) {
  return byte_io_internal::Load<uint64_t>(p);
}

inline void AppendLe16(std::vector<uint8_t>* out, uint16_t v) {
  byte_io_internal::Append(out, v);
}
inline void AppendLe32(std::vector<uint8_t>* out, uint32_t v) {
  byte_io_internal::Append(out, v);
}
inline void AppendLe64(std::vector<uint8_t>* out, uint64_t v) {
  byte_io_internal::Append(out, v);
}

// The image of a 64-bit word array — the layout every serialized bitmap
// uses (verbatim blobs, Roaring bitsets, the result words of a wire
// response). AppendWordsLe appends the first `n_bytes` bytes of the image
// of `words` (which holds at least CeilDiv(n_bytes, 8) words) to `out` in
// one pass: the bytes are written once, never zero-filled first.
void AppendWordsLe(const uint64_t* words, size_t n_bytes,
                   std::vector<uint8_t>* out);
// LoadWordsLe overwrites words[0, CeilDiv(n_bytes, 8)) with the image in
// `in`; a partial last word gets zero high bytes.
void LoadWordsLe(const uint8_t* in, size_t n_bytes, uint64_t* words);

// The image of `count` 32-bit words (WAH streams, row orders, state
// values, wire value lists).
void AppendWords32Le(const uint32_t* words, size_t count,
                     std::vector<uint8_t>* out);
void LoadWords32Le(const uint8_t* in, size_t count, uint32_t* words);

// A bounded cursor over untrusted bytes. Every read checks the remaining
// length first. The first read that does not fit fails the reader, and the
// failure is sticky: that read and every later one consume nothing and
// return 0 (or copy nothing), so a decoder may read a fixed section and
// test ok() once. Before a decoder sizes any container from a count it has
// read, it calls Need(count, elem_bytes), so what it allocates is bounded
// by the bytes actually present.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : begin_(data), p_(data), end_(data + size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  // Bytes consumed so far: where the next read starts.
  size_t offset() const { return static_cast<size_t>(p_ - begin_); }

  // True when `count` elements of `elem_bytes` (> 0) bytes each fit in the
  // remaining bytes; fails the reader otherwise. Overflow-safe.
  bool Need(uint64_t count, size_t elem_bytes) {
    if (ok_ && count <= remaining() / elem_bytes) return true;
    ok_ = false;
    return false;
  }

  // Consumes `n` bytes and returns where they start, or nullptr.
  const uint8_t* Take(size_t n) {
    if (!Need(n, 1)) return nullptr;
    const uint8_t* p = p_;
    p_ += n;
    return p;
  }

  uint8_t U8() {
    const uint8_t* p = Take(1);
    return p != nullptr ? *p : 0;
  }
  uint16_t Le16() {
    const uint8_t* p = Take(2);
    return p != nullptr ? LoadLe16(p) : 0;
  }
  uint32_t Le32() {
    const uint8_t* p = Take(4);
    return p != nullptr ? LoadLe32(p) : 0;
  }
  uint64_t Le64() {
    const uint8_t* p = Take(8);
    return p != nullptr ? LoadLe64(p) : 0;
  }
  // `n` bytes as a string; empty when they are not all there.
  std::string Chars(size_t n) {
    const uint8_t* p = Take(n);
    return p != nullptr ? std::string(reinterpret_cast<const char*>(p), n)
                        : std::string();
  }
  // Word-array images into caller storage of `count` elements, which a
  // failed read leaves untouched.
  void Le32s(uint32_t* out, size_t count) {
    if (Need(count, 4)) LoadWords32Le(Take(4 * count), count, out);
  }
  void Le64s(uint64_t* out, size_t count) {
    if (Need(count, 8)) LoadWordsLe(Take(8 * count), 8 * count, out);
  }

 private:
  const uint8_t* begin_;
  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// Streams a file, keeping a running CRC32C over the bytes written since
// the last ResetCrc(), so a checksum field costs no extra buffering: reset
// at a region's start, write the region, then write crc(). Arrays go out
// as one image straight from the caller's storage.
class FileWriter {
 public:
  // Opens `path` for writing, truncating it; is_open() reports whether
  // that worked.
  explicit FileWriter(const std::string& path);
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  bool is_open() const { return f_ != nullptr; }

  void Bytes(const void* p, size_t n);
  void U8(uint8_t v) { Bytes(&v, 1); }
  void Le32(uint32_t v);
  void Le64(uint64_t v);
  void Le32s(const uint32_t* v, size_t count);
  void Le64s(const uint64_t* v, size_t count);

  void ResetCrc() { crc_ = 0; }
  uint32_t crc() const { return crc_; }

  // Closes the file: true when it opened and every write and the close
  // succeeded.
  bool Close();

 private:
  std::FILE* f_;
  bool ok_;
  uint32_t crc_ = 0;
};

// The whole file. InvalidArgument when it cannot be opened (a missing file
// included), Corruption when a read fails.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace bix

#endif  // BIX_UTIL_BYTE_IO_H_
