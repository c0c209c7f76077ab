#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/byte_io.h"
#include "util/crc32c.h"

namespace bix {
namespace {

// Frame header: len u32 | crc u32.
constexpr uint64_t kFrameHeaderBytes = 8;
// Fixed payload prefix: seq u64 | first_rid u64 | three u32 counts.
constexpr uint64_t kPayloadFixedBytes = 28;

// Repairs the log back to `size` after a failed or torn append, so the
// writer's view stays record-aligned. Best effort: a failure here leaves a
// torn tail that the next recovery pass trims the same way.
void TruncateTo(std::FILE* f, uint64_t size) {
  std::fflush(f);
  (void)::ftruncate(fileno(f), static_cast<off_t>(size));
}

}  // namespace

void UpdateBatch::SortByRid() {
  // Stable: two updates to the same rid in one batch keep their order, so
  // the later one wins exactly as it would have unsorted.
  std::stable_sort(updates.begin(), updates.end(),
                   [](const UpdateRecord& a, const UpdateRecord& b) {
                     return a.rid < b.rid;
                   });
  std::sort(deletes.begin(), deletes.end());
}

std::vector<uint8_t> EncodeWalRecord(const UpdateBatch& batch) {
  const uint64_t payload_len =
      kPayloadFixedBytes + 4 * batch.inserts.size() +
      16 * batch.updates.size() + 8 * batch.deletes.size();
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload_len);
  frame.resize(kFrameHeaderBytes);  // len | crc, stamped below
  AppendLe64(&frame, batch.seq);
  AppendLe64(&frame, batch.first_rid);
  AppendLe32(&frame, static_cast<uint32_t>(batch.inserts.size()));
  AppendLe32(&frame, static_cast<uint32_t>(batch.updates.size()));
  AppendLe32(&frame, static_cast<uint32_t>(batch.deletes.size()));
  AppendWords32Le(batch.inserts.data(), batch.inserts.size(), &frame);
  for (const UpdateRecord& u : batch.updates) {
    AppendLe64(&frame, u.rid);
    AppendLe32(&frame, u.old_value);
    AppendLe32(&frame, u.value);
  }
  AppendWordsLe(batch.deletes.data(), 8 * batch.deletes.size(), &frame);
  StoreLe32(frame.data(), static_cast<uint32_t>(payload_len));
  StoreLe32(frame.data() + 4,
            Crc32c(frame.data() + kFrameHeaderBytes, payload_len));
  return frame;
}

Result<WalWriter> WalWriter::Open(const std::string& path, Options options) {
  // "ab" keeps every write at the end of the file (O_APPEND), including
  // after an ftruncate repair.
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open WAL for append: " + path);
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::InvalidArgument("cannot seek WAL: " + path);
  }
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    return Status::InvalidArgument("cannot size WAL: " + path);
  }
  WalWriter w;
  w.f_ = f;
  w.path_ = path;
  w.options_ = options;
  w.size_bytes_ = static_cast<uint64_t>(end);
  return w;
}

WalWriter::~WalWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this == &other) return *this;
  if (f_ != nullptr) std::fclose(f_);
  f_ = other.f_;
  other.f_ = nullptr;
  path_ = std::move(other.path_);
  options_ = other.options_;
  size_bytes_ = other.size_bytes_;
  appends_ = other.appends_;
  bytes_appended_ = other.bytes_appended_;
  append_attempts_ = other.append_attempts_;
  return *this;
}

Status WalWriter::Append(const UpdateBatch& batch, TraceSink* trace) {
  if (f_ == nullptr) return Status::InvalidArgument("WAL writer not open");
  TraceScope scope(trace, "wal_append");
  if (trace != nullptr) {
    trace->Tag("seq", batch.seq);
    trace->Tag("ops", batch.ops());
  }
  const std::vector<uint8_t> frame = EncodeWalRecord(batch);
  const uint64_t attempt = append_attempts_++;
  FaultInjector* inj = options_.injector;
  if (inj != nullptr &&
      inj->OnWrite(FaultInjector::WriteOp::kWalAppend) ==
          FaultInjector::WriteFault::kShortWrite) {
    // Model a torn append: persist only a prefix, then repair and report a
    // retryable failure (the process survived; only the bytes were torn).
    const uint64_t n = inj->ShortWriteLength(frame.size(), attempt);
    (void)std::fwrite(frame.data(), 1, n, f_);
    TruncateTo(f_, size_bytes_);
    return Status::Unavailable("injected short write on WAL append");
  }
  if (std::fwrite(frame.data(), 1, frame.size(), f_) != frame.size()) {
    TruncateTo(f_, size_bytes_);
    return Status::Unavailable("short write appending WAL record");
  }
  if (std::fflush(f_) != 0) {
    TruncateTo(f_, size_bytes_);
    return Status::Unavailable("flush failed appending WAL record");
  }
  if (options_.sync) {
    if (inj != nullptr &&
        inj->OnWrite(FaultInjector::WriteOp::kWalFlush) ==
            FaultInjector::WriteFault::kFailFlush) {
      TruncateTo(f_, size_bytes_);
      return Status::Unavailable("injected fsync failure on WAL append");
    }
    if (::fsync(fileno(f_)) != 0) {
      TruncateTo(f_, size_bytes_);
      return Status::Unavailable("fsync failed appending WAL record");
    }
  }
  size_bytes_ += frame.size();
  bytes_appended_ += frame.size();
  ++appends_;
  if (trace != nullptr) trace->Tag("bytes", frame.size());
  return Status::OK();
}

Status WalWriter::Truncate() {
  if (f_ == nullptr) return Status::InvalidArgument("WAL writer not open");
  if (options_.injector != nullptr &&
      options_.injector->OnWrite(FaultInjector::WriteOp::kWalTruncate) ==
          FaultInjector::WriteFault::kFailRename) {
    return Status::Unavailable("injected WAL truncate failure");
  }
  std::fflush(f_);
  if (::ftruncate(fileno(f_), 0) != 0) {
    return Status::Unavailable("cannot truncate WAL: " + path_);
  }
  if (options_.sync) (void)::fsync(fileno(f_));
  size_bytes_ = 0;
  return Status::OK();
}

Result<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult result;
  Result<std::vector<uint8_t>> file = ReadFileBytes(path);
  if (!file.ok()) {
    // A file that cannot be opened (a missing one) is an empty log; a read
    // that fails midway is not.
    if (file.status().code() == Status::Code::kInvalidArgument) return result;
    return file.status();
  }
  ByteReader r(file.value());
  while (r.remaining() > 0) {
    if (r.remaining() < kFrameHeaderBytes) {
      // A few stray bytes at EOF: the crash landed inside a frame header.
      result.truncated_tail_records = 1;
      break;
    }
    const uint32_t len = r.Le32();
    const uint32_t crc = r.Le32();
    const uint8_t* payload = r.Take(len);
    if (payload == nullptr) {
      // The final record's payload is incomplete — a torn append.
      result.truncated_tail_records = 1;
      break;
    }
    if (Crc32c(payload, len) != crc) {
      // The record is fully present yet its bytes are wrong: that is
      // mid-log corruption (a torn append only ever shortens the file).
      return Status::Corruption("WAL record checksum mismatch");
    }
    if (len < kPayloadFixedBytes) {
      return Status::Corruption("WAL record too short for its header");
    }
    ByteReader p(payload, len);
    UpdateBatch batch;
    batch.seq = p.Le64();
    batch.first_rid = p.Le64();
    const uint64_t n_ins = p.Le32();
    const uint64_t n_upd = p.Le32();
    const uint64_t n_del = p.Le32();
    if (kPayloadFixedBytes + 4 * n_ins + 16 * n_upd + 8 * n_del != len) {
      return Status::Corruption("WAL record counts disagree with length");
    }
    batch.inserts.resize(n_ins);
    p.Le32s(batch.inserts.data(), n_ins);
    batch.updates.resize(n_upd);
    for (UpdateRecord& u : batch.updates) {
      u.rid = p.Le64();
      u.old_value = p.Le32();
      u.value = p.Le32();
    }
    batch.deletes.resize(n_del);
    p.Le64s(batch.deletes.data(), n_del);
    result.batches.push_back(std::move(batch));
    result.valid_bytes = r.offset();
  }
  return result;
}

Status AtomicRename(const std::string& from, const std::string& to,
                    FaultInjector* injector) {
  if (injector != nullptr &&
      injector->OnWrite(FaultInjector::WriteOp::kRename) ==
          FaultInjector::WriteFault::kFailRename) {
    return Status::Unavailable("injected rename failure: " + to);
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::Unavailable("rename failed: " + from + " -> " + to);
  }
  return Status::OK();
}

Status FsyncDir(const std::string& dir, FaultInjector* injector) {
  if (injector != nullptr &&
      injector->OnWrite(FaultInjector::WriteOp::kDirFsync) ==
          FaultInjector::WriteFault::kFailFlush) {
    return Status::Unavailable("injected directory fsync failure: " + dir);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Unavailable("cannot open directory: " + dir);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::Unavailable("directory fsync failed: " + dir);
  return Status::OK();
}

}  // namespace bix
