#include "core/writable_index.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <utility>

#include "core/index_io.h"
#include "util/byte_io.h"
#include "util/crc32c.h"

namespace bix {
namespace {

constexpr char kManifestMagic[4] = {'B', 'I', 'X', 'M'};
constexpr char kStateMagic[4] = {'B', 'I', 'X', 'S'};
constexpr uint32_t kManifestVersion = 1;
constexpr uint32_t kStateVersion = 1;
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kWalName = "wal.log";

std::string IndexFileName(uint64_t seq) {
  return "index-" + std::to_string(seq) + ".bix";
}
std::string StateFileName(uint64_t seq) {
  return "state-" + std::to_string(seq) + ".bix";
}

// Flushes a just-written file's contents to stable storage before the
// rename that makes it reachable.
void FsyncFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return;
  (void)::fsync(fileno(f));
  std::fclose(f);
}

struct SidecarState {
  uint32_t cardinality = 0;
  std::vector<uint32_t> values;
  std::vector<uint64_t> tombstones;
};

Status SaveState(const std::string& path, uint32_t cardinality,
                 const std::vector<uint32_t>& values,
                 const std::vector<uint64_t>& tombstones) {
  FileWriter w(path);
  if (!w.is_open()) {
    return Status::InvalidArgument("cannot open state file for writing: " +
                                   path);
  }
  w.Bytes(kStateMagic, 4);
  w.Le32(kStateVersion);
  w.Le32(cardinality);
  w.Le64(values.size());
  w.Le32s(values.data(), values.size());
  w.Le64(tombstones.size());
  w.Le64s(tombstones.data(), tombstones.size());
  w.Le32(w.crc());
  if (!w.Close()) {
    return Status::Corruption("short write saving index state to " + path);
  }
  return Status::OK();
}

Result<SidecarState> LoadState(const std::string& path) {
  Result<std::vector<uint8_t>> file = ReadFileBytes(path);
  if (!file.ok()) return file.status();
  ByteReader r(file.value());
  const uint8_t* magic = r.Take(4);
  if (magic == nullptr || std::memcmp(magic, kStateMagic, 4) != 0) {
    return Status::Corruption("not a bix state file");
  }
  if (r.Le32() != kStateVersion) {
    return Status::NotSupported("unknown state file version");
  }
  SidecarState state;
  state.cardinality = r.Le32();
  // Both counts are checked against the bytes present before sizing
  // anything: a flipped count byte is Corruption, not a huge allocation.
  const uint64_t rows = r.Le64();
  if (!r.Need(rows, 4)) return Status::Corruption("bad state row count");
  state.values.resize(rows);
  r.Le32s(state.values.data(), rows);
  const uint64_t n_tomb = r.Le64();
  if (n_tomb > rows || !r.Need(n_tomb, 8)) {
    return Status::Corruption("bad tombstone count");
  }
  state.tombstones.resize(n_tomb);
  r.Le64s(state.tombstones.data(), n_tomb);
  const uint32_t computed = Crc32c(file.value().data(), r.offset());
  const uint32_t stored = r.Le32();
  if (!r.ok() || computed != stored) {
    return Status::Corruption("state file checksum mismatch");
  }
  for (uint32_t v : state.values) {
    if (v >= state.cardinality) {
      return Status::Corruption("state value out of domain");
    }
  }
  for (uint64_t rid : state.tombstones) {
    if (rid >= rows) return Status::Corruption("state tombstone out of range");
  }
  return state;
}

struct Manifest {
  uint64_t checkpoint_seq = 0;
  std::string index_file;
  std::string state_file;
};

Status WriteManifest(const std::string& dir, const Manifest& m,
                     FaultInjector* injector) {
  const std::string path = dir + "/" + kManifestName;
  const std::string tmp = path + ".tmp";
  FileWriter w(tmp);
  if (!w.is_open()) {
    return Status::InvalidArgument("cannot open manifest for writing: " + tmp);
  }
  w.Bytes(kManifestMagic, 4);
  w.Le32(kManifestVersion);
  w.Le64(m.checkpoint_seq);
  w.Le32(static_cast<uint32_t>(m.index_file.size()));
  w.Bytes(m.index_file.data(), m.index_file.size());
  w.Le32(static_cast<uint32_t>(m.state_file.size()));
  w.Bytes(m.state_file.data(), m.state_file.size());
  w.Le32(w.crc());
  if (!w.Close()) {
    std::remove(tmp.c_str());
    return Status::Corruption("short write saving manifest to " + tmp);
  }
  FsyncFile(tmp);
  Status s = AtomicRename(tmp, path, injector);
  if (!s.ok()) {
    std::remove(tmp.c_str());
    return s;
  }
  // The rename is the commit point for the process-crash model, but only
  // the directory fsync makes it power-loss durable: until the dirent is on
  // stable storage, a power cut can resurrect the *previous* manifest. On
  // failure the checkpoint is reported not-durable and the caller keeps the
  // WAL, so recovery replays onto whichever manifest the disk retained.
  return FsyncDir(dir, injector);
}

Result<Manifest> ReadManifest(const std::string& dir) {
  Result<std::vector<uint8_t>> file =
      ReadFileBytes(dir + "/" + kManifestName);
  if (!file.ok()) return file.status();
  ByteReader r(file.value());
  const uint8_t* magic = r.Take(4);
  if (magic == nullptr || std::memcmp(magic, kManifestMagic, 4) != 0) {
    return Status::Corruption("not a bix manifest");
  }
  if (r.Le32() != kManifestVersion) {
    return Status::NotSupported("unknown manifest version");
  }
  Manifest m;
  m.checkpoint_seq = r.Le64();
  const uint32_t index_len = r.Le32();
  if (!r.ok() || index_len > 4096) {
    return Status::Corruption("bad manifest filename length");
  }
  m.index_file = r.Chars(index_len);
  const uint32_t state_len = r.Le32();
  if (!r.ok() || state_len > 4096) {
    return Status::Corruption("bad manifest filename length");
  }
  m.state_file = r.Chars(state_len);
  const uint32_t computed = Crc32c(file.value().data(), r.offset());
  const uint32_t stored = r.Le32();
  if (!r.ok() || computed != stored) {
    return Status::Corruption("manifest checksum mismatch");
  }
  return m;
}

// Structural validation of a batch against the logical state it will
// apply to. Used both for caller input (InvalidArgument) and for WAL
// replay, where an intact-but-inconsistent record means the log and the
// checkpoint disagree (Corruption).
Status ValidateBatch(const UpdateBatch& batch, uint64_t total_rows,
                     uint32_t cardinality, bool replay) {
  const auto fail = [replay](const std::string& msg) {
    return replay ? Status::Corruption("WAL replay: " + msg)
                  : Status::InvalidArgument(msg);
  };
  if (!batch.inserts.empty() && batch.first_rid != total_rows) {
    return fail("insert batch must start at the current row count");
  }
  const uint64_t new_total = total_rows + batch.inserts.size();
  for (uint32_t v : batch.inserts) {
    if (v >= cardinality) return fail("insert value out of domain");
  }
  for (const UpdateRecord& u : batch.updates) {
    if (u.rid >= new_total) return fail("update rid out of range");
    if (u.value >= cardinality) return fail("update value out of domain");
  }
  for (uint64_t rid : batch.deletes) {
    if (rid >= new_total) return fail("delete rid out of range");
  }
  return Status::OK();
}

}  // namespace

Status WritableBitmapIndex::PrepareBatch(UpdateBatch* batch) const {
  batch->seq = next_seq_;
  batch->first_rid = values_.size();
  Status s = ValidateBatch(*batch, values_.size(), cardinality_,
                           /*replay=*/false);
  if (!s.ok()) return s;
  batch->SortByRid();
  // Stamp each update with the row's value in the *base column* view the
  // overlay keeps (values_ holds current logical values; for a row's
  // first override this is exactly its base-index value, and re-updates
  // keep their original base_value inside DeltaSnapshot).
  for (UpdateRecord& u : batch->updates) {
    u.old_value = u.rid < values_.size()
                      ? values_[u.rid]
                      : batch->inserts[u.rid - batch->first_rid];
  }
  return Status::OK();
}

void WritableBitmapIndex::ApplyPrepared(const UpdateBatch& batch) {
  values_.insert(values_.end(), batch.inserts.begin(), batch.inserts.end());
  for (const UpdateRecord& u : batch.updates) values_[u.rid] = u.value;
  std::shared_ptr<const DeltaSnapshot> next = delta_->Apply(batch);
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    delta_ = std::move(next);
  }
  applied_seq_ = batch.seq;
  pending_ops_.fetch_add(batch.ops());
}

Result<std::unique_ptr<WritableBitmapIndex>> WritableBitmapIndex::Create(
    const std::string& dir, const Column& column, const IndexConfig& config,
    WritableIndexOptions options) {
  {
    std::FILE* existing =
        std::fopen((dir + "/" + kManifestName).c_str(), "rb");
    if (existing != nullptr) {
      std::fclose(existing);
      return Status::InvalidArgument(dir + " already holds a writable index");
    }
  }
  Result<BitmapIndex> built = BuildIndex(column, config);
  if (!built.ok()) return built.status();

  auto index = std::unique_ptr<WritableBitmapIndex>(new WritableBitmapIndex());
  index->dir_ = dir;
  index->options_ = options;
  index->cardinality_ = column.cardinality;
  index->values_ = column.values;
  Status s = index->WriteCheckpoint(built.value(), index->values_, {},
                                    /*seq=*/0, /*trace=*/nullptr);
  if (!s.ok()) return s;
  index->index_file_ = IndexFileName(0);
  index->state_file_ = StateFileName(0);
  Result<WalWriter> wal = WalWriter::Open(
      dir + "/" + kWalName, {options.sync_wal, options.injector});
  if (!wal.ok()) return wal.status();
  index->wal_ = std::move(wal.value());
  index->base_ =
      std::make_shared<const BitmapIndex>(std::move(built.value()));
  index->delta_ = DeltaSnapshot::Base(index->values_.size());
  return index;
}

Result<std::unique_ptr<WritableBitmapIndex>> WritableBitmapIndex::Open(
    const std::string& dir, WritableIndexOptions options) {
  Result<Manifest> manifest = ReadManifest(dir);
  if (!manifest.ok()) return manifest.status();
  Result<BitmapIndex> loaded = LoadIndex(dir + "/" + manifest.value().index_file);
  if (!loaded.ok()) return loaded.status();
  Result<SidecarState> state = LoadState(dir + "/" + manifest.value().state_file);
  if (!state.ok()) return state.status();
  if (state.value().values.size() != loaded.value().row_count() ||
      state.value().cardinality !=
          loaded.value().decomposition().cardinality()) {
    return Status::Corruption("state file disagrees with checkpoint index");
  }

  const std::string wal_path = dir + "/" + kWalName;
  Result<WalReadResult> wal_read = ReadWal(wal_path);
  if (!wal_read.ok()) return wal_read.status();
  if (wal_read.value().truncated_tail_records > 0) {
    // Trim the torn tail so the writer resumes on a record boundary.
    if (::truncate(wal_path.c_str(),
                   static_cast<off_t>(wal_read.value().valid_bytes)) != 0) {
      return Status::Unavailable("cannot trim torn WAL tail: " + wal_path);
    }
  }

  auto index = std::unique_ptr<WritableBitmapIndex>(new WritableBitmapIndex());
  index->dir_ = dir;
  index->options_ = options;
  index->cardinality_ = state.value().cardinality;
  index->values_ = std::move(state.value().values);
  index->index_file_ = manifest.value().index_file;
  index->state_file_ = manifest.value().state_file;
  index->checkpoint_seq_ = manifest.value().checkpoint_seq;
  index->applied_seq_ = manifest.value().checkpoint_seq;
  index->base_ =
      std::make_shared<const BitmapIndex>(std::move(loaded.value()));
  index->delta_ = DeltaSnapshot::Base(index->values_.size(),
                                      state.value().tombstones);
  index->recovery_.checkpoint_seq = manifest.value().checkpoint_seq;
  index->recovery_.truncated_tail_records =
      wal_read.value().truncated_tail_records;

  uint64_t last_seq = manifest.value().checkpoint_seq;
  for (const UpdateBatch& batch : wal_read.value().batches) {
    if (batch.seq <= manifest.value().checkpoint_seq) continue;  // pre-ckpt
    if (batch.seq <= last_seq) {
      return Status::Corruption("WAL replay: non-monotonic sequence numbers");
    }
    Status s = ValidateBatch(batch, index->values_.size(),
                             index->cardinality_, /*replay=*/true);
    if (!s.ok()) return s;
    index->ApplyPrepared(batch);
    last_seq = batch.seq;
    ++index->recovery_.recovered_batches;
  }
  index->next_seq_ = last_seq + 1;

  Result<WalWriter> wal =
      WalWriter::Open(wal_path, {options.sync_wal, options.injector});
  if (!wal.ok()) return wal.status();
  index->wal_ = std::move(wal.value());
  return index;
}

Status WritableBitmapIndex::ApplyBatch(UpdateBatch batch, TraceSink* trace) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (batch.ops() == 0) return Status::OK();
  Status s = PrepareBatch(&batch);
  if (!s.ok()) return s;
  // Durability first: the batch must be on disk before any reader can
  // observe it, or a crash could un-happen an acknowledged write.
  s = wal_.Append(batch, trace);
  if (!s.ok()) return s;
  wal_appends_.fetch_add(1);
  wal_bytes_.store(wal_.bytes_appended());
  ApplyPrepared(batch);
  ++next_seq_;
  return Status::OK();
}

IndexSnapshot WritableBitmapIndex::Snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  IndexSnapshot snap;
  snap.base = base_;
  snap.delta = delta_;
  snap.base_epoch = epoch_.load();
  return snap;
}

uint64_t WritableBitmapIndex::PendingDeltaOps() const {
  return pending_ops_.load();
}

Status WritableBitmapIndex::WriteCheckpoint(
    const BitmapIndex& index, const std::vector<uint32_t>& values,
    const std::vector<uint64_t>& tombstones, uint64_t seq, TraceSink* trace) {
  TraceScope scope(trace, "checkpoint");
  if (trace != nullptr) trace->Tag("seq", seq);
  const std::string index_path = dir_ + "/" + IndexFileName(seq);
  const std::string state_path = dir_ + "/" + StateFileName(seq);
  // Temp-file + atomic-rename for both payload files, then the manifest
  // rename as the single commit point.
  Status s = SaveIndex(index, index_path + ".tmp");
  if (!s.ok()) return s;
  FsyncFile(index_path + ".tmp");
  s = AtomicRename(index_path + ".tmp", index_path, options_.injector);
  if (!s.ok()) {
    std::remove((index_path + ".tmp").c_str());
    return s;
  }
  s = SaveState(state_path + ".tmp", cardinality_, values, tombstones);
  if (!s.ok()) return s;
  FsyncFile(state_path + ".tmp");
  s = AtomicRename(state_path + ".tmp", state_path, options_.injector);
  if (!s.ok()) {
    std::remove((state_path + ".tmp").c_str());
    return s;
  }
  // Make the payload dirents durable *before* the manifest commit: a
  // durable manifest must never point at index/state files whose directory
  // entries could still be lost. Uninjected — the injectable commit-point
  // sync is the one inside WriteManifest.
  s = FsyncDir(dir_, nullptr);
  if (!s.ok()) return s;
  Manifest m;
  m.checkpoint_seq = seq;
  m.index_file = IndexFileName(seq);
  m.state_file = StateFileName(seq);
  return WriteManifest(dir_, m, options_.injector);
}

Status WritableBitmapIndex::Compact(TraceSink* trace) {
  std::lock_guard<std::mutex> lock(write_mu_);
  TraceScope scope(trace, "compact");
  if (applied_seq_ == checkpoint_seq_) {
    // Nothing new since the last checkpoint; at most retry a WAL truncate
    // that previously failed after a successful commit.
    if (wal_.size_bytes() > 0) return wal_.Truncate();
    return Status::OK();
  }
  Result<FoldedIndex> fold = [&] {
    TraceScope fold_scope(trace, "fold");
    if (trace != nullptr) trace->Tag("delta_ops", delta_->ops());
    Result<FoldedIndex> folded = FoldDelta(*base_, *delta_);
    if (folded.status().code() != Status::Code::kCorruption) return folded;
    // A base bitmap rotted in memory. base_ is the index the current
    // checkpoint file holds, and that file's record checksums vouch for
    // it: fold again from the file.
    Result<BitmapIndex> clean = LoadIndex(dir_ + "/" + index_file_);
    if (!clean.ok()) return folded;
    return FoldDelta(clean.value(), *delta_);
  }();
  // A base that also fails from the checkpoint stops the fold before
  // anything is written: the checkpoint stays the last clean one on disk.
  if (!fold.ok()) return fold.status();
  FoldedIndex& folded = fold.value();
  const uint64_t seq = applied_seq_;
  Status s = WriteCheckpoint(folded.index, values_, folded.tombstones, seq,
                             trace);
  if (!s.ok()) return s;
  // The manifest rename committed. A WAL truncate failure past this point
  // loses nothing: replay skips records at or below checkpoint_seq.
  {
    TraceScope trunc_scope(trace, "wal_truncate");
    if (wal_.Truncate().ok()) {
      // Truncation itself lives in the inode (the WAL file's own fsync
      // covers it); the directory sync is the belt-and-braces flush for
      // the checkpoint file churn that preceded it — best-effort, since
      // the commit-point sync already succeeded inside WriteCheckpoint.
      (void)FsyncDir(dir_, nullptr);
    }
  }
  const std::string old_index = index_file_;
  const std::string old_state = state_file_;
  index_file_ = IndexFileName(seq);
  state_file_ = StateFileName(seq);
  auto new_base =
      std::make_shared<const BitmapIndex>(std::move(folded.index));
  auto new_delta =
      DeltaSnapshot::Base(new_base->row_count(), folded.tombstones);
  {
    std::lock_guard<std::mutex> snap_lock(snap_mu_);
    base_ = std::move(new_base);
    delta_ = std::move(new_delta);
    epoch_.fetch_add(1);
  }
  checkpoint_seq_ = seq;
  pending_ops_.store(0);
  compactions_.fetch_add(1);
  if (old_index != index_file_) {
    std::remove((dir_ + "/" + old_index).c_str());
    std::remove((dir_ + "/" + old_state).c_str());
  }
  return Status::OK();
}

DurabilityStats WritableBitmapIndex::durability() const {
  DurabilityStats stats;
  stats.wal_appends = wal_appends_.load();
  stats.wal_bytes = wal_bytes_.load();
  stats.recovered_batches = recovery_.recovered_batches;
  stats.truncated_tail_records = recovery_.truncated_tail_records;
  stats.compactions = compactions_.load();
  stats.delta_rows = PendingDeltaOps();
  return stats;
}

std::vector<uint32_t> WritableBitmapIndex::LogicalValues() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return values_;
}

Bitvector WritableBitmapIndex::LiveMask() const {
  IndexSnapshot snap = Snapshot();
  Bitvector live = Bitvector::AllOnes(snap.delta->total_rows());
  live.AndNotWith(snap.delta->dead());
  return live;
}

}  // namespace bix
