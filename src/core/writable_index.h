#ifndef BIX_CORE_WRITABLE_INDEX_H_
#define BIX_CORE_WRITABLE_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "index/delta_store.h"
#include "storage/wal.h"
#include "util/status.h"
#include "util/trace.h"

namespace bix {

struct WritableIndexOptions {
  // fsync the WAL on every append. Off only for benches that accept
  // losing the unflushed tail on a crash.
  bool sync_wal = true;
  // Injects write-side faults (short writes, failed fsync, failed rename)
  // into the whole durability path. Optional; must outlive the index.
  FaultInjector* injector = nullptr;
};

// What Open() found while recovering.
struct RecoveryInfo {
  uint64_t checkpoint_seq = 0;       // manifest's durable sequence number
  uint64_t recovered_batches = 0;    // WAL batches replayed (seq > checkpoint)
  uint64_t truncated_tail_records = 0;  // torn tail trimmed from the WAL
};

// A crash-safe writable bitmap index over one directory (DESIGN.md
// section 15):
//
//   MANIFEST         current checkpoint: seq + index/state filenames + CRC
//   index-<seq>.bix  checkpointed BitmapIndex (index file format v4)
//   state-<seq>.bix  sidecar: logical column values + tombstones + CRC
//   wal.log          CRC32C-framed UpdateBatches since the checkpoint
//
// Every mutation is WAL-appended (and fsynced) before it touches the
// in-memory overlay, so ApplyBatch returning OK means the batch survives
// a crash. Checkpoints (Compact) are committed by atomically renaming a
// fresh MANIFEST over the old one; the WAL is truncated only afterwards,
// and replay skips batches at or below the manifest's checkpoint_seq, so
// a crash anywhere in the sequence recovers to a consistent state.
//
// Readers never block on writers: Snapshot() hands out an immutable
// {base index, delta overlay, epoch} triple under a momentary lock, and
// writers swap in new snapshots rather than mutating shared state.
class WritableBitmapIndex : public IndexSnapshotProvider {
 public:
  // Builds the index from `column`, writes the initial checkpoint, and
  // opens the WAL. Fails if `dir` (which must exist) already holds an
  // index, or on an injected/real durability fault.
  static Result<std::unique_ptr<WritableBitmapIndex>> Create(
      const std::string& dir, const Column& column, const IndexConfig& config,
      WritableIndexOptions options = {});

  // Recovers from the directory: loads the manifest's checkpoint, trims a
  // torn WAL tail, and replays intact post-checkpoint batches.
  static Result<std::unique_ptr<WritableBitmapIndex>> Open(
      const std::string& dir, WritableIndexOptions options = {});

  // Durably applies one batch: assigns its sequence number, sorts it by
  // RID, WAL-appends (fsync), then publishes the new overlay snapshot.
  // Unavailable (retryable, nothing applied) on an injected or real WAL
  // fault; InvalidArgument on out-of-domain values or rids. Thread-safe;
  // concurrent callers are serialized.
  Status ApplyBatch(UpdateBatch batch, TraceSink* trace = nullptr);

  // IndexSnapshotProvider:
  IndexSnapshot Snapshot() const override;
  uint64_t PendingDeltaOps() const override;
  // Folds the overlay into the bitmaps, checkpoints atomically, truncates
  // the WAL, and bumps the epoch. Writers are blocked for the duration.
  // Unavailable on an injected/real durability fault — nothing is lost
  // and the call is safely retryable.
  Status Compact(TraceSink* trace) override;
  DurabilityStats durability() const override;

  // Introspection (tests, oracles).
  const std::string& dir() const { return dir_; }
  RecoveryInfo recovery_info() const { return recovery_; }
  uint32_t cardinality() const { return cardinality_; }
  // Current logical value of every row (tombstoned rows keep their last
  // value) — the column a from-scratch rebuild oracle indexes.
  std::vector<uint32_t> LogicalValues() const;
  // 1 = live row, 0 = tombstoned.
  Bitvector LiveMask() const;

 private:
  WritableBitmapIndex() = default;

  // Validates `batch` against the current logical state, assigns seq and
  // first_rid, sorts, and fills update old_values. Caller holds write_mu_.
  Status PrepareBatch(UpdateBatch* batch) const;
  // Applies a prepared batch to values_ and publishes the new overlay.
  // Caller holds write_mu_.
  void ApplyPrepared(const UpdateBatch& batch);

  Status WriteCheckpoint(const BitmapIndex& index,
                         const std::vector<uint32_t>& values,
                         const std::vector<uint64_t>& tombstones,
                         uint64_t seq, TraceSink* trace);

  std::string dir_;
  WritableIndexOptions options_;
  uint32_t cardinality_ = 0;
  RecoveryInfo recovery_;

  // Serializes ApplyBatch and Compact (the write side).
  mutable std::mutex write_mu_;
  WalWriter wal_;                 // guarded by write_mu_
  std::vector<uint32_t> values_;  // guarded by write_mu_
  uint64_t next_seq_ = 1;         // guarded by write_mu_
  uint64_t applied_seq_ = 0;      // last seq in the overlay; write_mu_
  uint64_t checkpoint_seq_ = 0;   // last durable seq; write_mu_
  std::string index_file_;        // current checkpoint files; write_mu_
  std::string state_file_;

  // Guards only the published snapshot; held for pointer copies.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const BitmapIndex> base_;        // snap_mu_
  std::shared_ptr<const DeltaSnapshot> delta_;     // snap_mu_
  std::atomic<uint64_t> epoch_{1};

  // Ops applied (or replayed) since the last durable checkpoint — the
  // compaction trigger. Carried tombstones are not "pending": they live in
  // the checkpointed base and refolding them would be pure churn.
  std::atomic<uint64_t> pending_ops_{0};
  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> compactions_{0};
};

}  // namespace bix

#endif  // BIX_CORE_WRITABLE_INDEX_H_
