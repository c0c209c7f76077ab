#ifndef BIX_INDEX_DELTA_STORE_H_
#define BIX_INDEX_DELTA_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "expr/delta_eval.h"
#include "index/bitmap_index.h"
#include "storage/wal.h"
#include "util/status.h"
#include "util/trace.h"

namespace bix {

// The in-memory overlay of a writable index: tombstoned rows as a delete
// bitmap, value updates of base rows as overrides, and appended rows as a
// value vector. Snapshots are immutable — Apply returns a new snapshot —
// so a reader holding a shared_ptr sees one consistent overlay for its
// whole query regardless of concurrent writers (the epoch machinery in
// QueryService pins the pair {base index, delta snapshot}).
//
// Batch semantics (also the recovery oracle's semantics): inserts, then
// updates, then deletes, in that order within a batch. An update to a
// tombstoned row revives it with the new value (delete-then-reinsert);
// the tombstone mask is applied after everything else at query time, so a
// deletion always wins over whatever bits the row's last value left in
// the bitmaps — Range-style encodings cannot express an absent row.
class DeltaSnapshot {
 public:
  // The empty overlay over a base index of `base_rows` rows, with any
  // tombstones the base carried forward from its last compaction.
  static std::shared_ptr<const DeltaSnapshot> Base(
      uint64_t base_rows, const std::vector<uint64_t>& tombstones = {});

  // A new snapshot with `batch` applied on top of this one. The batch must
  // be pre-validated (WritableBitmapIndex::ApplyBatch does): first_rid ==
  // total_rows(), update/delete rids < total_rows().
  std::shared_ptr<const DeltaSnapshot> Apply(const UpdateBatch& batch) const;

  // Non-owning view for the evaluator; valid while this snapshot lives.
  DeltaView View() const;

  uint64_t base_rows() const { return base_rows_; }
  uint64_t total_rows() const { return base_rows_ + appended_.size(); }
  // Sequence number of the last applied batch (0 for Base).
  uint64_t last_seq() const { return last_seq_; }
  // Overlay size: overrides + appends + live tombstones (the rows a query
  // merge must visit; carried tombstones included).
  uint64_t ops() const {
    return overrides_.size() + appended_.size() + dead_count_;
  }
  // True when queries can skip the merge entirely: results over the base
  // index are already exact.
  bool trivial() const { return ops() == 0; }

  const Bitvector& dead() const { return dead_; }
  const std::vector<DeltaOverride>& overrides() const { return overrides_; }
  const std::vector<uint32_t>& appended() const { return appended_; }

 private:
  DeltaSnapshot() = default;

  uint64_t base_rows_ = 0;
  uint64_t last_seq_ = 0;
  uint64_t dead_count_ = 0;
  Bitvector dead_;                        // size total_rows()
  std::vector<DeltaOverride> overrides_;  // sorted by rid, rids < base_rows_
  std::vector<uint32_t> appended_;        // value of row base_rows_ + i
};

// The unit a reader pins for one query: a base index, the overlay on top
// of it, and the epoch that identifies the base (bumped by compaction).
struct IndexSnapshot {
  std::shared_ptr<const BitmapIndex> base;
  std::shared_ptr<const DeltaSnapshot> delta;
  uint64_t base_epoch = 0;
};

// Durability counters a provider accumulates across its lifetime
// (recovered_* reflect the last Open).
struct DurabilityStats {
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t recovered_batches = 0;
  uint64_t truncated_tail_records = 0;
  uint64_t compactions = 0;
  uint64_t delta_rows = 0;  // ops since the last checkpoint (gauge)
};

// What QueryService serves from in writable mode. Implemented by
// WritableBitmapIndex (src/core); defined here so the server layer does
// not depend on core (DESIGN.md section 6).
class IndexSnapshotProvider {
 public:
  virtual ~IndexSnapshotProvider() = default;

  // An epoch-consistent {base, delta} pair. Cheap: two shared_ptr copies.
  virtual IndexSnapshot Snapshot() const = 0;
  // Overlay ops outstanding (compaction trigger).
  virtual uint64_t PendingDeltaOps() const = 0;
  // Folds the overlay into the component bitmaps, checkpoints, and bumps
  // the epoch. Serialized internally; Unavailable on injected durability
  // faults (retryable — nothing is lost).
  virtual Status Compact(TraceSink* trace) = 0;
  virtual DurabilityStats durability() const = 0;
};

// A compacted base: the overlay folded into every component bitmap (old
// digit slots cleared, new ones set, appended rows grown) plus the
// tombstones that must keep riding along as a mask.
struct FoldedIndex {
  BitmapIndex index;
  std::vector<uint64_t> tombstones;
};

// Folds `delta` into `base` incrementally — only the touched bitmaps are
// re-encoded, each re-advised under the index's codec policy (kAuto blobs
// go back through PutAuto so a density change can flip the codec). The
// result is bit-identical to rebuilding from the updated logical column.
FoldedIndex FoldDelta(const BitmapIndex& base, const DeltaSnapshot& delta);

}  // namespace bix

#endif  // BIX_INDEX_DELTA_STORE_H_
