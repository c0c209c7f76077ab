#include "index/delta_store.h"

#include <algorithm>
#include <utility>

#include "index/reorder.h"
#include "util/check.h"

namespace bix {

std::shared_ptr<const DeltaSnapshot> DeltaSnapshot::Base(
    uint64_t base_rows, const std::vector<uint64_t>& tombstones) {
  auto snap = std::shared_ptr<DeltaSnapshot>(new DeltaSnapshot());
  snap->base_rows_ = base_rows;
  snap->dead_ = Bitvector(base_rows);
  for (uint64_t rid : tombstones) {
    BIX_CHECK_MSG(rid < base_rows, "tombstone rid out of range");
    if (!snap->dead_.Get(rid)) {
      snap->dead_.Set(rid);
      ++snap->dead_count_;
    }
  }
  return snap;
}

std::shared_ptr<const DeltaSnapshot> DeltaSnapshot::Apply(
    const UpdateBatch& batch) const {
  auto next = std::shared_ptr<DeltaSnapshot>(new DeltaSnapshot(*this));
  // Inserts first: they define the rid range updates/deletes may target.
  if (!batch.inserts.empty()) {
    BIX_CHECK_MSG(batch.first_rid == next->total_rows(),
                  "insert batch must start at the current row count");
    next->appended_.insert(next->appended_.end(), batch.inserts.begin(),
                           batch.inserts.end());
    next->dead_.Resize(next->total_rows());
  }
  for (const UpdateRecord& u : batch.updates) {
    BIX_CHECK_MSG(u.rid < next->total_rows(), "update rid out of range");
    if (u.rid >= next->base_rows_) {
      next->appended_[u.rid - next->base_rows_] = u.value;
    } else {
      auto it = std::lower_bound(
          next->overrides_.begin(), next->overrides_.end(), u.rid,
          [](const DeltaOverride& o, uint64_t rid) { return o.rid < rid; });
      if (it != next->overrides_.end() && it->rid == u.rid) {
        // Re-update: keep the original base_value so compaction still
        // clears the slots the *base index* has set for this row.
        it->value = u.value;
      } else {
        next->overrides_.insert(it, DeltaOverride{u.rid, u.old_value, u.value});
      }
    }
    // An update to a tombstoned row reinserts it with the new value.
    if (next->dead_.Get(u.rid)) {
      next->dead_.Clear(u.rid);
      --next->dead_count_;
    }
  }
  for (uint64_t rid : batch.deletes) {
    BIX_CHECK_MSG(rid < next->total_rows(), "delete rid out of range");
    if (!next->dead_.Get(rid)) {
      next->dead_.Set(rid);
      ++next->dead_count_;
    }
  }
  next->last_seq_ = batch.seq;
  return next;
}

DeltaView DeltaSnapshot::View() const {
  DeltaView view;
  view.base_rows = base_rows_;
  view.total_rows = total_rows();
  view.dead = &dead_;
  view.overrides = &overrides_;
  view.appended = &appended_;
  return view;
}

Result<FoldedIndex> FoldDelta(const BitmapIndex& base,
                              const DeltaSnapshot& delta) {
  BIX_CHECK_MSG(delta.base_rows() == base.row_count(),
                "delta does not overlay this base");
  const Decomposition& d = base.decomposition();
  const EncodingScheme& scheme = base.encoding();
  const uint64_t base_rows = base.row_count();
  const uint64_t total_rows = delta.total_rows();
  const StorageCodec codec = base.storage_codec();
  // The overlay is keyed by original RIDs, but a reordered base's bitmaps
  // are positional in the permuted row file — translate override positions
  // through the inverse permutation. Appends land past the covered prefix,
  // where the order is the identity, so base_rows + i needs no translation.
  const std::vector<uint32_t>& new_to_old = base.row_order();
  std::vector<uint32_t> old_to_new;
  if (!new_to_old.empty()) old_to_new = InvertRowOrder(new_to_old);
  const auto base_pos = [&](uint64_t rid) -> uint64_t {
    if (old_to_new.empty() || rid >= old_to_new.size()) return rid;
    return old_to_new[rid];
  };

  BitmapStore store;
  for (uint32_t comp = 1; comp <= d.num_components(); ++comp) {
    const uint32_t comp_base = d.base(comp);
    const uint32_t num_slots = scheme.NumBitmaps(comp_base);
    std::vector<std::vector<uint32_t>> slots_by_digit(comp_base);
    for (uint32_t digit = 0; digit < comp_base; ++digit) {
      scheme.SlotsForValue(comp_base, digit, &slots_by_digit[digit]);
    }
    // Per-slot bit diffs, as positions in the (possibly reordered) base
    // bitmaps. Application order is irrelevant — the diffs are poked into a
    // materialized bitvector before re-encoding.
    std::vector<std::vector<uint64_t>> clears(num_slots);
    std::vector<std::vector<uint64_t>> sets(num_slots);
    for (const DeltaOverride& o : delta.overrides()) {
      const uint32_t old_digit = d.Digit(o.base_value, comp);
      const uint32_t new_digit = d.Digit(o.value, comp);
      if (old_digit == new_digit) continue;
      const uint64_t pos = base_pos(o.rid);
      for (uint32_t slot : slots_by_digit[old_digit]) {
        clears[slot].push_back(pos);
      }
      for (uint32_t slot : slots_by_digit[new_digit]) {
        sets[slot].push_back(pos);
      }
    }
    const std::vector<uint32_t>& appended = delta.appended();
    for (uint64_t i = 0; i < appended.size(); ++i) {
      const uint32_t digit = d.Digit(appended[i], comp);
      for (uint32_t slot : slots_by_digit[digit]) {
        sets[slot].push_back(base_rows + i);
      }
    }
    for (uint32_t slot = 0; slot < num_slots; ++slot) {
      const BitmapKey key{comp, slot};
      Result<Bitvector> read = base.store().TryMaterialize(key);
      if (!read.ok()) return read.status();
      Bitvector bv = std::move(read).value();
      bv.Resize(total_rows);
      // Clears before sets: a slot shared by a row's old and new digit
      // (interval-style encodings overlap) must end set.
      for (uint64_t pos : clears[slot]) bv.Clear(pos);
      for (uint64_t pos : sets[slot]) bv.Set(pos);
      if (codec == StorageCodec::kAuto) {
        store.PutAuto(key, bv);
      } else {
        store.PutWithCodec(key, bv, static_cast<CodecId>(codec));
      }
    }
  }

  FoldedIndex out{
      BitmapIndex::FromParts(d, base.encoding_kind(), codec, total_rows,
                             std::move(store)),
      {}};
  // Appended rows sit at identity positions past the order, so the base's
  // permutation still describes the folded index as-is.
  out.index.SetRowOrder(new_to_old);
  out.tombstones.reserve(delta.dead().Count());
  delta.dead().ForEachSetBit(
      [&](uint64_t rid) { out.tombstones.push_back(rid); });
  return out;
}

}  // namespace bix
