#ifndef BIX_EXPR_DELTA_EVAL_H_
#define BIX_EXPR_DELTA_EVAL_H_

#include <cstdint>
#include <vector>

#include "bitvector/bitvector.h"

namespace bix {

// The set of attribute values a selection predicate accepts — the
// evaluator-side mirror of interval and membership queries, used to decide
// whether an overlaid row matches without consulting any bitmap. Built once
// per query; Contains is a range test for intervals and one bit test of a
// mask over [min, max] member for membership sets. Only a set too sparse
// for its mask to stay within a word per member (plus a fixed slack) keeps
// its values sorted and binary-searches them instead.
class ValueSet {
 public:
  // lo <= v <= hi, or its complement when `negated` (IntervalQuery's own
  // flag, so overlay rows are judged by the predicate the base rewrite
  // evaluated).
  static ValueSet Interval(uint32_t lo, uint32_t hi, bool negated = false) {
    ValueSet s;
    s.is_interval_ = true;
    s.lo_ = lo;
    s.hi_ = hi;
    s.negated_ = negated;
    return s;
  }
  static ValueSet Members(const std::vector<uint32_t>& values);

  bool Contains(uint32_t v) const {
    if (is_interval_) return (lo_ <= v && v <= hi_) != negated_;
    if (v < lo_ || v > hi_) return false;
    if (mask_.empty()) return SparseContains(v);
    const uint32_t off = v - lo_;
    return (mask_[off / 64] >> (off % 64) & 1) != 0;
  }

 private:
  bool SparseContains(uint32_t v) const;

  bool is_interval_ = true;
  bool negated_ = false;
  uint32_t lo_ = 0;  // interval bounds, or the smallest and largest member
  uint32_t hi_ = 0;
  std::vector<uint64_t> mask_;     // bit v - lo_ set for every member v
  std::vector<uint32_t> sparse_;   // sorted members when mask_ is empty
};

// One updated base row: the row's value in the base index and its current
// value in the overlay. `base_value` is the value the base bitmaps encode
// for the row: compaction clears its digit slots without re-reading the
// column, and count-only merged reads take the row's base answer from it.
struct DeltaOverride {
  uint64_t rid = 0;
  uint32_t base_value = 0;
  uint32_t value = 0;
};

// A read-only, non-owning view of an index overlay, expressed entirely in
// bitvector/value terms so this layer stays below src/index (DESIGN.md
// section 6). Invariants the producer (DeltaSnapshot) maintains:
//   - overrides is sorted by rid, each rid < base_rows, no duplicates;
//   - appended[i] is the value of row base_rows + i;
//   - dead->size() == total_rows == base_rows + appended->size().
struct DeltaView {
  uint64_t base_rows = 0;
  uint64_t total_rows = 0;
  const Bitvector* dead = nullptr;
  const std::vector<DeltaOverride>* overrides = nullptr;
  const std::vector<uint32_t>* appended = nullptr;
};

// Finishes a merged read (DESIGN.md section 15). The caller has the base
// index's answer with the tombstone mask already applied over the base
// rows; this re-decides each overridden and appended row that is not dead
// against `pred` and returns the change in popcount, so the caller's count
// of the masked base answer plus the return value is the merged count.
// Work is proportional to the overlay, never to the row count.
//
// With `result` (total_rows bits; appended rows clear) the rows are
// rewritten in place and each one's old state is read from `result`.
// Without it nothing is materialized: an override's old state is
// pred(base_value), which is what the base bitmaps answered for the row.
// Either way the merged answer is bit-identical to evaluating `pred`
// against a from-scratch rebuild of the updated column, live rows only.
int64_t MergeDeltaOverlay(const DeltaView& view, const ValueSet& pred,
                          Bitvector* result);

}  // namespace bix

#endif  // BIX_EXPR_DELTA_EVAL_H_
