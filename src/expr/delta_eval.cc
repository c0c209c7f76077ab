#include "expr/delta_eval.h"

#include <algorithm>

#include "util/check.h"

namespace bix {

ValueSet ValueSet::Members(const std::vector<uint32_t>& values) {
  // Mask words a membership set may use beyond one per member: enough for
  // any set over a 4096-value span.
  constexpr uint64_t kMaskSlackWords = 64;
  ValueSet s;
  s.is_interval_ = false;
  if (values.empty()) {
    s.lo_ = 1;  // lo > hi: contains nothing
    return s;
  }
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  s.lo_ = *lo;
  s.hi_ = *hi;
  const uint64_t words = (uint64_t{s.hi_} - s.lo_) / 64 + 1;
  if (words > values.size() + kMaskSlackWords) {
    s.sparse_ = values;
    std::sort(s.sparse_.begin(), s.sparse_.end());
    return s;
  }
  s.mask_.assign(words, 0);
  for (uint32_t v : values) {
    const uint32_t off = v - s.lo_;
    s.mask_[off / 64] |= uint64_t{1} << (off % 64);
  }
  return s;
}

bool ValueSet::SparseContains(uint32_t v) const {
  return std::binary_search(sparse_.begin(), sparse_.end(), v);
}

int64_t MergeDeltaOverlay(const DeltaView& view, const ValueSet& pred,
                          Bitvector* result) {
  BIX_CHECK(view.total_rows == view.base_rows + view.appended->size());
  BIX_CHECK_MSG(result == nullptr || result->size() == view.total_rows,
                "delta merge expects an answer over every overlay row");
  const Bitvector& dead = *view.dead;
  int64_t change = 0;
  // Overridden base rows: the base answer reflects the base value, so
  // re-decide each live one against the predicate directly. Dead rows stay
  // masked: deletions must win even for encodings whose bitmaps cannot
  // express an absent row.
  for (const DeltaOverride& o : *view.overrides) {
    if (dead.Get(o.rid)) continue;
    const bool now = pred.Contains(o.value);
    const bool before =
        result != nullptr ? result->Get(o.rid) : pred.Contains(o.base_value);
    if (now == before) continue;
    change += now ? 1 : -1;
    if (result == nullptr) continue;
    if (now) {
      result->Set(o.rid);
    } else {
      result->Clear(o.rid);
    }
  }
  for (uint64_t i = 0; i < view.appended->size(); ++i) {
    const uint64_t rid = view.base_rows + i;
    if (dead.Get(rid) || !pred.Contains((*view.appended)[i])) continue;
    ++change;
    if (result != nullptr) result->Set(rid);
  }
  return change;
}

}  // namespace bix
