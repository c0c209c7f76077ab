#ifndef BIX_EXPR_EVALUATE_H_
#define BIX_EXPR_EVALUATE_H_

#include <functional>
#include <memory>
#include <vector>

#include "bitvector/bitvector.h"
#include "compress/codec.h"
#include "expr/bitmap_expr.h"
#include "util/trace.h"

namespace bix {

// Leaf supply: the fetcher hands back whatever form the cache holds
// resident — a shared handle to a plain Bitvector (the cache's own
// resident entry, or a freshly decoded buffer), or a Roaring container
// handle that the evaluator consumes *without* expanding to a plain bitmap
// (container-level kernels for AND/OR/XOR, compressed popcount for
// counts). The evaluator treats every leaf as immutable: a leaf is never
// copied just to be combined.
using DecodedLeafFetcher = std::function<DecodedBitmap(BitmapKey)>;

// The result of a zero-copy evaluation: either a scratch buffer the
// evaluator built (owned — Take() moves it out for free) or a borrowed
// handle straight from the fetcher (a pure-leaf expression — Take() pays
// the one unavoidable copy, Count()/view() pay nothing).
class EvalResult {
 public:
  EvalResult(Bitvector owned) : owned_(std::move(owned)) {}  // NOLINT
  EvalResult(std::shared_ptr<const Bitvector> borrowed)      // NOLINT
      : borrowed_(std::move(borrowed)) {}

  EvalResult(EvalResult&&) = default;
  EvalResult& operator=(EvalResult&&) = default;

  const Bitvector& view() const { return borrowed_ ? *borrowed_ : owned_; }
  bool borrowed() const { return borrowed_ != nullptr; }
  uint64_t Count() const { return view().Count(); }
  // Moves the owned buffer out, or copies a borrowed handle (the only copy
  // a leaf-rooted expression ever pays, and only when the caller needs a
  // private materialized result).
  Bitvector Take() && {
    if (borrowed_) return *borrowed_;
    return std::move(owned_);
  }

 private:
  Bitvector owned_;
  std::shared_ptr<const Bitvector> borrowed_;
};

// Evaluates an expression over bitmaps of `row_count` bits. Each *distinct*
// leaf is fetched exactly once per call (the fetcher is memoized), matching
// the paper's assumption that a query evaluation scans each needed bitmap
// once given sufficient buffer space.
//
// The evaluation is destructive over shared handles: leaves flow through as
// borrowed pointers, n-ary nodes feed the fused k-ary kernels (one pass
// over k operands) reusing a child's scratch buffer as the destination, and
// AND chains stop evaluating children once the accumulator is provably
// empty. Roaring leaves are combined without full decode — n-ary nodes
// whose operands are all Roaring fold container-level And/Or/Xor and
// expand only the final (computed) result; mixed nodes run the fused plain
// kernel over the plain operands and fold each Roaring operand in with a
// container-iterating kernel (AndInPlace/OrInto/XorInto). Only a Roaring
// leaf *root* pays a counted full decode (the caller demanded a plain
// bitmap of stored data).
//
// `trace` (nullable) receives one span per operator node — named after the
// op, with the fused kernel's combine pass as a separate "kernel" child so
// per-node CPU is attributed apart from the nested fetches — clocked by
// the sink's own ClockInterface, so traced evaluation under a VirtualClock
// stays deterministic (kernel spans read 0ns; only sleeps advance time).
// nullptr traces nothing and allocates nothing.
EvalResult EvaluateExprDecoded(const ExprPtr& expr, uint64_t row_count,
                               const DecodedLeafFetcher& fetch,
                               TraceSink* trace = nullptr);

// Count-only codec-aware evaluation: Roaring leaf roots popcount the
// containers, a binary AND of two Roaring leaves counts the intersection
// in the compressed domain, and a Roaring/plain AND uses the hybrid
// AndCount — no plain bitmap is ever materialized for pure counting.
uint64_t EvaluateExprDecodedCount(const ExprPtr& expr, uint64_t row_count,
                                  const DecodedLeafFetcher& fetch,
                                  TraceSink* trace = nullptr);

// Blocked union evaluation (DESIGN.md section 12): the OR of `constituents`
// in one pass over the words, for leaves that are all plain (`fetch` must
// not return a Roaring handle). The constituents are compiled once into a
// postfix program — an n-ary OR over the constituents, leaf word pointers
// resolved up front, `x & ~y` as andnot — which runs over L1-sized blocks
// through kernels::Ops. Each finished block is popcounted and, when `rows`
// is non-null, appended to the result, so the answer is written once (never
// zero-filled first) and counted in the same pass. Returns the count.
// `trace` (nullable) gets one "kernel" span for the whole evaluation.
//
// `exclude` (nullable; at least row_count bits) is one more operand: the
// program ends with an andnot against its words, so the answer is
// `union & ~exclude` — a writable index's tombstone mask costs no pass of
// its own. `rows` then spans exclude->size() bits, allocated once; the rows
// past row_count come out clear, for the caller to decide in place.
uint64_t EvaluateUnionBlocked(const std::vector<ExprPtr>& constituents,
                              uint64_t row_count,
                              const DecodedLeafFetcher& fetch, Bitvector* rows,
                              TraceSink* trace = nullptr,
                              const Bitvector* exclude = nullptr);

}  // namespace bix

#endif  // BIX_EXPR_EVALUATE_H_
