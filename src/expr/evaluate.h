#ifndef BIX_EXPR_EVALUATE_H_
#define BIX_EXPR_EVALUATE_H_

#include <functional>
#include <vector>

#include "bitvector/bitvector.h"
#include "compress/codec.h"
#include "expr/bitmap_expr.h"
#include "util/trace.h"

namespace bix {

// Leaf supply: the fetcher hands back whatever form the cache holds
// resident — a shared handle to a plain Bitvector (the cache's own
// resident entry, or a freshly decoded buffer), or a Roaring container
// handle that the evaluator reads block by block *without* expanding it to
// a plain bitmap. The evaluator treats every leaf as immutable: a leaf is
// never copied just to be combined.
using DecodedLeafFetcher = std::function<DecodedBitmap(BitmapKey)>;

// The one evaluator (DESIGN.md section 12): the OR of `constituents` over
// bitmaps of `row_count` bits, in one pass over the words. The
// constituents are compiled once into a union program that runs over
// L1-sized blocks through kernels::Ops. Each *distinct* leaf is fetched
// exactly once, by key, and read in place: a plain leaf's words directly,
// a Roaring leaf one block at a time from its chunk's container (bitset
// containers in place, array and run containers expanded into a scratch
// block of their own, absent chunks as a shared zero block). The root is
// one or_terms kernel call per block: each constituent shaped like a term
// (a leaf, its complement, or a two-operand AND/XOR of leaves and their
// complements; an OR's members each count) is ORed straight from its
// operands' blocks, and the call counts the finished block and, when
// `rows` is non-null, stores it into the result in the same pass. Deeper
// constituents are computed into scratch first and join the root as one
// more term. Returns the count. A count-only union of one stored leaf with
// no exclusion is the leaf handle's own popcount (container cardinalities
// for Roaring). `trace` (nullable) gets one "kernel" span for the whole
// evaluation.
//
// `exclude` (nullable; at least row_count bits) is applied in the root's
// kernel call, so the answer is `union & ~exclude` — a writable index's
// tombstone mask costs no pass of its own. `rows` then spans
// exclude->size() bits, allocated once; the rows past row_count come out
// clear, for the caller to decide in place.
uint64_t EvaluateUnionBlocked(const std::vector<ExprPtr>& constituents,
                              uint64_t row_count,
                              const DecodedLeafFetcher& fetch, Bitvector* rows,
                              TraceSink* trace = nullptr,
                              const Bitvector* exclude = nullptr);

}  // namespace bix

#endif  // BIX_EXPR_EVALUATE_H_
