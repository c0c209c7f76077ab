#include "expr/evaluate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bitvector/kernels.h"
#include "compress/roaring.h"
#include "util/check.h"

namespace bix {
namespace {

// A node's value during evaluation: a borrowed shared handle (leaf/memo —
// immutable, owned by the cache), a borrowed Roaring container handle
// (combined without full decode), or an owned scratch buffer the evaluator
// may mutate and reuse as a fused-kernel destination.
struct Value {
  std::shared_ptr<const Bitvector> shared;        // non-null when borrowed
  std::shared_ptr<const RoaringBitmap> roaring;   // non-null when container
  Bitvector owned;  // meaningful when !shared && !roaring

  bool is_roaring() const { return roaring != nullptr; }
  // Plain-form view; never call on a Roaring value (the point is to avoid
  // expanding those).
  const Bitvector& view() const {
    BIX_CHECK(!is_roaring());
    return shared ? *shared : owned;
  }
  bool owns() const { return shared == nullptr && roaring == nullptr; }
  bool AllZero() const {
    return is_roaring() ? roaring->Empty() : view().AllZero();
  }

  static Value Borrowed(std::shared_ptr<const Bitvector> bv) {
    Value v;
    v.shared = std::move(bv);
    return v;
  }
  static Value BorrowedRoaring(std::shared_ptr<const RoaringBitmap> rb) {
    Value v;
    v.roaring = std::move(rb);
    return v;
  }
  static Value Owned(Bitvector bv) {
    Value v;
    v.owned = std::move(bv);
    return v;
  }
  static Value FromDecoded(DecodedBitmap d) {
    if (d.is_roaring()) return BorrowedRoaring(d.roaring_handle());
    return Borrowed(d.plain_handle());
  }
};

// Span name for an operator node (leaves and constants trace through the
// fetch path instead, so the tree stays proportional to the plan).
const char* OpSpanName(ExprOp op) {
  switch (op) {
    case ExprOp::kNot:
      return "not";
    case ExprOp::kAnd:
      return "and";
    case ExprOp::kOr:
      return "or";
    case ExprOp::kXor:
      return "xor";
    default:
      return "expr";
  }
}

class Evaluator {
 public:
  Evaluator(uint64_t row_count, const DecodedLeafFetcher& fetch,
            TraceSink* trace)
      : row_count_(row_count), fetch_(fetch), trace_(trace) {}

  Value Eval(const ExprPtr& e) {
    switch (e->op) {
      case ExprOp::kConst:
        return Value::Owned(e->const_value ? Bitvector::AllOnes(row_count_)
                                           : Bitvector(row_count_));
      case ExprOp::kLeaf:
        return Value::FromDecoded(FetchMemoized(e->leaf));
      case ExprOp::kNot: {
        TraceScope span(trace_, OpSpanName(e->op));
        // NOT needs a private buffer: reuse the child's scratch when it
        // owns one, otherwise write the complement of the borrowed form
        // straight into fresh scratch (never copy-then-flip). A Roaring
        // child complements from containers — no full decode.
        Value child = Eval(e->children[0]);
        TraceScope kernel(trace_, "kernel");
        if (child.is_roaring()) {
          Bitvector r;
          child.roaring->NotInto(&r);
          return Value::Owned(std::move(r));
        }
        if (child.owns()) {
          child.owned.NotSelf();
          return child;
        }
        Bitvector r;
        Bitvector::NotInto(*child.shared, &r);
        return Value::Owned(std::move(r));
      }
      case ExprOp::kAnd:
      case ExprOp::kOr:
      case ExprOp::kXor:
        return EvalNary(e);
    }
    BIX_CHECK(false);
    return Value::Owned(Bitvector(row_count_));
  }

  // Count of the root's result without materializing a copy for the
  // caller. Leaf roots count the handle in place (compressed popcount for
  // Roaring); a binary AND root folds the popcount into its combine pass —
  // in the compressed domain when both sides are containers, via the
  // hybrid AndCount when one side is plain.
  uint64_t EvalCount(const ExprPtr& e) {
    if (e->op == ExprOp::kLeaf) {
      return FetchMemoized(e->leaf).Count();
    }
    if (e->op == ExprOp::kAnd && e->children.size() == 2) {
      TraceScope span(trace_, "and");
      Value a = Eval(e->children[0]);
      if (a.AllZero()) return 0;  // short-circuit: skip the sibling
      Value b = Eval(e->children[1]);
      TraceScope kernel(trace_, "kernel");
      if (a.is_roaring() && b.is_roaring()) {
        return RoaringBitmap::AndCount(*a.roaring, *b.roaring);
      }
      if (a.is_roaring()) return a.roaring->AndCount(b.view());
      if (b.is_roaring()) return b.roaring->AndCount(a.view());
      // AndWithCount mutates its receiver: use whichever side owns scratch.
      // Two borrowed leaves need no scratch at all — AndCount popcounts the
      // conjunction without materializing it.
      if (a.owns()) return a.owned.AndWithCount(b.view());
      if (b.owns()) return b.owned.AndWithCount(a.view());
      return Bitvector::AndCount(*a.shared, *b.shared);
    }
    Value v = Eval(e);
    return v.is_roaring() ? v.roaring->Count() : v.view().Count();
  }

  // Root conversion for callers that need a plain bitmap. A Roaring value
  // here is stored data the caller demanded expanded, so the decode is
  // counted (RoaringStats tripwire) — unlike computed results, which were
  // never in container form.
  static EvalResult ToResult(Value v) {
    if (v.is_roaring()) return EvalResult(v.roaring->ToBitvector());
    if (v.owns()) return EvalResult(std::move(v.owned));
    return EvalResult(std::move(v.shared));
  }

 private:
  Value EvalNary(const ExprPtr& e) {
    TraceScope span(trace_, OpSpanName(e->op));
    // Depth-first over the children, keeping every result as a handle. AND
    // chains short-circuit: once any child is all-zero the conjunction is
    // empty, and the remaining children (and their fetches) are skipped.
    std::vector<Value> vals;
    vals.reserve(e->children.size());
    for (const ExprPtr& c : e->children) {
      vals.push_back(Eval(c));
      if (e->op == ExprOp::kAnd && vals.back().AllZero()) {
        return Value::Owned(Bitvector(row_count_));
      }
    }
    size_t plain_count = 0;
    for (const Value& v : vals) plain_count += v.is_roaring() ? 0 : 1;
    TraceScope kernel(trace_, "kernel");
    // Operand mix for slow-query forensics: how many children went through
    // the fused word kernels vs the Roaring container kernels. (The SIMD
    // tier those kernels dispatch to is process-wide — kernels::ActiveTier —
    // not per-span, and tagging it here would make traces machine-shaped.)
    if (trace_ != nullptr) {
      trace_->Tag("plain_operands", static_cast<uint64_t>(plain_count));
      trace_->Tag("roaring_operands",
                  static_cast<uint64_t>(vals.size() - plain_count));
    }
    if (plain_count == 0) return NaryAllRoaring(e->op, vals);
    if (plain_count == vals.size()) return NaryAllPlain(e->op, vals);
    return NaryMixed(e->op, vals, plain_count);
  }

  // One fused pass over all k plain children. Reuse the first owned
  // child's buffer as the destination (the kernels read each word from
  // every operand before writing it, so aliasing is safe); allocate only
  // when every child is a borrowed leaf.
  Value NaryAllPlain(ExprOp op, std::vector<Value>& vals) {
    size_t dst = vals.size();
    for (size_t i = 0; i < vals.size(); ++i) {
      if (vals[i].owns()) {
        dst = i;
        break;
      }
    }
    Bitvector out;
    if (dst < vals.size()) out = std::move(vals[dst].owned);
    std::vector<const Bitvector*> ops(vals.size());
    for (size_t i = 0; i < vals.size(); ++i) {
      ops[i] = (i == dst) ? &out : &vals[i].view();
    }
    RunFused(op, ops, &out);
    return Value::Owned(std::move(out));
  }

  // Every operand is in container form: fold the whole node in the
  // compressed domain and expand only the final, computed result (an
  // uncounted WriteInto — no stored bitmap was fully decoded).
  Value NaryAllRoaring(ExprOp op, std::vector<Value>& vals) {
    RoaringBitmap acc = Combine(op, *vals[0].roaring, *vals[1].roaring);
    for (size_t i = 2; i < vals.size(); ++i) {
      acc = Combine(op, acc, *vals[i].roaring);
    }
    Bitvector out;
    acc.WriteInto(&out);
    return Value::Owned(std::move(out));
  }

  // Plain and Roaring operands together: fuse the plain ones into scratch,
  // then fold each Roaring operand in with its container-iterating kernel —
  // containers are consumed run-by-run/word-by-word, never expanded.
  Value NaryMixed(ExprOp op, std::vector<Value>& vals, size_t plain_count) {
    size_t dst = vals.size();
    for (size_t i = 0; i < vals.size(); ++i) {
      if (vals[i].owns()) {
        dst = i;
        break;
      }
    }
    Bitvector out;
    if (dst < vals.size()) out = std::move(vals[dst].owned);
    std::vector<const Bitvector*> ops;
    ops.reserve(plain_count);
    for (size_t i = 0; i < vals.size(); ++i) {
      if (vals[i].is_roaring()) continue;
      ops.push_back((i == dst) ? &out : &vals[i].view());
    }
    RunFused(op, ops, &out);
    for (const Value& v : vals) {
      if (!v.is_roaring()) continue;
      switch (op) {
        case ExprOp::kAnd:
          v.roaring->AndInPlace(&out);
          break;
        case ExprOp::kOr:
          v.roaring->OrInto(&out);
          break;
        default:
          v.roaring->XorInto(&out);
          break;
      }
    }
    return Value::Owned(std::move(out));
  }

  static void RunFused(ExprOp op, const std::vector<const Bitvector*>& ops,
                       Bitvector* out) {
    switch (op) {
      case ExprOp::kAnd:
        Bitvector::AndManyInto(ops, out);
        break;
      case ExprOp::kOr:
        Bitvector::OrManyInto(ops, out);
        break;
      default:
        Bitvector::XorManyInto(ops, out);
        break;
    }
  }

  static RoaringBitmap Combine(ExprOp op, const RoaringBitmap& a,
                               const RoaringBitmap& b) {
    switch (op) {
      case ExprOp::kAnd:
        return RoaringBitmap::And(a, b);
      case ExprOp::kOr:
        return RoaringBitmap::Or(a, b);
      default:
        return RoaringBitmap::Xor(a, b);
    }
  }

  DecodedBitmap FetchMemoized(BitmapKey key) {
    auto it = memo_.find(key.Packed());
    if (it != memo_.end()) return it->second;
    DecodedBitmap d = fetch_(key);
    BIX_CHECK(d.valid());
    BIX_CHECK_MSG(d.bits() == row_count_, "leaf bitmap size mismatch");
    memo_.emplace(key.Packed(), d);
    return d;
  }

  uint64_t row_count_;
  const DecodedLeafFetcher& fetch_;
  TraceSink* const trace_;  // nullable: tracing off
  // The memo stores handles, so a leaf referenced by several subexpressions
  // is fetched once and never copied to be handed out again.
  std::unordered_map<uint64_t, DecodedBitmap> memo_;
};

// ------------------------------------------------- blocked union program --

// Block length of the union program: 2 KiB, so the few scratch blocks a
// program keeps live stay in L1 while each leaf's words stream through
// once.
constexpr size_t kBlockWords = 256;

constexpr std::array<uint64_t, kBlockWords> FilledBlock(uint64_t word) {
  std::array<uint64_t, kBlockWords> block{};
  for (uint64_t& w : block) w = word;
  return block;
}

// Constant operands are one block long and read at every block offset.
constexpr std::array<uint64_t, kBlockWords> kZeroBlock = FilledBlock(0);
constexpr std::array<uint64_t, kBlockWords> kOnesBlock =
    FilledBlock(~uint64_t{0});

// The union of a query's constituents as a postfix program over word
// blocks. Compiled once: leaves become pointers to their words, resolved up
// front, and every operator becomes one kernels::Ops call per block. The
// stack holds block pointers, so a leaf operand is read in place; only a
// computed value occupies scratch, the block owned by its stack slot.
class UnionProgram {
 public:
  UnionProgram(const std::vector<ExprPtr>& constituents, uint64_t row_count,
               const DecodedLeafFetcher& fetch, const Bitvector* exclude)
      : row_count_(row_count), fetch_(fetch), ops_(kernels::Active()) {
    CompileNary(ExprOp::kOr, constituents);
    if (exclude != nullptr) {
      BIX_CHECK_MSG(exclude->size() >= row_count, "exclusion mask too short");
      Push(Code::kLeaf, exclude->words().data());
      Emit(Code::kAndNot, 2);
    }
    BIX_CHECK(depth_ == 1);
    stack_.resize(max_depth_);
    scratch_.resize(scratch_blocks_ * kBlockWords);
  }

  // Evaluates words [base, base + len), len <= kBlockWords, and returns the
  // finished block: a leaf's own words, a constant block, or scratch.
  const uint64_t* Run(size_t base, size_t len) {
    size_t sp = 0;
    for (const Instr& in : code_) {
      switch (in.code) {
        case Code::kLeaf:
          stack_[sp++] = in.words + base;
          break;
        case Code::kConst:
          stack_[sp++] = in.words;
          break;
        case Code::kNot: {
          uint64_t* dst = Scratch(sp - 1);
          ops_.not_words(dst, stack_[sp - 1], len);
          stack_[sp - 1] = dst;
          break;
        }
        case Code::kAndNot: {
          --sp;
          uint64_t* dst = Scratch(sp - 1);
          if (stack_[sp - 1] != dst) {
            std::memcpy(dst, stack_[sp - 1], len * sizeof(uint64_t));
          }
          ops_.andnot_words(dst, stack_[sp], len);
          stack_[sp - 1] = dst;
          break;
        }
        case Code::kAnd:
        case Code::kOr:
        case Code::kXor: {
          // The k-ary folds allow dst to alias an operand exactly: the
          // accumulator at this slot is folded into its own block.
          sp -= in.arity;
          uint64_t* dst = Scratch(sp);
          const auto fold = in.code == Code::kAnd  ? ops_.and_many
                            : in.code == Code::kOr ? ops_.or_many
                                                   : ops_.xor_many;
          fold(stack_.data() + sp, in.arity, dst, len);
          stack_[sp++] = dst;
          break;
        }
      }
    }
    return stack_[0];
  }

 private:
  enum class Code : uint8_t { kLeaf, kConst, kNot, kAndNot, kAnd, kOr, kXor };
  struct Instr {
    Code code;
    uint32_t arity;         // operands an operator pops
    const uint64_t* words;  // kLeaf: the leaf's words; kConst: a block
  };

  // Leaves `e`'s value on top of the stack.
  void Compile(const ExprPtr& e) {
    switch (e->op) {
      case ExprOp::kLeaf:
        return Push(Code::kLeaf, LeafWords(e->leaf));
      case ExprOp::kConst:
        return Push(Code::kConst,
                    e->const_value ? kOnesBlock.data() : kZeroBlock.data());
      case ExprOp::kNot:
        Compile(e->children[0]);
        return Emit(Code::kNot, 1);
      default:
        return CompileNary(e->op, e->children);
    }
  }

  // An n-ary node. Computed operands go first, each folded into the node's
  // accumulator as soon as it is ready, so a nesting level holds at most
  // two scratch blocks; the leaf and constant operands then join in one
  // k-ary fold read straight from their words. Under AND a complemented
  // operand is folded in last as `x & ~y` (andnot) instead of being
  // complemented into scratch of its own.
  void CompileNary(ExprOp op, const std::vector<ExprPtr>& children) {
    std::vector<const ExprPtr*> computed, direct, negated;
    for (const ExprPtr& c : children) {
      if (op == ExprOp::kAnd && c->op == ExprOp::kNot) {
        negated.push_back(&c);
      } else if (c->op == ExprOp::kLeaf || c->op == ExprOp::kConst) {
        direct.push_back(&c);
      } else {
        computed.push_back(&c);
      }
    }
    if (computed.empty() && direct.empty() && !negated.empty()) {
      // Nothing to subtract from yet: the first complement is the seed.
      computed.push_back(negated.front());
      negated.erase(negated.begin());
    }
    const Code fold = op == ExprOp::kAnd  ? Code::kAnd
                      : op == ExprOp::kOr ? Code::kOr
                                          : Code::kXor;
    bool seeded = false;
    for (const ExprPtr* c : computed) {
      Compile(*c);
      if (seeded) Emit(fold, 2);
      seeded = true;
    }
    for (const ExprPtr* c : direct) Compile(*c);
    const size_t k = direct.size() + (seeded ? 1 : 0);
    if (k == 0) Push(Code::kConst, kZeroBlock.data());  // the empty union
    if (k >= 2) Emit(fold, static_cast<uint32_t>(k));
    for (const ExprPtr* c : negated) {
      Compile((*c)->children[0]);
      Emit(Code::kAndNot, 2);
    }
  }

  void Push(Code code, const uint64_t* words) {
    code_.push_back(Instr{code, 0, words});
    max_depth_ = std::max(max_depth_, ++depth_);
  }

  // An operator pops `arity` values and leaves its result in the scratch
  // block of the slot it lands in.
  void Emit(Code code, uint32_t arity) {
    code_.push_back(Instr{code, arity, nullptr});
    depth_ -= arity - 1;
    scratch_blocks_ = std::max(scratch_blocks_, depth_);
  }

  const uint64_t* LeafWords(BitmapKey key) {
    DecodedBitmap d = fetch_(key);
    BIX_CHECK_MSG(d.valid() && !d.is_roaring(),
                  "blocked union needs plain leaves");
    BIX_CHECK_MSG(d.bits() == row_count_, "leaf bitmap size mismatch");
    const uint64_t* words = d.plain()->words().data();
    held_.push_back(std::move(d));  // the words live as long as the program
    return words;
  }

  uint64_t* Scratch(size_t slot) {
    return scratch_.data() + slot * kBlockWords;
  }

  uint64_t row_count_;
  const DecodedLeafFetcher& fetch_;
  const kernels::Ops& ops_;
  std::vector<Instr> code_;
  std::vector<DecodedBitmap> held_;
  size_t depth_ = 0;
  size_t max_depth_ = 0;
  size_t scratch_blocks_ = 0;
  // Run-time state, reused by every block.
  std::vector<const uint64_t*> stack_;
  std::vector<uint64_t> scratch_;
};

}  // namespace

EvalResult EvaluateExprDecoded(const ExprPtr& expr, uint64_t row_count,
                               const DecodedLeafFetcher& fetch,
                               TraceSink* trace) {
  Evaluator ev(row_count, fetch, trace);
  return Evaluator::ToResult(ev.Eval(expr));
}

uint64_t EvaluateExprDecodedCount(const ExprPtr& expr, uint64_t row_count,
                                  const DecodedLeafFetcher& fetch,
                                  TraceSink* trace) {
  return Evaluator(row_count, fetch, trace).EvalCount(expr);
}

uint64_t EvaluateUnionBlocked(const std::vector<ExprPtr>& constituents,
                              uint64_t row_count,
                              const DecodedLeafFetcher& fetch, Bitvector* rows,
                              TraceSink* trace, const Bitvector* exclude) {
  TraceScope kernel(trace, "kernel");
  UnionProgram program(constituents, row_count, fetch, exclude);
  if (trace != nullptr) {
    trace->Tag("constituents", static_cast<uint64_t>(constituents.size()));
  }
  const kernels::Ops& ops = kernels::Active();
  const size_t n = Bitvector::WordCount(row_count);
  // NOT and constant-true operands set the bits past row_count in the last
  // word; every operator is bitwise, so masking the finished word suffices.
  const uint64_t tail_mask = row_count % 64 == 0
                                 ? ~uint64_t{0}
                                 : (uint64_t{1} << (row_count % 64)) - 1;
  const uint64_t result_bits = exclude != nullptr ? exclude->size() : row_count;
  std::vector<uint64_t> words;
  if (rows != nullptr) words.reserve(Bitvector::WordCount(result_bits));
  uint64_t count = 0;
  for (size_t base = 0; base < n; base += kBlockWords) {
    const size_t len = std::min(kBlockWords, n - base);
    const uint64_t* block = program.Run(base, len);
    const size_t body = base + len == n ? len - 1 : len;
    count += ops.count(block, body);
    if (rows != nullptr) words.insert(words.end(), block, block + body);
    if (body < len) {
      const uint64_t last = block[body] & tail_mask;
      count += static_cast<uint64_t>(std::popcount(last));
      if (rows != nullptr) words.push_back(last);
    }
  }
  if (rows != nullptr) {
    words.resize(Bitvector::WordCount(result_bits), 0);
    *rows = Bitvector::FromWords(result_bits, std::move(words));
  }
  return count;
}

}  // namespace bix
