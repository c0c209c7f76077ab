#include "expr/evaluate.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bitvector/kernels.h"
#include "compress/roaring.h"
#include "util/check.h"

namespace bix {
namespace {

// Block length of the union program: 2 KiB, so the few scratch blocks a
// program keeps live stay in L1 while each leaf's words stream through
// once.
constexpr size_t kBlockWords = 256;
// A Roaring leaf yields each block from one chunk's container.
static_assert(RoaringBitmap::kChunkWords % kBlockWords == 0,
              "a block may not straddle a Roaring chunk");

constexpr std::array<uint64_t, kBlockWords> FilledBlock(uint64_t word) {
  std::array<uint64_t, kBlockWords> block{};
  for (uint64_t& w : block) w = word;
  return block;
}

// Constant operands are one block long and read at every block offset.
constexpr std::array<uint64_t, kBlockWords> kZeroBlock = FilledBlock(0);
constexpr std::array<uint64_t, kBlockWords> kOnesBlock =
    FilledBlock(~uint64_t{0});

// The union of a query's constituents, compiled once. Each distinct leaf
// is fetched once and becomes an operand that yields one block per run.
// The root is one kernels::Ops::or_terms call per block: every constituent
// with a term's shape is a term over its operands' current blocks, and the
// call ORs the terms, applies the exclusion mask and the last word's mask,
// stores the block and counts it from registers. Deeper constituents run
// first as a postfix program whose operators are one Ops call per block;
// its stack holds block pointers, so a leaf operand is read in place and
// only a computed value occupies scratch, the block owned by its stack
// slot. That program's value joins the root as one more term.
class UnionProgram {
 public:
  UnionProgram(const std::vector<ExprPtr>& constituents, uint64_t row_count,
               const DecodedLeafFetcher& fetch, const Bitvector* exclude)
      : row_count_(row_count),
        fetch_(fetch),
        ops_(kernels::Active()),
        blocks_{kZeroBlock.data(), kOnesBlock.data()} {
    for (const ExprPtr& c : constituents) CompileRoot(c, false);
    if (!deep_.empty()) {
      // A lone complemented deeper constituent is complemented by its term
      // rather than by a pass of its own.
      const bool lone_negated = deep_.size() == 1 && deep_[0].second;
      for (size_t i = 0; i < deep_.size(); ++i) {
        Compile(*deep_[i].first);
        if (deep_[i].second && !lone_negated) Emit(Code::kNot, 1);
        if (i > 0) Emit(Code::kOr, 2);
      }
      BIX_CHECK(depth_ == 1);
      deep_slot_ = NewSlot(nullptr);
      AddTerm(lone_negated ? TermKind::kNotA : TermKind::kA, deep_slot_);
    }
    if (exclude != nullptr) {
      BIX_CHECK_MSG(exclude->size() >= row_count, "exclusion mask too short");
      exclude_ = exclude->words().data();
    }
    // The slots are final: point each term at its operands' blocks.
    terms_.reserve(specs_.size());
    for (const TermSpec& t : specs_) {
      terms_.push_back(kernels::Term{t.kind, &blocks_[t.a], &blocks_[t.b]});
    }
    stack_.resize(max_depth_);
    // Scratch holds the computed values' blocks, then one expansion block
    // per Roaring leaf.
    size_t roaring = 0;
    for (const Leaf& leaf : leaves_) roaring += leaf.words == nullptr ? 1 : 0;
    scratch_.resize((scratch_blocks_ + roaring) * kBlockWords);
    uint64_t* expansion = Scratch(scratch_blocks_);
    for (Leaf& leaf : leaves_) {
      if (leaf.words != nullptr) continue;
      leaf.scratch = expansion;
      expansion += kBlockWords;
    }
  }

  // Evaluates words [base, base + len), len <= kBlockWords, with word
  // base + len - 1 ANDed with `last_mask`; stores them to `dst` when
  // non-null and returns their popcount. Blocks must be run in increasing
  // order (Roaring leaves read forward).
  uint64_t Run(size_t base, size_t len, uint64_t last_mask, uint64_t* dst) {
    for (Leaf& leaf : leaves_) {
      blocks_[leaf.slot] =
          leaf.words != nullptr
              ? leaf.words + base
              : leaf.reader.Read(base, static_cast<uint32_t>(len),
                                 leaf.scratch);
    }
    if (!code_.empty()) blocks_[deep_slot_] = RunStack(len);
    return ops_.or_terms(terms_.data(), terms_.size(),
                         exclude_ != nullptr ? exclude_ + base : nullptr,
                         last_mask, dst, len);
  }

 private:
  using TermKind = kernels::TermKind;
  enum class Code : uint8_t { kOperand, kNot, kAndNot, kAnd, kOr, kXor };
  struct Instr {
    Code code;
    uint32_t arg;  // kOperand: a leaf's or constant's slot; else the arity
  };
  // A distinct leaf: plain words read in place, or a Roaring bitmap read
  // one block at a time into its own scratch block.
  struct Leaf {
    const uint64_t* words = nullptr;  // plain; null for Roaring
    RoaringBitmap::BlockReader reader;
    uint64_t* scratch = nullptr;
    uint32_t slot = 0;  // its block in blocks_
  };
  // A root term over operand slots (blocks_ indexes).
  struct TermSpec {
    TermKind kind;
    uint32_t a, b;
  };
  // A root operand: a slot and whether the term complements it.
  struct Operand {
    uint32_t slot;
    bool negated;
  };

  // Adds `e`, complemented when `negated`, to the root: as terms when its
  // shape allows, otherwise to the deeper constituents.
  void CompileRoot(const ExprPtr& e, bool negated) {
    const std::vector<ExprPtr>& ch = e->children;
    switch (e->op) {
      case ExprOp::kNot:
        return CompileRoot(ch[0], !negated);
      case ExprOp::kOr:
      case ExprOp::kAnd:
        // x | y | ... and ~(x & y & ...) = ~x | ~y | ...: each child is a
        // union member of its own.
        if ((e->op == ExprOp::kOr) == negated) break;
        for (const ExprPtr& c : ch) CompileRoot(c, negated);
        return;
      default:
        break;
    }
    Operand a{}, b{};
    if (e->op != ExprOp::kLeaf && e->op != ExprOp::kConst) {
      // x & y, ~(x | y) = ~x & ~y, or x ^ y over two operands.
      if (ch.size() != 2 || !AsOperand(ch[0], &a) || !AsOperand(ch[1], &b)) {
        deep_.emplace_back(&e, negated);
        return;
      }
      if (e->op == ExprOp::kXor) {
        AddTerm((a.negated != b.negated) != negated ? TermKind::kXnor
                                                    : TermKind::kXor,
                a.slot, b.slot);
        return;
      }
      a.negated = a.negated != negated;
      b.negated = b.negated != negated;
      if (a.negated && !b.negated) std::swap(a, b);
      TermKind kind = TermKind::kNor;
      if (!a.negated) kind = b.negated ? TermKind::kAndNot : TermKind::kAnd;
      AddTerm(kind, a.slot, b.slot);
      return;
    }
    AsOperand(e, &a);
    AddTerm(a.negated != negated ? TermKind::kNotA : TermKind::kA, a.slot);
  }

  // A leaf, a constant or a complement of one, as a root operand.
  bool AsOperand(const ExprPtr& e, Operand* out) {
    switch (e->op) {
      case ExprOp::kLeaf:
        *out = {LeafSlot(e->leaf), false};
        return true;
      case ExprOp::kConst:
        *out = {e->const_value ? 1u : 0u, false};  // the constant slots
        return true;
      case ExprOp::kNot:
        if (!AsOperand(e->children[0], out)) return false;
        out->negated = !out->negated;
        return true;
      default:
        return false;
    }
  }

  void AddTerm(TermKind kind, uint32_t a, uint32_t b = 0) {
    specs_.push_back(TermSpec{kind, a, b});
  }

  // Leaves `e`'s value on top of the stack.
  void Compile(const ExprPtr& e) {
    switch (e->op) {
      case ExprOp::kLeaf:
        return Push(LeafSlot(e->leaf));
      case ExprOp::kConst:
        return Push(e->const_value ? 1 : 0);  // the constant slots
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
  // k-ary fold read straight from their blocks. Under AND a complemented
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
    if (k == 0) Push(0);  // the empty union: the zero block
    if (k >= 2) Emit(fold, static_cast<uint32_t>(k));
    for (const ExprPtr* c : negated) {
      Compile((*c)->children[0]);
      Emit(Code::kAndNot, 2);
    }
  }

  // Pushes an operand slot's block.
  void Push(uint32_t slot) {
    code_.push_back(Instr{Code::kOperand, slot});
    max_depth_ = std::max(max_depth_, ++depth_);
  }

  // An operator pops `arity` values and leaves its result in the scratch
  // block of the slot it lands in.
  void Emit(Code code, uint32_t arity) {
    code_.push_back(Instr{code, arity});
    depth_ -= arity - 1;
    scratch_blocks_ = std::max(scratch_blocks_, depth_);
  }

  // Runs the deeper constituents' program over one block and returns its
  // value's block.
  const uint64_t* RunStack(size_t len) {
    size_t sp = 0;
    for (const Instr& in : code_) {
      switch (in.code) {
        case Code::kOperand:
          stack_[sp++] = blocks_[in.arg];
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
          sp -= in.arg;
          uint64_t* dst = Scratch(sp);
          const auto fold = in.code == Code::kAnd  ? ops_.and_many
                            : in.code == Code::kOr ? ops_.or_many
                                                   : ops_.xor_many;
          fold(stack_.data() + sp, in.arg, dst, len);
          stack_[sp++] = dst;
          break;
        }
      }
    }
    return stack_[0];
  }

  uint32_t NewSlot(const uint64_t* block) {
    blocks_.push_back(block);
    return static_cast<uint32_t>(blocks_.size() - 1);
  }

  // The leaf's slot, fetching it on first sight.
  uint32_t LeafSlot(BitmapKey key) {
    const auto [it, fresh] = leaf_slot_.try_emplace(
        key.Packed(), static_cast<uint32_t>(blocks_.size()));
    if (!fresh) return it->second;
    DecodedBitmap d = fetch_(key);
    BIX_CHECK(d.valid());
    BIX_CHECK_MSG(d.bits() == row_count_, "leaf bitmap size mismatch");
    Leaf leaf;
    if (d.is_roaring()) {
      leaf.reader = RoaringBitmap::BlockReader(d.roaring());
    } else {
      leaf.words = d.plain()->words().data();
    }
    leaf.slot = NewSlot(nullptr);
    leaves_.push_back(leaf);
    held_.push_back(std::move(d));  // the leaf lives as long as the program
    return it->second;
  }

  uint64_t* Scratch(size_t slot) {
    return scratch_.data() + slot * kBlockWords;
  }

  uint64_t row_count_;
  const DecodedLeafFetcher& fetch_;
  const kernels::Ops& ops_;
  // The root.
  std::vector<TermSpec> specs_;
  std::vector<kernels::Term> terms_;
  const uint64_t* exclude_ = nullptr;
  // Operand blocks by slot: the zero and ones blocks (slots 0 and 1, read
  // at every block offset), then the leaves' (refreshed every run) and the
  // deeper program's value.
  std::vector<const uint64_t*> blocks_;
  std::vector<Leaf> leaves_;
  std::unordered_map<uint64_t, uint32_t> leaf_slot_;  // by packed key
  std::vector<DecodedBitmap> held_;
  uint32_t deep_slot_ = 0;
  // The deeper constituents (complemented when .second) and their program.
  std::vector<std::pair<const ExprPtr*, bool>> deep_;
  std::vector<Instr> code_;
  size_t depth_ = 0;
  size_t max_depth_ = 0;
  size_t scratch_blocks_ = 0;
  // Run-time state, reused by every block.
  std::vector<const uint64_t*> stack_;
  std::vector<uint64_t> scratch_;
};

}  // namespace

uint64_t EvaluateUnionBlocked(const std::vector<ExprPtr>& constituents,
                              uint64_t row_count,
                              const DecodedLeafFetcher& fetch, Bitvector* rows,
                              TraceSink* trace, const Bitvector* exclude) {
  TraceScope kernel(trace, "kernel");
  if (trace != nullptr) {
    trace->Tag("constituents", static_cast<uint64_t>(constituents.size()));
  }
  if (rows == nullptr && exclude == nullptr && constituents.size() == 1 &&
      constituents[0]->op == ExprOp::kLeaf) {
    const DecodedBitmap leaf = fetch(constituents[0]->leaf);
    BIX_CHECK(leaf.valid());
    BIX_CHECK_MSG(leaf.bits() == row_count, "leaf bitmap size mismatch");
    return leaf.Count();
  }
  UnionProgram program(constituents, row_count, fetch, exclude);
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
    uint64_t* dst = nullptr;
    if (rows != nullptr) {
      // The answer grows a block at a time, so the block it is stored into
      // is still in L1 from its value-initialization.
      words.resize(base + len);
      dst = words.data() + base;
    }
    count += program.Run(base, len, base + len == n ? tail_mask : ~uint64_t{0},
                         dst);
  }
  if (rows != nullptr) {
    words.resize(Bitvector::WordCount(result_bits), 0);
    *rows = Bitvector::FromWords(result_bits, std::move(words));
  }
  return count;
}

}  // namespace bix
