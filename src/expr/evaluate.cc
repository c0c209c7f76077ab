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

// The union of a query's constituents as a postfix program over word
// blocks. Compiled once: each distinct leaf is fetched once and becomes an
// operand that yields one block per run, and every operator becomes one
// kernels::Ops call per block. The stack holds block pointers, so a leaf
// operand is read in place; only a computed value occupies scratch, the
// block owned by its stack slot.
class UnionProgram {
 public:
  UnionProgram(const std::vector<ExprPtr>& constituents, uint64_t row_count,
               const DecodedLeafFetcher& fetch, const Bitvector* exclude)
      : row_count_(row_count), fetch_(fetch), ops_(kernels::Active()) {
    CompileNary(ExprOp::kOr, constituents);
    if (exclude != nullptr) {
      BIX_CHECK_MSG(exclude->size() >= row_count, "exclusion mask too short");
      Leaf mask;
      mask.words = exclude->words().data();
      leaves_.push_back(mask);
      Push(Code::kLeaf, static_cast<uint32_t>(leaves_.size() - 1));
      Emit(Code::kAndNot, 2);
    }
    BIX_CHECK(depth_ == 1);
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

  // Evaluates words [base, base + len), len <= kBlockWords, and returns the
  // finished block: a leaf's own words, a constant block, or scratch.
  // Blocks must be run in increasing order (Roaring leaves read forward).
  const uint64_t* Run(size_t base, size_t len) {
    for (Leaf& leaf : leaves_) {
      leaf.block = leaf.words != nullptr
                       ? leaf.words + base
                       : leaf.reader.Read(base, static_cast<uint32_t>(len),
                                          leaf.scratch);
    }
    size_t sp = 0;
    for (const Instr& in : code_) {
      switch (in.code) {
        case Code::kLeaf:
          stack_[sp++] = leaves_[in.arg].block;
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

 private:
  enum class Code : uint8_t { kLeaf, kConst, kNot, kAndNot, kAnd, kOr, kXor };
  struct Instr {
    Code code;
    uint32_t arg;           // kLeaf: the leaf's index; operators: arity
    const uint64_t* words;  // kConst: the constant block
  };
  // A distinct leaf (or the exclusion mask): plain words read in place, or
  // a Roaring bitmap read one block at a time into its own scratch block.
  struct Leaf {
    const uint64_t* words = nullptr;  // plain; null for Roaring
    RoaringBitmap::BlockReader reader;
    uint64_t* scratch = nullptr;
    const uint64_t* block = nullptr;  // the block being run
  };

  // Leaves `e`'s value on top of the stack.
  void Compile(const ExprPtr& e) {
    switch (e->op) {
      case ExprOp::kLeaf:
        return Push(Code::kLeaf, LeafIndex(e->leaf));
      case ExprOp::kConst:
        return Push(Code::kConst, 0,
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
    if (k == 0) Push(Code::kConst, 0, kZeroBlock.data());  // the empty union
    if (k >= 2) Emit(fold, static_cast<uint32_t>(k));
    for (const ExprPtr* c : negated) {
      Compile((*c)->children[0]);
      Emit(Code::kAndNot, 2);
    }
  }

  void Push(Code code, uint32_t arg, const uint64_t* words = nullptr) {
    code_.push_back(Instr{code, arg, words});
    max_depth_ = std::max(max_depth_, ++depth_);
  }

  // An operator pops `arity` values and leaves its result in the scratch
  // block of the slot it lands in.
  void Emit(Code code, uint32_t arity) {
    code_.push_back(Instr{code, arity, nullptr});
    depth_ -= arity - 1;
    scratch_blocks_ = std::max(scratch_blocks_, depth_);
  }

  // The leaf's operand index, fetching it on first sight.
  uint32_t LeafIndex(BitmapKey key) {
    const auto [it, fresh] = leaf_index_.try_emplace(
        key.Packed(), static_cast<uint32_t>(leaves_.size()));
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
  std::vector<Instr> code_;
  std::vector<Leaf> leaves_;
  std::unordered_map<uint64_t, uint32_t> leaf_index_;  // by packed key
  std::vector<DecodedBitmap> held_;
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
