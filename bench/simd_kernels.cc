// Per-tier kernel throughput: every word kernel measured under each tier
// this CPU can run — scalar, AVX2, AVX-512 — at the paper-scale 6M-row bitmap size, reported as GB/s and
// bytes/cycle. This is the step-function evidence for the vectorized tier
// and the source of the BENCH_simd.json CI artifact: the smoke gate fails
// if any vector tier loses to scalar on any kernel at this size.
//
//   $ ./simd_kernels [--rows=N] [--quick] [--json=PATH]
//
// Rows default to 6,000,000 (bits per bitmap operand); --quick keeps that
// size but trims repetitions for smoke runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bench_support.h"
#include "bitvector/kernels.h"
#include "util/rng.h"

namespace bix {
namespace {

using kernels::Ops;
using kernels::Tier;

inline uint64_t Cycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return 0;  // bytes_per_cycle reports 0 off x86; GB/s still measured
#endif
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<Tier> SupportedTiers() {
  std::vector<Tier> tiers;
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (kernels::OpsForTier(t) != nullptr) tiers.push_back(t);
  }
  return tiers;
}

struct KernelPoint {
  std::string kernel;
  Tier tier = Tier::kScalar;
  double gb_per_s = 0.0;
  double bytes_per_cycle = 0.0;
  double speedup_vs_scalar = 1.0;
};

struct Buffers {
  std::vector<uint64_t> dst, a, b, c, d, e, f, mask;

  explicit Buffers(size_t n) {
    Rng rng(7);
    const auto fill = [&](std::vector<uint64_t>* v) {
      v->resize(n);
      for (uint64_t& w : *v) w = rng.engine()();
    };
    for (std::vector<uint64_t>* v : {&dst, &a, &b, &c, &d, &e, &f, &mask}) {
      fill(v);
    }
  }
};

// One kernel under one tier: `pass` runs the kernel once over the working
// set, `bytes` is the memory traffic of that pass (reads + writes). The
// reps are split into chunks and the fastest chunk is reported — these
// kernels are deterministic, so the minimum is the least-perturbed
// observation (frequency ramps and scheduler noise only ever add time).
template <typename Pass>
KernelPoint Measure(const std::string& kernel, Tier tier, uint64_t bytes,
                    int reps, Pass pass) {
  constexpr int kChunks = 5;
  const int chunk_reps = std::max(1, reps / kChunks);
  pass();  // warm
  double best_secs = 0.0;
  double best_cycles = 0.0;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t c0 = Cycles();
    for (int r = 0; r < chunk_reps; ++r) pass();
    const uint64_t cycles = Cycles() - c0;
    const double secs = Seconds(t0);
    if (chunk == 0 || secs < best_secs) best_secs = secs;
    if (chunk == 0 || cycles < best_cycles) {
      best_cycles = static_cast<double>(cycles);
    }
  }
  KernelPoint p;
  p.kernel = kernel;
  p.tier = tier;
  const double total = static_cast<double>(bytes) * chunk_reps;
  p.gb_per_s = best_secs > 0.0 ? total / best_secs / 1e9 : 0.0;
  p.bytes_per_cycle = best_cycles > 0 ? total / best_cycles : 0.0;
  return p;
}

void Run(const bench::BenchArgs& args) {
  const size_t n = (args.rows + 63) / 64;  // words per operand
  const uint64_t wb = n * sizeof(uint64_t);
  const int reps = args.quick ? 40 : 200;
  std::printf("SIMD kernel tiers at %llu rows (%zu words/operand), "
              "native tier: %s\n\n",
              static_cast<unsigned long long>(args.rows), n,
              kernels::TierName(kernels::MaxSupportedTier()));

  Buffers buf(n);
  std::vector<KernelPoint> points;
  for (Tier t : SupportedTiers()) {
    const Ops& ops = *kernels::OpsForTier(t);
    uint64_t* dst = buf.dst.data();
    const uint64_t* a = buf.a.data();
    const uint64_t* srcs[4] = {buf.a.data(), buf.b.data(), buf.c.data(),
                               buf.d.data()};
    uint64_t sink = 0;
    const auto add = [&](KernelPoint p) { points.push_back(std::move(p)); };
    // Pairwise: read dst + src, write dst.
    add(Measure("and_words", t, 3 * wb, reps,
                [&] { ops.and_words(dst, a, n); }));
    add(Measure("or_words", t, 3 * wb, reps,
                [&] { ops.or_words(dst, a, n); }));
    add(Measure("xor_words", t, 3 * wb, reps,
                [&] { ops.xor_words(dst, a, n); }));
    add(Measure("andnot_words", t, 3 * wb, reps,
                [&] { ops.andnot_words(dst, a, n); }));
    add(Measure("not_words", t, 2 * wb, reps,
                [&] { ops.not_words(dst, a, n); }));
    // k=4 folds: read 4 operands, write dst.
    add(Measure("and_many_k4", t, 5 * wb, reps,
                [&] { ops.and_many(srcs, 4, dst, n); }));
    add(Measure("or_many_k4", t, 5 * wb, reps,
                [&] { ops.or_many(srcs, 4, dst, n); }));
    add(Measure("xor_many_k4", t, 5 * wb, reps,
                [&] { ops.xor_many(srcs, 4, dst, n); }));
    // Popcounts.
    add(Measure("count", t, wb, reps, [&] { sink += ops.count(a, n); }));
    // The union root's shape on interval encoding: three a & ~b terms and
    // a tombstone mask, stored and counted in the same pass (read 7
    // operands, write dst).
    const uint64_t* blocks[6] = {buf.a.data(), buf.b.data(), buf.c.data(),
                                 buf.d.data(), buf.e.data(), buf.f.data()};
    const kernels::Term terms[3] = {
        {kernels::TermKind::kAndNot, &blocks[0], &blocks[1]},
        {kernels::TermKind::kAndNot, &blocks[2], &blocks[3]},
        {kernels::TermKind::kAndNot, &blocks[4], &blocks[5]}};
    add(Measure("or_terms", t, 8 * wb, reps, [&] {
      sink += ops.or_terms(terms, 3, buf.mask.data(), ~uint64_t{0}, dst, n);
    }));
  }

  // Speedups vs the scalar row of the same kernel.
  for (KernelPoint& p : points) {
    if (p.tier == Tier::kScalar) continue;
    for (const KernelPoint& s : points) {
      if (s.tier == Tier::kScalar && s.kernel == p.kernel &&
          s.gb_per_s > 0.0) {
        p.speedup_vs_scalar = p.gb_per_s / s.gb_per_s;
      }
    }
  }

  bench::TablePrinter table(
      {"kernel", "tier", "GB/s", "bytes/cycle", "vs scalar"});
  for (const KernelPoint& p : points) {
    table.AddRow({p.kernel, kernels::TierName(p.tier),
                  bench::FormatDouble(p.gb_per_s, 1),
                  bench::FormatDouble(p.bytes_per_cycle, 2),
                  p.tier == Tier::kScalar
                      ? "1.00"
                      : bench::FormatDouble(p.speedup_vs_scalar, 2)});
  }
  table.Print();
  std::printf("\nExpected: every vector tier at or above scalar on every\n"
              "kernel (the CI gate enforces this); the largest steps on\n"
              "count/or_terms (nibble-LUT popcount vs word popcount) and\n"
              "the k-ary folds (register accumulator vs blocked passes).\n");

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"simd_kernels\",\n  \"rows\": %llu,\n"
                 "  \"native_tier\": \"%s\",\n  \"series\": [\n",
                 static_cast<unsigned long long>(args.rows),
                 kernels::TierName(kernels::MaxSupportedTier()));
    for (size_t i = 0; i < points.size(); ++i) {
      const KernelPoint& p = points[i];
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"tier\": \"%s\", "
                   "\"gb_per_s\": %.2f, \"bytes_per_cycle\": %.3f, "
                   "\"speedup_vs_scalar\": %.3f}%s\n",
                   p.kernel.c_str(), kernels::TierName(p.tier), p.gb_per_s,
                   p.bytes_per_cycle, p.speedup_vs_scalar,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu series points)\n", args.json_path.c_str(),
                points.size());
  }
}

}  // namespace
}  // namespace bix

int main(int argc, char** argv) {
  // Default to the 6M-row operand size the acceptance gate measures;
  // --rows still overrides, --quick trims reps but keeps the size.
  bool rows_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) rows_given = true;
  }
  bix::bench::BenchArgs args = bix::bench::BenchArgs::Parse(argc, argv);
  if (!rows_given) args.rows = 6'000'000;
  bix::Run(args);
  return 0;
}
