// Microbenchmarks for the BBC codec: encode/decode throughput across bitmap
// densities (decode speed is the CPU component of compressed-index query
// time in the paper's experiments). Decode times the validating BbcDecode,
// the only BBC decoder.

#include <benchmark/benchmark.h>

#include "compress/bbc.h"
#include "util/rng.h"

namespace bix {
namespace {

Bitvector MakeRandom(uint64_t bits, double density, uint64_t seed) {
  Rng rng(seed);
  Bitvector bv(bits);
  for (uint64_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(density)) bv.Set(i);
  }
  return bv;
}

// density permille as the benchmark argument.
void BM_BbcEncode(benchmark::State& state) {
  const double density = state.range(0) / 1000.0;
  Bitvector bv = MakeRandom(1 << 20, density, 1);
  for (auto _ : state) {
    BbcEncoded enc = BbcEncode(bv);
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(state.iterations() * (bv.size() / 8));
  state.counters["ratio"] =
      static_cast<double>(BbcEncode(bv).data.size()) / (bv.size() / 8);
}
BENCHMARK(BM_BbcEncode)->Arg(1)->Arg(10)->Arg(100)->Arg(500);

void BM_BbcDecode(benchmark::State& state) {
  const double density = state.range(0) / 1000.0;
  Bitvector bv = MakeRandom(1 << 20, density, 1);
  BbcEncoded enc = BbcEncode(bv);
  for (auto _ : state) {
    Bitvector out = BbcDecode(enc).value();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * (bv.size() / 8));
}
BENCHMARK(BM_BbcDecode)->Arg(1)->Arg(10)->Arg(100)->Arg(500);

void BM_BbcEncodeLongRuns(benchmark::State& state) {
  // Range-encoded bitmaps: one long run of ones then zeros.
  Bitvector bv(1 << 20);
  for (uint64_t i = 0; i < (1u << 19); ++i) bv.Set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BbcEncode(bv));
  }
  state.SetBytesProcessed(state.iterations() * (bv.size() / 8));
}
BENCHMARK(BM_BbcEncodeLongRuns);

}  // namespace
}  // namespace bix

BENCHMARK_MAIN();
