// Microbenchmarks for the bit-vector substrate: the word-level operations
// that dominate query CPU time. The BM_*PerTier rows pin the kernel tier
// (scalar / avx2 / avx512) for the run and report a bytes_per_cycle
// counter alongside google-benchmark's GB/s, so tiers are comparable in
// one report; the unsuffixed rows run whatever tier dispatch selected.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bitvector/bitvector.h"
#include "bitvector/kernels.h"
#include "util/rng.h"

namespace bix {
namespace {

inline uint64_t Cycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return 0;
#endif
}

// Pins a kernel tier for one benchmark run and publishes bytes/cycle from
// an rdtsc reading across the timed loop.
class TierScope {
 public:
  TierScope(benchmark::State& state, kernels::Tier tier)
      : state_(state), saved_(kernels::ActiveTier()) {
    kernels::SetActiveTier(tier);
    start_cycles_ = Cycles();
  }
  ~TierScope() {
    const uint64_t cycles = Cycles() - start_cycles_;
    kernels::SetActiveTier(saved_);
    if (cycles > 0 && state_.bytes_processed() > 0) {
      state_.counters["bytes_per_cycle"] = benchmark::Counter(
          static_cast<double>(state_.bytes_processed()) /
          static_cast<double>(cycles));
    }
  }

 private:
  benchmark::State& state_;
  kernels::Tier saved_;
  uint64_t start_cycles_ = 0;
};

Bitvector MakeRandom(uint64_t bits, double density, uint64_t seed) {
  Rng rng(seed);
  Bitvector bv(bits);
  for (uint64_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(density)) bv.Set(i);
  }
  return bv;
}

void BM_And(benchmark::State& state) {
  const uint64_t bits = state.range(0);
  Bitvector a = MakeRandom(bits, 0.3, 1);
  Bitvector b = MakeRandom(bits, 0.3, 2);
  for (auto _ : state) {
    Bitvector r = a;
    r.AndWith(b);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8) * 2);
}
BENCHMARK(BM_And)->Arg(1 << 16)->Arg(1 << 20)->Arg(6 << 20);

void BM_Or(benchmark::State& state) {
  const uint64_t bits = state.range(0);
  Bitvector a = MakeRandom(bits, 0.3, 1);
  Bitvector b = MakeRandom(bits, 0.3, 2);
  for (auto _ : state) {
    Bitvector r = a;
    r.OrWith(b);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8) * 2);
}
BENCHMARK(BM_Or)->Arg(1 << 20);

void BM_Xor(benchmark::State& state) {
  const uint64_t bits = state.range(0);
  Bitvector a = MakeRandom(bits, 0.3, 1);
  Bitvector b = MakeRandom(bits, 0.3, 2);
  for (auto _ : state) {
    Bitvector r = a;
    r.XorWith(b);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8) * 2);
}
BENCHMARK(BM_Xor)->Arg(1 << 20);

void BM_Not(benchmark::State& state) {
  const uint64_t bits = state.range(0);
  Bitvector a = MakeRandom(bits, 0.3, 1);
  for (auto _ : state) {
    Bitvector r = a;
    r.NotSelf();
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8));
}
BENCHMARK(BM_Not)->Arg(1 << 20);

void BM_Count(benchmark::State& state) {
  Bitvector a = MakeRandom(state.range(0), 0.5, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
  state.SetBytesProcessed(state.iterations() * (state.range(0) / 8));
}
BENCHMARK(BM_Count)->Arg(1 << 20);

// a AND NOT b: the two-pass Not-then-And vs the fused single pass.
void BM_AndNotNaive(benchmark::State& state) {
  const uint64_t bits = state.range(0);
  Bitvector a = MakeRandom(bits, 0.5, 1);
  Bitvector b = MakeRandom(bits, 0.5, 2);
  for (auto _ : state) {
    Bitvector nb = b;
    nb.NotSelf();
    Bitvector r = a;
    r.AndWith(nb);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8) * 2);
}
BENCHMARK(BM_AndNotNaive)->Arg(1 << 20);

void BM_AndNotFused(benchmark::State& state) {
  const uint64_t bits = state.range(0);
  Bitvector a = MakeRandom(bits, 0.5, 1);
  Bitvector b = MakeRandom(bits, 0.5, 2);
  for (auto _ : state) {
    Bitvector r = a;
    r.AndNotWith(b);
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8) * 2);
}
BENCHMARK(BM_AndNotFused)->Arg(1 << 20);

void BM_SetBits(benchmark::State& state) {
  const uint64_t bits = 1 << 20;
  Rng rng(3);
  std::vector<uint64_t> positions(10000);
  for (auto& p : positions) p = rng.UniformInt(0, bits - 1);
  for (auto _ : state) {
    Bitvector bv(bits);
    for (uint64_t p : positions) bv.Set(p);
    benchmark::DoNotOptimize(bv);
  }
  state.SetItemsProcessed(state.iterations() * positions.size());
}
BENCHMARK(BM_SetBits);

void BM_ForEachSetBit(benchmark::State& state) {
  Bitvector a = MakeRandom(1 << 20, 0.01, 1);
  for (auto _ : state) {
    uint64_t sum = 0;
    a.ForEachSetBit([&sum](uint64_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ForEachSetBit);

// --- Per-tier rows: the same hot kernels with the tier pinned, one row
// per tier this CPU supports, each reporting bytes_per_cycle. ---

void BM_AndPerTier(benchmark::State& state, kernels::Tier tier) {
  const uint64_t bits = 6'000'000;
  Bitvector a = MakeRandom(bits, 0.3, 1);
  const Bitvector b = MakeRandom(bits, 0.3, 2);
  TierScope scope(state, tier);
  for (auto _ : state) {
    a.AndWith(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8) * 2);
}

void BM_CountPerTier(benchmark::State& state, kernels::Tier tier) {
  const uint64_t bits = 6'000'000;
  const Bitvector a = MakeRandom(bits, 0.5, 1);
  TierScope scope(state, tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
  state.SetBytesProcessed(state.iterations() * (bits / 8));
}

void RegisterPerTierBenches() {
  using Fn = void (*)(benchmark::State&, kernels::Tier);
  const std::pair<const char*, Fn> benches[] = {
      {"BM_AndPerTier", BM_AndPerTier},
      {"BM_CountPerTier", BM_CountPerTier},
  };
  for (const auto& [name, fn] : benches) {
    for (kernels::Tier t : {kernels::Tier::kScalar, kernels::Tier::kAvx2,
                            kernels::Tier::kAvx512}) {
      if (kernels::OpsForTier(t) == nullptr) continue;
      benchmark::RegisterBenchmark(
          (std::string(name) + "/" + kernels::TierName(t)).c_str(), fn, t);
    }
  }
}

}  // namespace
}  // namespace bix

int main(int argc, char** argv) {
  bix::RegisterPerTierBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
