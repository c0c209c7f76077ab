// Microbenchmarks for end-to-end query evaluation (real CPU time, no
// simulated I/O): rewrite + fetch + bitmap operations per encoding scheme
// over a 1M-row in-memory index. The BM_CachedMembershipPerTier rows pin
// the kernel tier (scalar / avx2 / avx512) and report bytes_per_cycle over
// the leaf bitmap bytes each query touches, making the SIMD step visible
// at the query level, not just in the raw kernels. BM_CachedMergedMembership
// times a writable index's merged read over a standing overlay, and
// BM_CachedMembershipRoaring the warmed path over Roaring-stored leaves.

#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "bitvector/kernels.h"
#include "index/delta_store.h"
#include "query/executor.h"
#include "storage/bitmap_cache.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/trace.h"
#include "workload/column_gen.h"

namespace bix {
namespace {

struct Fixture {
  Column col;
  std::vector<std::unique_ptr<BitmapIndex>> indexes;  // by EncodingKind
  // The same column and encodings, every bitmap stored as Roaring.
  std::vector<std::unique_ptr<BitmapIndex>> roaring_indexes;

  static Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture;
      fx->col = GenerateZipfColumn(
          {.rows = 1'000'000, .cardinality = 50, .zipf_z = 1.0, .seed = 42});
      for (size_t i = 0; i < AllEncodingKinds().size(); ++i) {
        fx->indexes.push_back(std::make_unique<BitmapIndex>(
            BitmapIndex::Build(fx->col, Decomposition::SingleComponent(50),
                               AllEncodingKinds()[i], false)));
        fx->roaring_indexes.push_back(std::make_unique<BitmapIndex>(
            BitmapIndex::Build(fx->col, Decomposition::SingleComponent(50),
                               AllEncodingKinds()[i], StorageCodec::kRoaring)));
      }
      return fx;
    }();
    return *f;
  }
};

// Reports bitmap bytes copied per iteration via the global copy-stat
// tripwire — the zero-copy pipeline's headline number. Call right before
// the timed loop and again after it.
class CopyCounter {
 public:
  explicit CopyCounter(benchmark::State& state) : state_(state) {
    BitvectorCopyStats::Reset();
  }
  ~CopyCounter() {
    state_.counters["copy_bytes_per_query"] = benchmark::Counter(
        static_cast<double>(BitvectorCopyStats::bytes()) /
        static_cast<double>(state_.iterations() ? state_.iterations() : 1));
    state_.counters["copies_per_query"] = benchmark::Counter(
        static_cast<double>(BitvectorCopyStats::copies()) /
        static_cast<double>(state_.iterations() ? state_.iterations() : 1));
  }

 private:
  benchmark::State& state_;
};

void BM_IntervalQuery(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  BitmapIndex& index = *fx.indexes[state.range(0)];
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;  // measure CPU, not the cost model
  QueryExecutor exec(&index, opts);
  uint32_t lo = 10;
  CopyCounter copies(state);
  for (auto _ : state) {
    Bitvector r = exec.EvaluateInterval({lo, lo + 17});
    benchmark::DoNotOptimize(r);
    lo = (lo + 7) % 30;
  }
  state.SetLabel(EncodingKindName(AllEncodingKinds()[state.range(0)]));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntervalQuery)->DenseRange(0, 6);

void BM_MembershipQuery(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  BitmapIndex& index = *fx.indexes[state.range(0)];
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts);
  const std::vector<uint32_t> values = {6, 19, 20, 21, 22, 35};
  CopyCounter copies(state);
  for (auto _ : state) {
    Bitvector r = exec.EvaluateMembership(values);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(EncodingKindName(AllEncodingKinds()[state.range(0)]));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MembershipQuery)->DenseRange(0, 6);

// The serving path's steady state: all leaves resident in the shared
// decoded cache, component-wise evaluation over borrowed handles. This is
// the configuration the zero-copy rewrite targets — copy_bytes_per_query
// reports 0 on the equality path and stays flat as k grows.
void BM_CachedMembership(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  BitmapIndex& index = *fx.indexes[state.range(0)];
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 8);
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  const std::vector<uint32_t> values = {6, 19, 20, 21, 22, 35};
  auto exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm the cache
  CopyCounter copies(state);
  for (auto _ : state) {
    Bitvector r = exec.TryEvaluateRewritten(exprs).value();
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(EncodingKindName(AllEncodingKinds()[state.range(0)]));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedMembership)->DenseRange(0, 6);

// COUNT(*) without materializing the result bitmap.
void BM_CachedMembershipCount(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  BitmapIndex& index = *fx.indexes[state.range(0)];
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 8);
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  const std::vector<uint32_t> values = {6, 19, 20, 21, 22, 35};
  auto exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm the cache
  CopyCounter copies(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.TryEvaluateCountRewritten(exprs).value());
  }
  state.SetLabel(EncodingKindName(AllEncodingKinds()[state.range(0)]));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedMembershipCount)->DenseRange(0, 6);

// BM_CachedMembership and BM_CachedMembershipCount over Roaring-stored
// leaves: the shared cache keeps them in container form, and the union
// program reads each container one block at a time. range(1) = 1 counts
// only; range(2) = 1 asks for the single value 6 instead of the six-value
// set (one stored leaf under equality encoding, two under the others).
void BM_CachedMembershipRoaring(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  BitmapIndex& index = *fx.roaring_indexes[state.range(0)];
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 8);
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  const bool count_only = state.range(1) != 0;
  const bool single = state.range(2) != 0;
  const std::vector<uint32_t> values =
      single ? std::vector<uint32_t>{6}
             : std::vector<uint32_t>{6, 19, 20, 21, 22, 35};
  auto exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm the cache
  CopyCounter copies(state);
  for (auto _ : state) {
    if (count_only) {
      benchmark::DoNotOptimize(exec.TryEvaluateCountRewritten(exprs).value());
    } else {
      Bitvector r = exec.TryEvaluateRewritten(exprs).value();
      benchmark::DoNotOptimize(r);
    }
  }
  std::string label = EncodingKindName(AllEncodingKinds()[state.range(0)]);
  label += single ? "/{6}" : "/{6,19-22,35}";
  label += count_only ? "/count" : "/bitmap";
  state.SetLabel(label);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedMembershipRoaring)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 6, 1), {0, 1}, {0, 1}});

// A merged read over a writable index's overlay, shaped like the served
// mixed read/write workload between two compactions: 2,500 tombstones
// carried from earlier folds, then 250 batches of 4 inserts, 2 updates and
// 2 deletes — 1,000 appended rows, about 500 overrides, about 3,000 dead
// rows. range(0) = 0 returns the bitmap (with its count), 1 counts only.
// Interval encoding, leaves resident in the shared decoded cache.
void BM_CachedMergedMembership(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  size_t enc = 0;
  while (AllEncodingKinds()[enc] != EncodingKind::kInterval) ++enc;
  BitmapIndex& index = *fx.indexes[enc];
  const uint64_t base_rows = fx.col.row_count();
  Rng rng(7);
  std::vector<uint64_t> carried;
  for (int i = 0; i < 2500; ++i) {
    carried.push_back(rng.UniformInt(0, base_rows - 1));
  }
  std::shared_ptr<const DeltaSnapshot> delta =
      DeltaSnapshot::Base(base_rows, carried);
  for (uint64_t seq = 1; seq <= 250; ++seq) {
    UpdateBatch batch;
    batch.seq = seq;
    batch.first_rid = delta->total_rows();
    for (int i = 0; i < 4; ++i) {
      batch.inserts.push_back(static_cast<uint32_t>(rng.UniformInt(0, 49)));
    }
    const uint64_t rows = batch.first_rid + batch.inserts.size();
    for (int i = 0; i < 2; ++i) {
      const uint64_t rid = rng.UniformInt(0, base_rows - 1);
      batch.updates.push_back(UpdateRecord{
          rid, fx.col.values[rid],
          static_cast<uint32_t>(rng.UniformInt(0, 49))});
    }
    for (int i = 0; i < 2; ++i) {
      batch.deletes.push_back(rng.UniformInt(0, rows - 1));
    }
    batch.SortByRid();
    delta = delta->Apply(batch);
  }
  const DeltaView view = delta->View();
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 8);
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  const std::vector<uint32_t> values = {6, 19, 20, 21, 22, 35};
  const ValueSet pred = ValueSet::Members(values);
  auto exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm the cache
  const bool count_only = state.range(0) != 0;
  CopyCounter copies(state);
  for (auto _ : state) {
    if (count_only) {
      benchmark::DoNotOptimize(
          exec.TryEvaluateCountRewritten(exprs, nullptr, &view, &pred)
              .value());
    } else {
      uint64_t count = 0;
      Bitvector r =
          exec.TryEvaluateRewrittenMerged(exprs, view, pred, nullptr, &count)
              .value();
      benchmark::DoNotOptimize(r);
      benchmark::DoNotOptimize(count);
    }
  }
  state.SetLabel(count_only ? "I/count" : "I/bitmap");
  state.counters["overlay_ops"] = benchmark::Counter(
      static_cast<double>(delta->ops()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedMergedMembership)->Arg(0)->Arg(1);

// Tracing overhead guard: the warm-cache membership query with a per-query
// span tree built (range(1)=1) vs the plain path (range(1)=0). The two
// rows bound what WithTrace() costs on a query whose work is pure CPU —
// the acceptance budget is <2% on the untraced row vs BM_CachedMembership.
void BM_CachedMembershipTracing(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  BitmapIndex& index = *fx.indexes[state.range(0)];
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 8);
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  const std::vector<uint32_t> values = {6, 19, 20, 21, 22, 35};
  auto exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm the cache
  const bool traced = state.range(1) != 0;
  for (auto _ : state) {
    std::optional<TraceSink> sink;
    if (traced) {
      sink.emplace(RealClock::Get(), "query");
      exec.SetTraceSink(&*sink);
    }
    Bitvector r = exec.TryEvaluateRewritten(exprs).value();
    benchmark::DoNotOptimize(r);
    if (traced) {
      exec.SetTraceSink(nullptr);
      TraceSpan root = sink->Finish();
      benchmark::DoNotOptimize(root);
    }
  }
  state.SetLabel(std::string(EncodingKindName(AllEncodingKinds()[
                     state.range(0)])) +
                 (traced ? "/traced" : "/untraced"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedMembershipTracing)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 6, 1), {0, 1}});

void BM_RewriteOnly(benchmark::State& state) {
  Fixture& fx = Fixture::Get();
  BitmapIndex& index = *fx.indexes[state.range(0)];
  QueryExecutor exec(&index, {});
  const std::vector<uint32_t> values = {6, 19, 20, 21, 22, 35};
  for (auto _ : state) {
    auto exprs = exec.RewriteMembership(values);
    benchmark::DoNotOptimize(exprs);
  }
  state.SetLabel(EncodingKindName(AllEncodingKinds()[state.range(0)]));
}
BENCHMARK(BM_RewriteOnly)->DenseRange(0, 6);

void BM_IndexBuild(benchmark::State& state) {
  Column col = GenerateZipfColumn(
      {.rows = 100'000, .cardinality = 50, .zipf_z = 1.0, .seed = 1});
  const EncodingKind enc = AllEncodingKinds()[state.range(0)];
  for (auto _ : state) {
    BitmapIndex index = BitmapIndex::Build(
        col, Decomposition::SingleComponent(50), enc, false);
    benchmark::DoNotOptimize(index);
  }
  state.SetLabel(EncodingKindName(enc));
  state.SetItemsProcessed(state.iterations() * col.row_count());
}
BENCHMARK(BM_IndexBuild)->DenseRange(0, 6);

// Warm-cache membership evaluation with the kernel tier pinned: one row
// per (encoding, tier). bytes_per_cycle is computed over the distinct leaf
// bitmap bytes a query reads — the traffic the kernels actually move — so
// rows are comparable across tiers and encodings.
void BM_CachedMembershipPerTier(benchmark::State& state, size_t enc_index,
                                kernels::Tier tier) {
  Fixture& fx = Fixture::Get();
  BitmapIndex& index = *fx.indexes[enc_index];
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 8);
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  const std::vector<uint32_t> values = {6, 19, 20, 21, 22, 35};
  auto exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm the cache
  uint64_t leaves = 0;
  for (const ExprPtr& e : exprs) leaves += CountDistinctLeaves(e);
  const uint64_t bytes_per_query = leaves * (fx.col.row_count() / 8);
  const kernels::Tier saved = kernels::ActiveTier();
  kernels::SetActiveTier(tier);
#if defined(__x86_64__) || defined(__i386__)
  const uint64_t c0 = __rdtsc();
#else
  const uint64_t c0 = 0;
#endif
  for (auto _ : state) {
    Bitvector r = exec.TryEvaluateRewritten(exprs).value();
    benchmark::DoNotOptimize(r);
  }
#if defined(__x86_64__) || defined(__i386__)
  const uint64_t cycles = __rdtsc() - c0;
#else
  const uint64_t cycles = 0;
#endif
  kernels::SetActiveTier(saved);
  state.SetBytesProcessed(state.iterations() * bytes_per_query);
  if (cycles > 0) {
    state.counters["bytes_per_cycle"] = benchmark::Counter(
        static_cast<double>(state.iterations() * bytes_per_query) /
        static_cast<double>(cycles));
  }
  state.SetLabel(std::string(EncodingKindName(AllEncodingKinds()[enc_index])) +
                 "/" + kernels::TierName(tier));
  state.SetItemsProcessed(state.iterations());
}

void RegisterPerTierBenches() {
  for (size_t enc = 0; enc < AllEncodingKinds().size(); ++enc) {
    for (kernels::Tier t : {kernels::Tier::kScalar, kernels::Tier::kAvx2,
                            kernels::Tier::kAvx512}) {
      if (kernels::OpsForTier(t) == nullptr) continue;
      benchmark::RegisterBenchmark(
          (std::string("BM_CachedMembershipPerTier/") +
           EncodingKindName(AllEncodingKinds()[enc]) + "/" +
           kernels::TierName(t))
              .c_str(),
          BM_CachedMembershipPerTier, enc, t);
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
