// Tests for the zero-copy evaluation pipeline: the fused andnot against
// its two-pass spelling, the copy-count tripwires that keep by-value
// bitmap handoffs from silently returning, and bit-identical results
// across the query-wise, component-wise and buffer-aware strategies, every
// storage codec, the exclusion mask, and the bitmap and count-only modes
// of the one blocked union evaluator.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "core/writable_index.h"
#include "expr/evaluate.h"
#include "query/executor.h"
#include "server/query_service.h"
#include "storage/bitmap_cache.h"
#include "util/rng.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace bix {
namespace {

Bitvector MakeRandom(uint64_t bits, double density, Rng* rng) {
  Bitvector bv(bits);
  for (uint64_t i = 0; i < bits; ++i) {
    if (rng->Bernoulli(density)) bv.Set(i);
  }
  return bv;
}

// ------------------------------------------------------- fused andnot --

TEST(FusedKernelTest, AndNotWithMatchesNotThenAnd) {
  Rng rng(99);
  for (uint64_t bits : {1u, 64u, 65u, 777u}) {
    for (int round = 0; round < 20; ++round) {
      Bitvector a = MakeRandom(bits, 0.4, &rng);
      const Bitvector b = MakeRandom(bits, 0.4, &rng);
      Bitvector expected = a;
      expected.AndWith(Bitvector::Not(b));
      a.AndNotWith(b);
      ASSERT_EQ(a, expected) << bits;
      // Trailing padding must stay clear (Not(b) has one-padding internally
      // cleared; AndNotWith must not resurrect it).
      Bitvector all = Bitvector::AllOnes(bits);
      all.AndNotWith(Bitvector(bits));
      ASSERT_EQ(all.Count(), bits);
    }
  }
}

// ------------------------------------------------------- copy tripwires --

// The evaluator fetches each distinct leaf once, by key, and reads its
// handle in place: a leaf referenced repeatedly in one expression is never
// fetched again or copied to be handed out.
TEST(CopyTripwireTest, RepeatedLeafIsFetchedOnceAndNeverCopied) {
  const uint64_t kRows = 10000;
  Rng rng(5);
  auto b0 = std::make_shared<const Bitvector>(MakeRandom(kRows, 0.3, &rng));
  auto b1 = std::make_shared<const Bitvector>(MakeRandom(kRows, 0.3, &rng));
  auto b2 = std::make_shared<const Bitvector>(MakeRandom(kRows, 0.3, &rng));
  int fetches = 0;
  DecodedLeafFetcher fetch = [&](BitmapKey key) {
    ++fetches;
    switch (key.slot) {
      case 0: return DecodedBitmap::Plain(b0);
      case 1: return DecodedBitmap::Plain(b1);
      default: return DecodedBitmap::Plain(b2);
    }
  };
  // (B0 & B1) | (B0 & B2): B0 appears twice.
  ExprPtr e = ExprOr(ExprAnd(ExprLeaf(1, 0), ExprLeaf(1, 1)),
                     ExprAnd(ExprLeaf(1, 0), ExprLeaf(1, 2)));
  BitvectorCopyStats::Reset();
  Bitvector r;
  EvaluateUnionBlocked({e}, kRows, fetch, &r);
  EXPECT_EQ(fetches, 3);  // B0 fetched once, by key
  // All-leaf n-ary nodes and the OR combine run over borrowed handles and
  // scratch buffers: zero payload copies end to end.
  EXPECT_EQ(BitvectorCopyStats::copies(), 0u);
  // Sanity: the result is right.
  Bitvector expected = Bitvector::And(*b0, *b1);
  expected.OrWith(Bitvector::And(*b0, *b2));
  EXPECT_EQ(r, expected);
}

// The cached component-wise serving path: leaves come out of the shared
// cache as handles and are combined in place — no bitmap payload is copied
// anywhere between the cache and the final result. This is the tripwire
// for the two by-value regressions (executor.cc's per-leaf-reference copy
// of the fetched map entry, and the cache hit path's defensive copy).
TEST(CopyTripwireTest, CachedComponentWiseMembershipCopiesNothing) {
  Column col = GenerateZipfColumn(
      {.rows = 20000, .cardinality = 40, .zipf_z = 1.0, .seed = 11});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(40),
                         EncodingKind::kEquality, false);
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 4);
  ExecutorOptions opts;
  opts.strategy = EvalStrategy::kComponentWise;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  const std::vector<uint32_t> values = {3, 7, 8, 9, 25};
  std::vector<ExprPtr> exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm the cache

  BitvectorCopyStats::Reset();
  Bitvector warm = exec.TryEvaluateRewritten(exprs).value();
  // Equality-encoded membership = OR of borrowed leaf handles into one
  // fresh accumulator: zero copies. Any by-value fetch, memo handout, or
  // per-leaf map copy re-appearing bumps this count by whole bitmaps.
  EXPECT_EQ(BitvectorCopyStats::copies(), 0u);
  EXPECT_EQ(warm, NaiveEvaluateMembership(col, values));

  // Count-only path over the same cached working set: also copy-free.
  BitvectorCopyStats::Reset();
  const uint64_t count = exec.TryEvaluateCountRewritten(exprs).value();
  EXPECT_EQ(BitvectorCopyStats::copies(), 0u);
  EXPECT_EQ(count, warm.Count());
}

// The read-in-place tripwire: once the sharded cache is warm, an AND over
// Roaring-stored bitmaps reads each container one block at a time — bitset
// words in place, array and run containers expanded block by block — and
// performs ZERO full decodes of stored bitmaps (RoaringStats counts every
// whole-bitmap expansion: ToBitvector and the codec Decode path).
TEST(CopyTripwireTest, WarmedRoaringAndPerformsZeroFullDecodes) {
  Column col = GenerateZipfColumn(
      {.rows = 30000, .cardinality = 36, .zipf_z = 1.2, .seed = 13});
  // Two components: each membership value rewrites to an AND of two leaves,
  // so the warmed path exercises a conjunction of Roaring leaves.
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::Make(36, {6, 6}).value(),
                         EncodingKind::kEquality, StorageCodec::kRoaring);
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 4);
  ExecutorOptions opts;
  opts.strategy = EvalStrategy::kComponentWise;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  const std::vector<uint32_t> values = {1, 9, 17, 30};
  std::vector<ExprPtr> exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm: all leaves resident

  RoaringStats::Reset();
  Bitvector warm = exec.TryEvaluateRewritten(exprs).value();
  EXPECT_EQ(RoaringStats::full_decodes(), 0u)
      << "a warmed Roaring AND expanded a whole stored bitmap";
  EXPECT_EQ(warm, NaiveEvaluateMembership(col, values));

  // Count-only over the same warm working set counts block by block —
  // also decode-free.
  RoaringStats::Reset();
  const uint64_t count = exec.TryEvaluateCountRewritten(exprs).value();
  EXPECT_EQ(RoaringStats::full_decodes(), 0u);
  EXPECT_EQ(count, warm.Count());
}

// ------------------------------------- cross-path bit-identical results --

// Every evaluation path against the naive scan, bitmap and count-only: the
// three strategies over a cold private pool, and the component-wise
// strategy over a warmed shared cache (the service's configuration), which
// must copy no bitmap bytes. The strategies differ only in what they fetch
// and when; every one combines its leaves in one blocked union run.
void ExpectAllPathsMatchNaive(const Column& col, const BitmapIndex& index,
                              const std::vector<uint32_t>& values,
                              const std::string& label) {
  SCOPED_TRACE(label);
  const Bitvector expected = NaiveEvaluateMembership(col, values);
  for (EvalStrategy strategy :
       {EvalStrategy::kQueryWise, EvalStrategy::kComponentWise,
        EvalStrategy::kBufferAware}) {
    ExecutorOptions opts;
    opts.strategy = strategy;
    QueryExecutor exec(&index, opts);
    std::vector<ExprPtr> exprs = exec.RewriteMembership(values);
    ASSERT_EQ(exec.TryEvaluateCountRewritten(exprs).value(), expected.Count());
    ASSERT_EQ(exec.TryEvaluateRewritten(exprs).value(), expected);
  }
  ShardedBitmapCache cache(&index.store(), 64ull << 20, 4);
  ExecutorOptions opts;
  opts.cold_pool_per_query = false;
  QueryExecutor exec(&index, opts, &cache);
  std::vector<ExprPtr> exprs = exec.RewriteMembership(values);
  exec.TryEvaluateRewritten(exprs).value();  // warm: all leaves resident
  BitvectorCopyStats::Reset();
  uint64_t count = 0;
  Result<Bitvector> warm = exec.TryEvaluateRewritten(exprs, nullptr, &count);
  const uint64_t count_only = exec.TryEvaluateCountRewritten(exprs).value();
  EXPECT_EQ(BitvectorCopyStats::bytes(), 0u);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.value(), expected);
  ASSERT_EQ(count, expected.Count());
  ASSERT_EQ(count_only, expected.Count());
}

TEST(EvalPathEquivalenceTest, AllStrategiesAndCountAgreeOnSeededWorkload) {
  Column col = GenerateZipfColumn(
      {.rows = 5000, .cardinality = 25, .zipf_z = 1.0, .seed = 77});
  Rng rng(42);
  for (EncodingKind enc : AllEncodingKinds()) {
    for (bool compressed : {false, true}) {
      for (const auto& bases :
           std::vector<std::vector<uint32_t>>{{25}, {5, 5}}) {
        Decomposition d = Decomposition::Make(25, bases).value();
        BitmapIndex index = BitmapIndex::Build(col, d, enc, compressed);
        for (int q = 0; q < 10; ++q) {
          std::vector<uint32_t> values;
          const size_t n = rng.UniformInt(1, 6);
          for (size_t i = 0; i < n; ++i) {
            values.push_back(static_cast<uint32_t>(rng.UniformInt(0, 24)));
          }
          ASSERT_NO_FATAL_FAILURE(
              ExpectAllPathsMatchNaive(col, index, values,
                                       EncodingKindName(enc)));
        }
      }
    }
  }

  // Shapes the blocked union must get right at its edges: row counts that
  // end mid-word, mid-block (256-word blocks) and mid-chunk (Roaring's
  // 1024-word chunks), plain and Gray-reordered indexes (the latter turn
  // Roaring chunks into run containers), every storage codec — kAuto mixes
  // plain and Roaring leaves in one query — and membership sets whose
  // rewrite has a constant-true constituent (the whole domain) or a NOT at
  // a constituent's root (a top suffix, or the top value alone), which set
  // bits past the last row.
  std::vector<std::vector<uint32_t>> sets;
  sets.emplace_back();
  for (uint32_t v = 0; v < 25; ++v) sets.back().push_back(v);
  sets.push_back({22, 23, 24});
  sets.push_back({24});
  sets.push_back({0, 12, 24});
  for (int q = 0; q < 2; ++q) {
    sets.emplace_back();
    const size_t n = rng.UniformInt(1, 8);
    for (size_t i = 0; i < n; ++i) {
      sets.back().push_back(static_cast<uint32_t>(rng.UniformInt(0, 24)));
    }
  }
  for (uint64_t rows : {uint64_t{1}, uint64_t{63}, uint64_t{65},
                        uint64_t{16383}, uint64_t{16385}, uint64_t{1000003}}) {
    Column edge = GenerateZipfColumn(
        {.rows = rows, .cardinality = 25, .zipf_z = 1.0, .seed = rows});
    for (EncodingKind enc : AllEncodingKinds()) {
      for (ReorderStrategy reorder :
           {ReorderStrategy::kNone, ReorderStrategy::kGrayCode}) {
        for (StorageCodec codec :
             {StorageCodec::kVerbatim, StorageCodec::kBbc,
              StorageCodec::kRoaring, StorageCodec::kAuto}) {
          IndexConfig config;
          config.encoding = enc;
          config.bases_msb_first = {5, 5};
          config.reorder = reorder;
          config.codec = codec;
          BitmapIndex index = BuildIndex(edge, config).value();
          for (const std::vector<uint32_t>& values : sets) {
            ASSERT_NO_FATAL_FAILURE(ExpectAllPathsMatchNaive(
                edge, index, values,
                std::string(EncodingKindName(enc)) + "/" +
                    StorageCodecName(codec) + " rows=" +
                    std::to_string(rows) +
                    (reorder == ReorderStrategy::kNone ? "" : " gray")));
          }
        }
      }
    }
  }
}

// The exclusion mask rides in the root's kernel call. A mask longer than
// row_count (a writable index's appended rows) that ends mid-word, over
// membership sets whose rewrite has a constant-true constituent (the whole
// domain) or a NOT at a constituent's root (a top suffix, the top value
// alone), for every encoding over one and two components and the
// verbatim, Roaring and mixed codecs: the answer is the naive scan minus
// the mask, the count matches it in both modes, and every bit past
// row_count comes out clear.
TEST(EvalPathEquivalenceTest, ExclusionMaskOverNotRootedAndConstantTerms) {
  constexpr uint32_t kC = 25;
  const uint64_t rows = 16385;            // a second block, one row into it
  const uint64_t mask_bits = rows + 100;  // ends mid-word
  Column col = GenerateZipfColumn(
      {.rows = rows, .cardinality = kC, .zipf_z = 1.0, .seed = 31});
  Rng rng(97);
  Bitvector exclude(mask_bits);
  for (uint64_t i = 0; i < mask_bits; ++i) {
    if (rng.Bernoulli(0.2)) exclude.Set(i);
  }
  std::vector<std::vector<uint32_t>> sets = {{}, {22, 23, 24}, {24},
                                             {0, 12, 24}, {3, 7, 8, 9, 20}};
  for (uint32_t v = 0; v < kC; ++v) sets[0].push_back(v);
  for (EncodingKind enc : AllEncodingKinds()) {
    for (const std::vector<uint32_t>& bases :
         std::vector<std::vector<uint32_t>>{{kC}, {5, 5}}) {
      for (StorageCodec codec : {StorageCodec::kVerbatim,
                                 StorageCodec::kRoaring, StorageCodec::kAuto}) {
        IndexConfig config;
        config.encoding = enc;
        config.bases_msb_first = bases;
        config.codec = codec;
        BitmapIndex index = BuildIndex(col, config).value();
        QueryExecutor exec(&index, ExecutorOptions{});
        const DecodedLeafFetcher fetch = [&index](BitmapKey key) {
          return TryMaterializeBlobResident(index.store().GetBlob(key))
              .value();
        };
        for (const std::vector<uint32_t>& values : sets) {
          SCOPED_TRACE(std::string(EncodingKindName(enc)) + "/" +
                       StorageCodecName(codec) + " components=" +
                       std::to_string(bases.size()) + " values=" +
                       std::to_string(values.size()));
          Bitvector expected = NaiveEvaluateMembership(col, values);
          expected.Resize(mask_bits);
          expected.AndNotWith(exclude);
          const std::vector<ExprPtr> exprs = exec.RewriteMembership(values);
          Bitvector got;
          const uint64_t count =
              EvaluateUnionBlocked(exprs, rows, fetch, &got, nullptr, &exclude);
          ASSERT_EQ(got, expected);
          EXPECT_EQ(count, expected.Count());
          EXPECT_EQ(EvaluateUnionBlocked(exprs, rows, fetch, nullptr, nullptr,
                                         &exclude),
                    expected.Count());
          for (uint64_t i = rows; i < mask_bits; ++i) {
            ASSERT_FALSE(got.Get(i)) << "bit past row_count set: " << i;
          }
        }
      }
    }
  }
}

// ------------------------------------------------- service count-only --

TEST(CountOnlyServiceTest, CountMatchesMaterializedRows) {
  Column col = GenerateZipfColumn(
      {.rows = 8000, .cardinality = 30, .zipf_z = 1.0, .seed = 9});
  BitmapIndex index =
      BitmapIndex::Build(col, Decomposition::SingleComponent(30),
                         EncodingKind::kRange, false);
  ServiceOptions options;
  options.num_workers = 2;
  QueryService service(&index, options);
  const std::vector<uint32_t> values = {2, 11, 12, 13, 28};

  QueryResult full =
      service.Submit(ServiceQuery::Membership(values)).get();
  ASSERT_TRUE(full.status.ok());
  QueryResult count_only =
      service.Submit(ServiceQuery::Membership(values).CountOnly()).get();
  ASSERT_TRUE(count_only.status.ok());

  EXPECT_EQ(full.count, full.rows.Count());
  EXPECT_EQ(count_only.count, full.rows.Count());
  // Count-only never materializes rows for the client.
  EXPECT_EQ(count_only.rows.size(), 0u);
  EXPECT_EQ(full.rows, NaiveEvaluateMembership(col, values));
  service.Shutdown();
}

// Count-only over a writable index whose every read is merged: tombstones
// carried by a compaction, then a fresh overlay of appends (crossing a word
// boundary past the base rows), overrides (one deleted after its update),
// a deleted append and a revived row. Plain and Roaring leaves alike take
// the blocked union with the mask in its pass.
TEST(CountOnlyServiceTest, WritableCountsOverCarriedTombstones) {
  constexpr uint32_t kC = 30;
  // Three union blocks, the last base word holding 62 rows.
  const uint64_t rows = 40958;
  Column col = GenerateZipfColumn(
      {.rows = rows, .cardinality = kC, .zipf_z = 1.0, .seed = 23});
  for (StorageCodec codec : {StorageCodec::kVerbatim, StorageCodec::kRoaring}) {
    const std::string name = StorageCodecName(codec);
    SCOPED_TRACE(name);
    const std::string dir =
        ::testing::TempDir() + "/count_only_writable_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    IndexConfig config;
    config.encoding = EncodingKind::kRange;
    config.bases_msb_first = {5, 6};
    config.codec = codec;
    auto index = WritableBitmapIndex::Create(dir, col, config);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    WritableBitmapIndex& writable = *index.value();

    UpdateBatch deletes;
    deletes.deletes = {0, 3, 17, 16384, rows - 1};
    ASSERT_TRUE(writable.ApplyBatch(deletes).ok());
    ASSERT_TRUE(writable.Compact(nullptr).ok());
    UpdateBatch overlay;
    overlay.inserts = {4, 29, 0, 12, 7};
    overlay.updates = {{10, 0, 7},      // live override
                       {17, 0, 12},     // revives a carried tombstone
                       {16385, 0, 29},  // override in the second block
                       {rows, 0, 1}};   // re-decides an append
    overlay.deletes = {rows + 2, 20,    // an append and a live base row
                       16385};          // an override
    ASSERT_TRUE(writable.ApplyBatch(overlay).ok());

    ServiceOptions options;
    options.num_workers = 1;
    QueryService service(&writable, options);
    Column logical;
    logical.cardinality = kC;
    logical.values = writable.LogicalValues();
    const Bitvector live = writable.LiveMask();
    const std::vector<ServiceQuery> queries = {
        ServiceQuery::Membership({0, 1, 7, 12, 29}),
        ServiceQuery::Membership({4}),
        ServiceQuery::Interval(IntervalQuery{3, 20, false}),
        ServiceQuery::Interval(IntervalQuery{3, 20, true}),
        ServiceQuery::Interval(IntervalQuery{0, kC - 1, false})};
    for (const ServiceQuery& q : queries) {
      Bitvector expected =
          q.kind == ServiceQuery::Kind::kInterval
              ? NaiveEvaluateInterval(logical, q.interval)
              : NaiveEvaluateMembership(logical, q.values);
      expected.AndWith(live);
      QueryResult full = service.Submit(q).get();
      ServiceQuery count_query = q;
      QueryResult count_only = service.Submit(count_query.CountOnly()).get();
      ASSERT_TRUE(full.status.ok()) << full.status.ToString();
      ASSERT_TRUE(count_only.status.ok()) << count_only.status.ToString();
      EXPECT_EQ(full.rows, expected);
      EXPECT_EQ(full.count, full.rows.Count());
      EXPECT_EQ(count_only.count, expected.Count());
      EXPECT_EQ(count_only.count, full.count);
      EXPECT_EQ(count_only.rows.size(), 0u);
    }
    service.Shutdown();
  }
}

}  // namespace
}  // namespace bix
