// Quickstart: build an interval-encoded bitmap index over a synthetic
// column and answer selection queries, reproducing the paper's worked
// example (Figures 1, 4, 5) along the way.
//
//   $ ./quickstart

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/bitmap_index_facade.h"
#include "core/index_io.h"
#include "query/interval_rewrite.h"
#include "workload/column_gen.h"
#include "workload/scan_baseline.h"

namespace {

void PrintIndexMatrix(const bix::BitmapIndex& index, const bix::Column& col) {
  // Print the bit matrix column-wise like the paper's Figure 5(c):
  // highest slot on the left.
  const uint32_t slots = static_cast<uint32_t>(index.BitmapCount());
  std::printf("   value  ");
  for (uint32_t s = slots; s-- > 0;) std::printf("I^%u ", s);
  std::printf("\n");
  std::vector<bix::Bitvector> bitmaps;
  for (uint32_t s = 0; s < slots; ++s) {
    bitmaps.push_back(index.store().Materialize({1, s}));
  }
  for (uint64_t r = 0; r < col.row_count(); ++r) {
    std::printf("%4llu  %3u   ", static_cast<unsigned long long>(r + 1),
                col.values[r]);
    for (uint32_t s = slots; s-- > 0;) {
      std::printf("%d   ", bitmaps[s].Get(r) ? 1 : 0);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // --- The paper's 12-record example, C = 10 (Figure 1a) -------------------
  bix::Column example = bix::PaperExampleColumn();
  bix::IndexConfig cfg;
  cfg.encoding = bix::EncodingKind::kInterval;
  bix::Result<bix::BitmapIndex> built = bix::BuildIndex(example, cfg);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  bix::BitmapIndex& index = built.value();

  std::printf("Interval-encoded index for the paper's example "
              "(C=10, %llu bitmaps vs %u values):\n",
              static_cast<unsigned long long>(index.BitmapCount()),
              example.cardinality);
  PrintIndexMatrix(index, example);

  // --- Query evaluation -----------------------------------------------------
  bix::QueryExecutor exec(&index, bix::ExecutorOptions{});

  const bix::IntervalQuery q{3, 7};  // "3 <= A <= 7"
  bix::ExprPtr expr = exec.Rewrite(q);
  std::printf("\nQuery 3 <= A <= 7 rewrites to %s (%llu bitmap scans)\n",
              bix::ExprToString(expr).c_str(),
              static_cast<unsigned long long>(bix::CountDistinctLeaves(expr)));

  bix::Bitvector result = exec.EvaluateInterval(q);
  std::printf("matching records:");
  result.ForEachSetBit([](uint64_t r) {
    std::printf(" %llu", static_cast<unsigned long long>(r + 1));
  });
  std::printf("\n");

  if (result != bix::NaiveEvaluateInterval(example, q)) {
    std::fprintf(stderr, "mismatch vs naive scan!\n");
    return 1;
  }

  // --- A larger synthetic column -------------------------------------------
  bix::Column col = bix::GenerateZipfColumn(
      {.rows = 1'000'000, .cardinality = 50, .zipf_z = 1.0, .seed = 42});
  bix::IndexConfig cfg2;
  cfg2.encoding = bix::EncodingKind::kInterval;
  cfg2.bases_msb_first =
      bix::SpaceOptimalBases(50, 2, bix::EncodingKind::kInterval).value();
  bix::BitmapIndex big = bix::BuildIndex(col, cfg2).value();
  bix::QueryExecutor exec2(&big, bix::ExecutorOptions{});

  bix::Bitvector r1 = exec2.EvaluateInterval({10, 20});
  bix::Bitvector r2 = exec2.EvaluateMembership({6, 19, 20, 21, 22, 35});
  const bix::IoStats& io = exec2.stats();
  std::printf(
      "\n1M-row Zipf column, 2-component interval index "
      "(%llu bitmaps, %.2f MB):\n",
      static_cast<unsigned long long>(big.BitmapCount()),
      static_cast<double>(big.TotalStoredBytes()) / (1 << 20));
  std::printf("  [10,20]              -> %llu rows\n",
              static_cast<unsigned long long>(r1.Count()));
  std::printf("  {6,19,20,21,22,35}   -> %llu rows\n",
              static_cast<unsigned long long>(r2.Count()));
  std::printf("  %llu scans, %llu bytes read, %.1f ms simulated I/O, "
              "%.1f ms CPU\n",
              static_cast<unsigned long long>(io.scans),
              static_cast<unsigned long long>(io.bytes_read),
              io.io_seconds * 1e3, io.cpu_seconds * 1e3);

  // --- Persistence ----------------------------------------------------------
  // A per-process file name, so concurrent runs never share the file.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bix_quickstart." + std::to_string(getpid()) + ".bix"))
          .string();
  bix::Status saved = bix::SaveIndex(big, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  bix::Result<bix::BitmapIndex> reloaded = bix::LoadIndex(path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  bix::QueryExecutor exec3(&reloaded.value(), bix::ExecutorOptions{});
  if (exec3.EvaluateInterval({10, 20}) != r1) {
    std::fprintf(stderr, "reloaded index disagrees!\n");
    return 1;
  }
  std::printf("  saved to disk, reloaded, and re-queried consistently\n");
  std::remove(path.c_str());

  std::printf("\nOK\n");
  return 0;
}
