// Ablation: verbatim vs BBC (the paper's codec) vs WAH (the codec FastBit
// later standardized) vs Roaring containers, per encoding scheme and skew
// level — all seven encodings through the codec registry. Reports stored
// size and single-thread encode/decode throughput, showing that the
// paper's compressibility ranking (E best, I worst, Figure 6b) is
// codec-independent and where the Roaring tier lands on the frontier.
//
//   $ ./ablation_codecs [--rows=N] [--cardinality=C] [--quick] [--json=PATH]
//
// With --json=PATH, also writes a machine-readable series (the
// BENCH_codecs.json perf-trajectory artifact).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support.h"
#include "compress/codec.h"
#include "core/bitmap_index_facade.h"
#include "index/reorder.h"
#include "workload/column_gen.h"

namespace bix {
namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct CodecPoint {
  double zipf_z = 0.0;
  EncodingKind encoding = EncodingKind::kEquality;
  CodecId codec = CodecId::kVerbatim;
  ReorderStrategy reorder = ReorderStrategy::kNone;
  uint64_t stored_bytes = 0;
  double encode_mb_per_s = 0.0;
  double decode_mb_per_s = 0.0;
};

// kNone first: the unreordered row is the baseline every reordered series
// point is gated against in CI.
std::vector<ReorderStrategy> SweepStrategies() {
  std::vector<ReorderStrategy> all = {ReorderStrategy::kNone};
  all.insert(all.end(), AllReorderStrategies().begin(),
             AllReorderStrategies().end());
  return all;
}

void Run(const bench::BenchArgs& args) {
  const uint32_t c = args.cardinality;
  std::printf("Codec ablation: verbatim vs BBC vs WAH vs Roaring per "
              "encoding (C=%u, rows=%llu)\n\n",
              c, static_cast<unsigned long long>(args.rows));

  std::vector<CodecPoint> points;
  for (double z : args.quick ? std::vector<double>{1.0}
                             : std::vector<double>{0.0, 1.0, 3.0}) {
    Column col = GenerateZipfColumn(
        {.rows = args.rows, .cardinality = c, .zipf_z = z, .seed = args.seed});
    for (ReorderStrategy strategy : SweepStrategies()) {
    std::printf("--- z = %.0f, reorder = %s ---\n", z,
                ReorderStrategyName(strategy));
    const Decomposition d = Decomposition::SingleComponent(c);
    const Column swept = ApplyRowOrder(col, ComputeRowOrder(col, d, strategy));
    bench::TablePrinter table({"encoding", "verbatim(MB)", "bbc(MB)",
                               "wah(MB)", "roaring(MB)", "bbc dec(MB/s)",
                               "wah dec(MB/s)", "roar dec(MB/s)"});
    for (EncodingKind enc : AllEncodingKinds()) {
      BitmapIndex index = BitmapIndex::Build(swept, d, enc, false);
      uint64_t bytes[kNumCodecs] = {};
      double enc_s[kNumCodecs] = {};
      double dec_s[kNumCodecs] = {};
      uint64_t verbatim_bytes = 0;
      const uint32_t slots = GetEncoding(enc).NumBitmaps(c);
      for (uint32_t s = 0; s < slots; ++s) {
        Bitvector bv = index.store().Materialize({1, s});
        verbatim_bytes += bv.byte_size();
        for (int ci = 0; ci < kNumCodecs; ++ci) {
          const CodecInterface& codec = GetCodec(static_cast<CodecId>(ci));
          auto t0 = std::chrono::steady_clock::now();
          const std::vector<uint8_t> encoded = codec.Encode(bv);
          enc_s[ci] += Seconds(t0);
          bytes[ci] += encoded.size();
          t0 = std::chrono::steady_clock::now();
          Bitvector decoded = codec.Decode(encoded, bv.size()).value();
          dec_s[ci] += Seconds(t0);
          BIX_CHECK(decoded == bv);
        }
      }
      const double mb = static_cast<double>(verbatim_bytes) / (1 << 20);
      auto mbs = [&](double s) { return s > 0.0 ? mb / s : 0.0; };
      table.AddRow(
          {EncodingKindName(enc), bench::FormatDouble(mb, 2),
           bench::FormatDouble(static_cast<double>(bytes[1]) / (1 << 20), 2),
           bench::FormatDouble(static_cast<double>(bytes[2]) / (1 << 20), 2),
           bench::FormatDouble(static_cast<double>(bytes[3]) / (1 << 20), 2),
           bench::FormatDouble(mbs(dec_s[1]), 0),
           bench::FormatDouble(mbs(dec_s[2]), 0),
           bench::FormatDouble(mbs(dec_s[3]), 0)});
      for (int ci = 0; ci < kNumCodecs; ++ci) {
        points.push_back({z, enc, static_cast<CodecId>(ci), strategy,
                          bytes[ci], mbs(enc_s[ci]), mbs(dec_s[ci])});
      }
    }
    table.Print();
    std::printf("\n");
    }
  }
  std::printf("Expected: compressed-size ordering E < R < I under every\n"
              "codec; BBC slightly tighter than WAH on sparse bitmaps (byte\n"
              "vs 31-bit granularity); Roaring competitive on space at every\n"
              "skew with by far the fastest decode (containers, not runs).\n"
              "Every reordering strategy shrinks every run-length codec\n"
              "versus reorder=none (equal values become contiguous runs);\n"
              "CI gates BBC/WAH/Roaring on exactly that monotonicity.\n");

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      std::exit(1);
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_codecs\",\n"
                 "  \"rows\": %llu,\n  \"cardinality\": %u,\n"
                 "  \"seed\": %llu,\n  \"series\": [\n",
                 static_cast<unsigned long long>(args.rows), c,
                 static_cast<unsigned long long>(args.seed));
    for (size_t i = 0; i < points.size(); ++i) {
      const CodecPoint& p = points[i];
      std::fprintf(
          f,
          "    {\"zipf_z\": %.1f, \"encoding\": \"%s\", \"codec\": \"%s\", "
          "\"reorder\": \"%s\", "
          "\"stored_bytes\": %llu, \"encode_mb_per_s\": %.1f, "
          "\"decode_mb_per_s\": %.1f}%s\n",
          p.zipf_z, EncodingKindName(p.encoding), CodecName(p.codec),
          ReorderStrategyName(p.reorder),
          static_cast<unsigned long long>(p.stored_bytes), p.encode_mb_per_s,
          p.decode_mb_per_s, i + 1 < points.size() ? "," : "");
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
  bix::bench::BenchArgs args = bix::bench::BenchArgs::Parse(argc, argv);
  if (args.quick) args.rows = std::min<uint64_t>(args.rows, 200'000);
  bix::Run(args);
  return 0;
}
