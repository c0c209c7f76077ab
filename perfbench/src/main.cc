// served_bench: the repository's end-to-end benchmark of served selection
// queries (perfbench/README.md).
//
//   served_bench --workload serve_fit|serve_spill|mixed_rw --seed N
//                --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics over an S-second closed loop;
// --trace 1 runs the traced replay instead and reports per-layer metrics.
// The last stdout line is one JSON object with the metrics of the mode.
// Exits 1 on any wrong answer, 2 on bad arguments.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "traced.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 &&
         !args->workload.empty();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // Fixed allocator thresholds. glibc otherwise moves them with the sizes
  // it has freed so far: a run that never frees a chunk larger than a
  // 1M-row bitmap (125 KB) keeps trimming its thread arenas, and every
  // bitmap request then pays ~140 fresh page faults, about a third of its
  // latency and the most host-sensitive third. A long-running server gets
  // the same effect once it frees one large buffer; here the thresholds
  // are fixed well above the per-request buffers instead.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 8 << 20);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: served_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "served_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("served_bench: workload=%s rows=%llu codec=%s writable=%d "
              "seed=%llu seconds=%.0f trace=%d\n",
              spec->name.c_str(), static_cast<unsigned long long>(spec->rows),
              spec->compressed ? "bbc" : "verbatim", spec->writable ? 1 : 0,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  Clock::time_point t0 = Clock::now();
  const Inputs inputs = MakeInputs(*spec, args.seed);
  std::printf("inputs: %zu pool queries, oracle by naive scan in %.2f s "
              "(untimed)\n",
              inputs.pool.size(), SecondsSince(t0));

  // Set up kSetupRepeats times, each from scratch in a fresh directory;
  // setup_s is the median. The untraced run measures a window of
  // seconds / kSetupRepeats on each stack: one window's cost per op moves
  // by a few percent with the pages its stack happened to get, and a spell
  // of interference from other tenants of the host then spoils only some
  // windows. Memory a torn-down stack freed goes back to the system before
  // the next set-up, so peak RSS is that of one stack.
  const std::string run_dir =
      args.out + "/run-" + std::to_string(static_cast<long long>(getpid()));
  std::filesystem::remove_all(run_dir);
  Tally tally;
  std::vector<double> setup_s;
  std::vector<LoadResult> windows;
  std::vector<double> window_cpu_us;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stack.reset();
    malloc_trim(0);
    t0 = Clock::now();
    stack = StartStack(*spec, inputs, run_dir + "/setup-" + std::to_string(k));
    const LoadResult warm = WarmUp(*stack, inputs);
    setup_s.push_back(SecondsSince(t0));
    tally.Add(warm.tally);
    if (args.trace) continue;

    const uint64_t compactions0 = stack->writable->durability().compactions;
    const ProcessUsage usage0 = ProcessUsage::Now();
    LoadResult window =
        RunClosedLoop(*stack, inputs, spec->writable,
                      args.seed * kSetupRepeats + k,
                      args.seconds / kSetupRepeats, nullptr);
    const ProcessUsage used = ProcessUsage::Now() - usage0;
    tally.Add(window.tally);
    const double ok_ops =
        static_cast<double>(std::max<uint64_t>(window.ok_ops, 1));
    window_cpu_us.push_back(1e6 * used.cpu_s / ok_ops);
    std::printf("window %d: %llu OK ops in %.2f s; process CPU %.2f s "
                "(user %.2f, sys %.2f) = %.1f us and %.3f page faults per "
                "OK op",
                k, static_cast<unsigned long long>(window.ok_ops),
                window.elapsed_s, used.cpu_s, used.user_s,
                used.cpu_s - used.user_s, window_cpu_us.back(),
                static_cast<double>(used.minor_faults) / ok_ops);
    if (spec->writable) {
      std::printf("; %llu compactions",
                  static_cast<unsigned long long>(
                      stack->writable->durability().compactions -
                      compactions0));
      tally.Add(CheckQuiesced(*stack, inputs, args.seed + k));
    }
    std::printf("\n");
    windows.push_back(std::move(window));
  }

  Report report;
  if (!args.trace) {
    uint64_t ok_ops = 0;
    double elapsed_s = 0.0;
    for (const LoadResult& window : windows) {
      ok_ops += window.ok_ops;
      elapsed_s += window.elapsed_s;
    }
    auto per_window = [&windows](Samples LoadResult::*part) {
      std::vector<Samples> out;
      for (const LoadResult& window : windows) out.push_back(window.*part);
      return out;
    };
    std::vector<Samples> writes = per_window(&LoadResult::write);
    if (!spec->writable) {
      const LoadResult probe = RunWriteProbe(*stack, args.seed);
      tally.Add(probe.tally);
      writes = {probe.write};
      std::printf("write probe: %zu durable batches to the %llu-row side "
                  "table in %.2f s, after the read windows\n",
                  probe.write.ms.size(),
                  static_cast<unsigned long long>(kSideTableRows),
                  probe.elapsed_s);
    }
    // Before the report copies the samples around: those copies are the
    // benchmark's, and their size follows the throughput.
    const double rss_mb = PeakRssMb();
    std::printf("windows: %llu OK ops in %.2f s = %.1f ops/s overall\n",
                static_cast<unsigned long long>(ok_ops), elapsed_s,
                static_cast<double>(ok_ops) / elapsed_s);
    report.Add("setup_s", Median(setup_s), "s", setup_s.size(),
               "build + server start + warm-up, median");
    report.Add("cpu_us_per_op", LowerQuartile(window_cpu_us), "us", ok_ops,
               "process CPU (clients + server) per OK op, p25 window");
    report.AddPrinted("ops_per_s", SlicedOpsPerSecond(windows), "ops/s",
                      ok_ops, "OK reads + writes, p90 of time slices");
    report.AddLatency("bitmap", per_window(&LoadResult::bitmap),
                      /*gated=*/true);
    report.AddLatency("count", per_window(&LoadResult::count),
                      /*gated=*/false);
    report.AddLatency("write", writes, /*gated=*/false);
    report.Add("rss_mb", rss_mb, "MB", 1, "peak RSS");
    report.Add("index_mb",
               static_cast<double>(stack->Base()->TotalStoredBytes()) / 1e6,
               "MB", 1, "stored index bytes");
  } else {
    RunTraced(*stack, inputs, *spec, args.seed, args.seconds,
              args.out + "/spans-" + spec->name + "-seed" +
                  std::to_string(args.seed) + ".jsonl",
              &report, &tally);
  }

  const bix::TcpServerStats server = stack->server->stats();
  stack.reset();
  std::filesystem::remove_all(run_dir);

  std::printf("\nattempted %llu, failed %llu, error_frac %.6f\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              tally.attempted == 0 ? 0.0
                                   : static_cast<double>(tally.failed) /
                                         static_cast<double>(tally.attempted));
  for (const auto& [code, n] : tally.failures_by_code) {
    std::printf("  failed %-18s %llu\n", code.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf("server: %llu frames in, %llu responses out, %llu parse "
              "errors, %llu rejected (overload), %llu write batches\n",
              static_cast<unsigned long long>(server.frames_received),
              static_cast<unsigned long long>(server.responses_sent),
              static_cast<unsigned long long>(server.parse_errors),
              static_cast<unsigned long long>(server.rejected_overload),
              static_cast<unsigned long long>(server.write_batches));
  report.PrintTable(args.trace ? "per-layer metrics (traced run)"
                               : "end-to-end metrics (untraced run)");
  const bool correct = tally.mismatches == 0;
  std::printf("%s\n", report.Json(correct, tally).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
