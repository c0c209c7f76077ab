// Workload table, input generation with the naive-scan oracle, failure
// accounting, and start-up of the served stack.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "workload/column_gen.h"
#include "workload/query_gen.h"
#include "workload/scan_baseline.h"

namespace perfbench {
namespace {

const WorkloadSpec kWorkloads[] = {
    {"serve_fit", 1'000'000, /*compressed=*/false, /*writable=*/false},
    {"serve_spill", 6'000'000, /*compressed=*/true, /*writable=*/false},
    {"mixed_rw", 1'000'000, /*compressed=*/false, /*writable=*/true},
};

const char* CodeLabel(bix::Status::Code code) {
  switch (code) {
    case bix::Status::Code::kOk: return "OK";
    case bix::Status::Code::kInvalidArgument: return "InvalidArgument";
    case bix::Status::Code::kOutOfRange: return "OutOfRange";
    case bix::Status::Code::kCorruption: return "Corruption";
    case bix::Status::Code::kNotSupported: return "NotSupported";
    case bix::Status::Code::kUnavailable: return "Unavailable";
    case bix::Status::Code::kDeadlineExceeded: return "DeadlineExceeded";
    case bix::Status::Code::kCancelled: return "Cancelled";
  }
  return "Unknown";
}

[[noreturn]] void SetupFailed(const char* what, const bix::Status& status) {
  std::fprintf(stderr, "served_bench: %s failed: %s\n", what,
               status.ToString().c_str());
  // Service threads may be running; skip static destructors.
  std::_Exit(1);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t HashWords(const std::vector<uint64_t>& words, uint64_t row_bits) {
  // Four independent lanes keep the multiply chain off the latency path;
  // verification is inside the timed call, so it must stay cheap.
  uint64_t lanes[4] = {row_bits, 1, 2, 3};
  for (size_t i = 0; i < words.size(); ++i) {
    uint64_t& h = lanes[i & 3];
    h = (h ^ words[i]) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (uint64_t lane : lanes) h = (h ^ lane) * 0x94D049BB133111EBull;
  return h ^ (h >> 29);
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  bix::ColumnSpec column_spec;
  column_spec.rows = spec.rows;
  column_spec.cardinality = kCardinality;
  column_spec.zipf_z = kZipfZ;
  column_spec.seed = seed;
  in.column = bix::GenerateZipfColumn(column_spec);
  for (const bix::QuerySet& set :
       bix::GeneratePaperQuerySets(kCardinality, seed, kQueriesPerSet)) {
    for (const bix::MembershipQuery& q : set.queries) {
      in.pool.push_back(q.values);
    }
  }
  // The oracle is a full scan per query: split the pool over a few threads
  // (it runs before set-up and outside every timed interval).
  in.answers.resize(in.pool.size());
  const size_t workers = std::min<size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&in, w, workers] {
      for (size_t i = w; i < in.pool.size(); i += workers) {
        const bix::Bitvector rows =
            bix::NaiveEvaluateMembership(in.column, in.pool[i]);
        in.answers[i] = Answer{rows.Count(), HashWords(rows.words(), rows.size())};
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return in;
}

void Tally::Fail(bix::Status::Code code) {
  ++attempted;
  ++failed;
  ++failures_by_code[CodeLabel(code)];
}

void Tally::Mismatch() {
  ++attempted;
  ++failed;
  ++mismatches;
  ++failures_by_code["Mismatch"];
}

void Tally::Add(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  for (const auto& [code, n] : other.failures_by_code) {
    failures_by_code[code] += n;
  }
}

std::shared_ptr<const bix::BitmapIndex> Stack::Base() const {
  if (index != nullptr) {
    // Non-owning: the stack owns the read-only index.
    return std::shared_ptr<const bix::BitmapIndex>(
        std::shared_ptr<const bix::BitmapIndex>(), index.get());
  }
  return writable->Snapshot().base;
}

bix::Status Stack::Compact() const {
  if (index == nullptr) return service->CompactNow();
  return writable->Compact(nullptr);
}

std::unique_ptr<Stack> StartStack(const WorkloadSpec& spec,
                                  const Inputs& inputs,
                                  const std::string& dir) {
  auto stack = std::make_unique<Stack>();
  std::filesystem::create_directories(dir);

  bix::IndexConfig config;
  config.encoding = bix::EncodingKind::kInterval;
  config.compressed = spec.compressed;
  bix::WritableIndexOptions wal_options;
  wal_options.sync_wal = true;
  // Service defaults throughout: 4 workers, 11 MiB pool, 8 shards, brownout
  // on, no deadlines. Modeled I/O latency stays off so every time this
  // benchmark reports is measured, never a DiskModel charge.
  bix::ServiceOptions service_options;
  if (service_options.io_latency_scale != 0.0) {
    SetupFailed("io_latency_scale == 0 check",
                bix::Status::InvalidArgument("modeled latency is on"));
  }

  if (spec.writable) {
    auto created = bix::WritableBitmapIndex::Create(dir, inputs.column, config,
                                                    wal_options);
    if (!created.ok()) SetupFailed("writable index create", created.status());
    stack->writable = std::move(created).value();
    service_options.compaction_interval_seconds = kCompactionIntervalSeconds;
    auto served = bix::Serve(stack->writable.get(), service_options);
    if (!served.ok()) SetupFailed("service start", served.status());
    stack->service = std::move(served).value();
  } else {
    auto built = bix::BuildIndex(inputs.column, config);
    if (!built.ok()) SetupFailed("index build", built.status());
    stack->index = std::make_unique<bix::BitmapIndex>(std::move(built).value());
    // The side table the write probe targets: the column's first rows,
    // verbatim, durable.
    bix::Column side;
    side.cardinality = inputs.column.cardinality;
    side.values.assign(inputs.column.values.begin(),
                       inputs.column.values.begin() + kSideTableRows);
    bix::IndexConfig side_config;
    side_config.encoding = bix::EncodingKind::kInterval;
    auto created =
        bix::WritableBitmapIndex::Create(dir, side, side_config, wal_options);
    if (!created.ok()) SetupFailed("side table create", created.status());
    stack->writable = std::move(created).value();
    auto served = bix::Serve(stack->index.get(), service_options);
    if (!served.ok()) SetupFailed("service start", served.status());
    stack->service = std::move(served).value();
  }

  bix::TcpServerOptions server_options;
  server_options.writable = stack->writable.get();
  stack->server =
      std::make_unique<bix::TcpServer>(stack->service.get(), server_options);
  const bix::Status started = stack->server->Start();
  if (!started.ok()) SetupFailed("server start", started);
  return stack;
}

}  // namespace perfbench
