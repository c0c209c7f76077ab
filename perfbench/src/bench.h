// Shared declarations of the served-query benchmark (perfbench/README.md):
// workload table, generated inputs with their naive-scan oracle, the served
// stack, the closed-loop load generator, failure accounting, and the
// metric report.
#ifndef BIX_PERFBENCH_BENCH_H_
#define BIX_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "core/writable_index.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "server/query_service.h"
#include "util/rng.h"

namespace perfbench {

// ---- workloads -------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  uint64_t rows = 0;
  // BBC-compressed blobs (the paper's Fig 9 "cmp I") instead of verbatim.
  bool compressed = false;
  // Served from a WAL-backed WritableBitmapIndex; connection 0 mixes in
  // write batches. Read-only workloads serve an immutable BitmapIndex and
  // send their write probe to a small side table instead.
  bool writable = false;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Fixed shape of every workload (see README.md for the rationale).
inline constexpr uint32_t kCardinality = 50;
inline constexpr double kZipfZ = 1.0;
inline constexpr uint32_t kQueriesPerSet = 25;  // x 8 paper query sets
inline constexpr uint32_t kConnections = 2;
inline constexpr double kWriteFraction = 0.1;   // of connection 0's ops
inline constexpr uint64_t kSideTableRows = 100'000;
inline constexpr double kCompactionIntervalSeconds = 1.0;
// Set-ups per run; the untraced run measures one window on each.
inline constexpr int kSetupRepeats = 5;
// How long the write probe runs after a read-only workload's read window,
// and how often it folds the side table's overlay (untimed), as background
// compaction would: a batch's cost grows with the overlay it copies.
inline constexpr double kWriteProbeSeconds = 3.0;
inline constexpr int kWriteProbeBatchesPerCompact = 1000;

// ---- inputs and oracle -----------------------------------------------------

// What the naive scan says a query must return: the qualifying-row count
// and a hash of the result bitmap's words.
struct Answer {
  uint64_t count = 0;
  uint64_t hash = 0;
};

uint64_t HashWords(const std::vector<uint64_t>& words, uint64_t row_bits);

struct Inputs {
  bix::Column column;
  // Membership value lists from the paper's 8 query-set shapes.
  std::vector<std::vector<uint32_t>> pool;
  std::vector<Answer> answers;  // NaiveEvaluateMembership per pool entry
};

// Deterministic in (spec, seed); computes the oracle answers too.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

// ---- failure accounting ----------------------------------------------------

// Every attempted operation lands here exactly once, as OK or as a failure
// named by its Status code (or "Mismatch" for a wrong answer).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::map<std::string, uint64_t> failures_by_code;

  void Ok() { ++attempted; }
  void Fail(bix::Status::Code code);
  void Mismatch();
  void Add(const Tally& other);
};

// ---- the served stack ------------------------------------------------------

// One workload's running system: the index, the QueryService over it, and
// the TcpServer in front. Members are declared in dependency order, so the
// destructor stops the server before the service and the service before
// the indexes.
struct Stack {
  std::unique_ptr<bix::BitmapIndex> index;  // read-only workloads
  // mixed_rw: the served index. Read-only workloads: the side table the
  // write probe targets.
  std::unique_ptr<bix::WritableBitmapIndex> writable;
  std::unique_ptr<bix::QueryService> service;
  std::unique_ptr<bix::TcpServer> server;

  // The base index queries currently evaluate against.
  std::shared_ptr<const bix::BitmapIndex> Base() const;
  // Folds pending writes: CompactNow in writable mode, else the side
  // table's own Compact.
  bix::Status Compact() const;
};

// Builds the index (and WAL) in `dir`, starts the service and server.
// Aborts the run on a setup failure: nothing can be measured without it.
std::unique_ptr<Stack> StartStack(const WorkloadSpec& spec,
                                  const Inputs& inputs, const std::string& dir);

// ---- load ------------------------------------------------------------------

class SpanRecorder;

// Latencies of one request type, with each call's completion time (steady
// clock seconds) so tails can be taken per time slice.
struct Samples {
  std::vector<double> ms;
  std::vector<double> done_s;

  void Add(const Samples& other);
};

struct LoadResult {
  Samples bitmap;
  Samples count;
  Samples write;
  uint64_t ok_ops = 0;
  double elapsed_s = 0.0;
  Tally tally;

  void Add(const LoadResult& other);
};

// Sends every pool query once in bitmap mode and verifies it.
LoadResult WarmUp(const Stack& stack, const Inputs& inputs);

// The closed loop: kConnections client threads, each waiting for its
// answer before sending the next request, for `seconds`. Reads draw a pool
// query and bitmap/count-only mode with probability 1/2 each; with
// `writes`, connection 0 sends a write batch with probability
// kWriteFraction instead. Every answer is verified; a failure is recorded
// with an infinite latency (it misses any limit). `spans` (nullable)
// records one client-side span around each call.
LoadResult RunClosedLoop(const Stack& stack, const Inputs& inputs,
                         bool writes, uint64_t stream_seed, double seconds,
                         SpanRecorder* spans);

// Read-only workloads: durable batches, one at a time, to the side table
// for kWriteProbeSeconds.
LoadResult RunWriteProbe(const Stack& stack, uint64_t stream_seed);

// mixed_rw, after the clients stop: a sample of pool queries served in
// bitmap mode must equal the naive scan over LogicalValues() masked by
// LiveMask().
Tally CheckQuiesced(const Stack& stack, const Inputs& inputs, uint64_t seed);

// An 8-op write batch (4 inserts, 2 updates, 2 deletes) over rows
// [0, base_rows), with distinct update/delete rids.
bix::NetRequest MakeWriteRequest(bix::Rng* rng, uint64_t base_rows);
bix::UpdateBatch ToUpdateBatch(const bix::NetRequest& request);

// Verifies one read response against the oracle (`expected`, nullable) or,
// without an oracle, for internal consistency.
bool CheckRead(const bix::NetResponse& response, bool count_only,
               const Answer* expected, uint64_t min_rows);

// ---- report ----------------------------------------------------------------

// Nearest-rank median and lower quartile; 0 when empty.
double Median(std::vector<double> values);
double LowerQuartile(std::vector<double> values);

// OK operations per second: the 90th percentile of the completion rates of
// the windows' time slices, 30 equal-count slices per window (report.cc).
double SlicedOpsPerSecond(const std::vector<LoadResult>& windows);

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples, const std::string& note = "");
  // Printed in the table with its sample count but left out of the JSON:
  // end-to-end metrics too unsteady on a shared host to gate (README.md).
  void AddPrinted(const std::string& name, double value,
                  const std::string& unit, uint64_t samples,
                  const std::string& note = "");
  // `<prefix>_p50_ms`: the 10th percentile of the p50s of the windows'
  // time slices, 30 equal-count slices per window (see report.cc), in the
  // JSON when `gated`. `<prefix>_p99_ms`: the TailQuantile of all windows
  // pooled, printed only.
  void AddLatency(const std::string& prefix,
                  const std::vector<Samples>& windows, bool gated);
  void PrintTable(const std::string& title) const;
  // {"correct":..,"attempted":..,"failed":..,"metrics":{...}}
  std::string Json(bool correct, const Tally& tally) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
    std::string note;
    bool in_json;
  };
  std::vector<Metric> metrics_;
};

// CPU time this process has used, all threads, and its minor page faults.
struct ProcessUsage {
  double cpu_s = 0.0;  // user + system
  double user_s = 0.0;
  uint64_t minor_faults = 0;

  static ProcessUsage Now();
  ProcessUsage operator-(const ProcessUsage& earlier) const;
};

// Peak resident set size of this process, MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // BIX_PERFBENCH_BENCH_H_
