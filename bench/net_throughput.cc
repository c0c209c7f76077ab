// Serving-tier load generator: end-to-end throughput and tail latency of
// the TCP front end (frame protocol -> epoll loop -> QueryService ->
// response flush), swept over concurrent connections, for both
// full-bitmap and count-only responses. Count-only answers skip shipping
// the result bitvector, so the spread between the two modes is the wire
// cost of result transfer; the connection sweep shows the single-threaded
// event loop feeding a multi-worker service.
//
//   net_throughput [--rows=N] [--cardinality=C] [--seed=S] [--quick]
//                  [--json=PATH]
//
// --quick shrinks the query count and the connection sweep, never the rows.
// With --json, writes the BENCH_serving.json series artifact CI archives.
// Every call is counted: a failed call (transport or typed error) is
// printed by status code, recorded as `failed` in the JSON, and makes the
// run exit 1, so errors cannot vanish from qps and the percentiles.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_support.h"
#include "core/bitmap_index_facade.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "server/query_service.h"
#include "util/rng.h"
#include "workload/column_gen.h"

namespace bix {
namespace bench {
namespace {

struct LoadPoint {
  std::string mode;
  uint32_t connections = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<Status::Code, uint64_t> failures;  // by status code
  double qps = 0.0;  // successful calls per second
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

// "OutOfRange" etc.: a status code's name without a message.
std::string CodeName(Status::Code code) {
  const std::string s =
      StatusFromWire(static_cast<uint8_t>(code), "").ToString();
  return s.substr(0, s.find(':'));
}

double PercentileMs(std::vector<double>* latencies, double q) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = std::min(
      latencies->size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies->size())));
  return (*latencies)[idx] * 1e3;
}

LoadPoint RunLoad(uint16_t port, uint32_t cardinality, uint32_t connections,
                  uint32_t queries_per_conn, bool count_only, uint64_t seed) {
  std::vector<std::vector<double>> lat(connections);
  std::vector<std::map<Status::Code, uint64_t>> failures(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  const auto t0 = std::chrono::steady_clock::now();
  for (uint32_t t = 0; t < connections; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed + t);
      Result<NetClient> client = NetClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures[t][client.status().code()] += queries_per_conn;
        return;
      }
      lat[t].reserve(queries_per_conn);
      for (uint32_t i = 0; i < queries_per_conn; ++i) {
        NetRequest req;
        req.type = FrameType::kInterval;
        req.lo = static_cast<uint32_t>(rng.UniformInt(0, cardinality - 2));
        req.hi = static_cast<uint32_t>(
            rng.UniformInt(req.lo, cardinality - 2));
        req.count_only = count_only;
        const auto q0 = std::chrono::steady_clock::now();
        const Result<NetResponse> resp = client.value().Call(req);
        if (!resp.ok() || resp.value().code != Status::Code::kOk) {
          ++failures[t][resp.ok() ? resp.value().code : resp.status().code()];
          continue;
        }
        lat[t].push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - q0)
                             .count());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  LoadPoint point;
  point.mode = count_only ? "count_only" : "bitmap";
  point.connections = connections;
  point.attempted = uint64_t{connections} * queries_per_conn;
  for (const auto& per_conn : failures) {
    for (const auto& [code, n] : per_conn) {
      point.failures[code] += n;
      point.failed += n;
    }
  }
  point.qps = wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0;
  point.p50_ms = PercentileMs(&all, 0.50);
  point.p99_ms = PercentileMs(&all, 0.99);
  return point;
}

}  // namespace
}  // namespace bench
}  // namespace bix

int main(int argc, char** argv) {
  using namespace bix;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const uint64_t rows = args.rows;
  const uint32_t queries_per_conn = args.quick ? 200 : 1'000;

  ColumnSpec spec;
  spec.rows = rows;
  spec.cardinality = args.cardinality;
  spec.zipf_z = 1.0;
  spec.seed = args.seed;
  const Column column = GenerateZipfColumn(spec);
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  const BitmapIndex index = BuildIndex(column, config).value();

  ServiceOptions svc;
  svc.num_workers = 4;
  QueryService service(&index, svc);
  TcpServerOptions opts;
  opts.max_connections = 64;
  TcpServer server(&service, opts);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "cannot start server\n");
    return 1;
  }

  std::printf("net serving throughput: rows=%llu cardinality=%u "
              "queries/conn=%u\n\n",
              static_cast<unsigned long long>(rows), args.cardinality,
              queries_per_conn);

  std::vector<uint32_t> sweep =
      args.quick ? std::vector<uint32_t>{1, 4} : std::vector<uint32_t>{1, 2, 4, 8};
  std::vector<bench::LoadPoint> points;
  bench::TablePrinter table(
      {"mode", "conns", "qps", "p50_ms", "p99_ms", "failed"});
  uint64_t failed = 0;
  for (const bool count_only : {false, true}) {
    for (const uint32_t conns : sweep) {
      const bench::LoadPoint p = bench::RunLoad(
          server.port(), args.cardinality, conns, queries_per_conn,
          count_only, args.seed);
      points.push_back(p);
      table.AddRow({p.mode, std::to_string(p.connections),
                    bench::FormatDouble(p.qps, 0),
                    bench::FormatDouble(p.p50_ms, 3),
                    bench::FormatDouble(p.p99_ms, 3),
                    std::to_string(p.failed)});
      failed += p.failed;
    }
  }
  table.Print();
  for (const bench::LoadPoint& p : points) {
    for (const auto& [code, n] : p.failures) {
      std::printf("FAILED %s x%u: %llu of %llu calls %s\n", p.mode.c_str(),
                  p.connections, static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(p.attempted),
                  bench::CodeName(code).c_str());
    }
  }
  const TcpServerStats stats = server.stats();
  std::printf("\nserver: %llu frames in, %llu responses out, %llu parse "
              "errors, %llu rejected\n",
              static_cast<unsigned long long>(stats.frames_received),
              static_cast<unsigned long long>(stats.responses_sent),
              static_cast<unsigned long long>(stats.parse_errors),
              static_cast<unsigned long long>(stats.rejected_overload));
  std::printf("Expected: count_only clears bitmap mode at every width (no\n"
              "result transfer); qps grows with connections until the four\n"
              "service workers saturate.\n");
  server.Shutdown();

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"net_throughput\",\n"
                 "  \"rows\": %llu,\n  \"cardinality\": %u,\n"
                 "  \"seed\": %llu,\n  \"series\": [\n",
                 static_cast<unsigned long long>(rows), args.cardinality,
                 static_cast<unsigned long long>(args.seed));
    for (size_t i = 0; i < points.size(); ++i) {
      const bench::LoadPoint& p = points[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"connections\": %u, "
                   "\"attempted\": %llu, \"failed\": %llu, "
                   "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                   p.mode.c_str(), p.connections,
                   static_cast<unsigned long long>(p.attempted),
                   static_cast<unsigned long long>(p.failed), p.qps, p.p50_ms,
                   p.p99_ms, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu series points)\n", args.json_path.c_str(),
                points.size());
  }
  return failed == 0 ? 0 : 1;
}
