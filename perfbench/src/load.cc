// The closed-loop load generator, the write probe, and the answer checks.
#include <bit>
#include <chrono>
#include <limits>
#include <thread>

#include "bench.h"
#include "traced.h"
#include "workload/scan_baseline.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kFailedLatencyMs = std::numeric_limits<double>::infinity();
constexpr int kQuiescedSample = 16;
constexpr uint64_t kWriteOps = 8;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// One client connection that reconnects after a transport failure (the
// failed call is still counted).
class Connection {
 public:
  explicit Connection(uint16_t port) : port_(port) { Reconnect(); }

  bix::Result<bix::NetResponse> Call(const bix::NetRequest& request) {
    if (!client_.connected() && !Reconnect()) {
      return bix::Status::Unavailable("cannot connect");
    }
    bix::Result<bix::NetResponse> response = client_.Call(request);
    // A transport error leaves the stream unframeable: start afresh.
    if (!response.ok()) client_.Close();
    return response;
  }

 private:
  bool Reconnect() {
    bix::Result<bix::NetClient> client =
        bix::NetClient::Connect("127.0.0.1", port_);
    if (!client.ok()) return false;
    client_ = std::move(client).value();
    return true;
  }

  uint16_t port_;
  bix::NetClient client_;
};

// Records one finished call: OK with its latency, or a failure (typed
// error, transport error, or a wrong answer) with an infinite one.
void Record(const bix::Result<bix::NetResponse>& response, bool verified,
            double ms, Samples* latencies, LoadResult* out) {
  latencies->done_s.push_back(
      std::chrono::duration<double>(Clock::now().time_since_epoch()).count());
  if (!response.ok()) {
    out->tally.Fail(response.status().code());
  } else if (response.value().code != bix::Status::Code::kOk) {
    out->tally.Fail(response.value().code);
  } else if (!verified) {
    out->tally.Mismatch();
  } else {
    out->tally.Ok();
    ++out->ok_ops;
    latencies->ms.push_back(ms);
    return;
  }
  latencies->ms.push_back(kFailedLatencyMs);
}

bool WriteAcked(const bix::Result<bix::NetResponse>& response) {
  return response.ok() && response.value().code == bix::Status::Code::kOk &&
         response.value().count == kWriteOps;
}

bix::NetRequest ReadRequest(const Inputs& inputs, size_t query,
                            bool count_only) {
  bix::NetRequest request;
  request.type = bix::FrameType::kMembership;
  request.values = inputs.pool[query];
  request.count_only = count_only;
  return request;
}

}  // namespace

void Samples::Add(const Samples& other) {
  ms.insert(ms.end(), other.ms.begin(), other.ms.end());
  done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
}

void LoadResult::Add(const LoadResult& other) {
  bitmap.Add(other.bitmap);
  count.Add(other.count);
  write.Add(other.write);
  ok_ops += other.ok_ops;
  tally.Add(other.tally);
}

bool CheckRead(const bix::NetResponse& response, bool count_only,
               const Answer* expected, uint64_t min_rows) {
  if (count_only) {
    if (!response.words.empty() || response.row_bits != 0) return false;
    return expected == nullptr || response.count == expected->count;
  }
  const std::vector<uint64_t>& words = response.words;
  if (response.row_bits < min_rows ||
      words.size() != (response.row_bits + 63) / 64) {
    return false;
  }
  const uint64_t tail_bits = response.row_bits % 64;
  if (tail_bits != 0 && (words.back() >> tail_bits) != 0) return false;
  uint64_t popcount = 0;
  for (uint64_t w : words) popcount += std::popcount(w);
  if (popcount != response.count) return false;
  return expected == nullptr ||
         (response.count == expected->count &&
          HashWords(words, response.row_bits) == expected->hash);
}

bix::NetRequest MakeWriteRequest(bix::Rng* rng, uint64_t base_rows) {
  bix::NetRequest request;
  request.type = bix::FrameType::kWriteBatch;
  for (int i = 0; i < 4; ++i) {
    request.inserts.push_back(
        static_cast<uint32_t>(rng->UniformInt(0, kCardinality - 1)));
  }
  uint64_t rids[4];
  for (int i = 0; i < 4; ++i) {
    bool fresh = false;
    while (!fresh) {
      rids[i] = rng->UniformInt(0, base_rows - 1);
      fresh = true;
      for (int j = 0; j < i; ++j) fresh = fresh && rids[j] != rids[i];
    }
  }
  for (int i = 0; i < 2; ++i) {
    request.updates.push_back(bix::NetUpdate{
        rids[i], static_cast<uint32_t>(rng->UniformInt(0, kCardinality - 1))});
  }
  request.deletes = {rids[2], rids[3]};
  return request;
}

bix::UpdateBatch ToUpdateBatch(const bix::NetRequest& request) {
  bix::UpdateBatch batch;
  batch.inserts = request.inserts;
  for (const bix::NetUpdate& u : request.updates) {
    batch.updates.push_back(bix::UpdateRecord{u.rid, 0, u.value});
  }
  batch.deletes = request.deletes;
  return batch;
}

LoadResult WarmUp(const Stack& stack, const Inputs& inputs) {
  LoadResult out;
  Connection conn(stack.server->port());
  for (size_t q = 0; q < inputs.pool.size(); ++q) {
    const Clock::time_point t0 = Clock::now();
    const bix::Result<bix::NetResponse> response =
        conn.Call(ReadRequest(inputs, q, /*count_only=*/false));
    const bool verified =
        response.ok() && CheckRead(response.value(), false, &inputs.answers[q],
                                   inputs.column.row_count());
    Record(response, verified, MsSince(t0), &out.bitmap, &out);
  }
  return out;
}

LoadResult RunClosedLoop(const Stack& stack, const Inputs& inputs,
                         bool writes, uint64_t stream_seed, double seconds,
                         SpanRecorder* spans) {
  const uint16_t port = stack.server->port();
  const uint64_t base_rows = inputs.column.row_count();
  // Under writes the oracle no longer holds; answers are checked for
  // internal consistency instead (CheckQuiesced covers values afterwards).
  const bool oracle = stack.index != nullptr;
  std::vector<LoadResult> per_conn(kConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = per_conn[c];
      bix::Rng rng(stream_seed * 0x9E3779B97F4A7C15ull + c);
      Connection conn(port);
      uint64_t request = 0;
      while (Clock::now() < end) {
        const bool is_write = writes && c == 0 && rng.Bernoulli(kWriteFraction);
        size_t query = 0;
        bool count_only = false;
        bix::NetRequest req;
        if (is_write) {
          req = MakeWriteRequest(&rng, base_rows);
        } else {
          query = rng.UniformInt(0, inputs.pool.size() - 1);
          count_only = rng.Bernoulli(0.5);
          req = ReadRequest(inputs, query, count_only);
        }
        const uint64_t request_id = (uint64_t{c} << 40) | ++request;
        SpanRecorder::Scope span(spans, "net.call", "net", request_id);
        const Clock::time_point t0 = Clock::now();
        const bix::Result<bix::NetResponse> response = conn.Call(req);
        bool verified = false;
        if (is_write) {
          verified = WriteAcked(response);
        } else if (response.ok()) {
          verified = CheckRead(response.value(), count_only,
                               oracle ? &inputs.answers[query] : nullptr,
                               base_rows);
        }
        const double ms = MsSince(t0);
        Samples* latencies =
            is_write ? &out.write : (count_only ? &out.count : &out.bitmap);
        Record(response, verified, ms, latencies, &out);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult total;
  for (const LoadResult& r : per_conn) total.Add(r);
  total.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

LoadResult RunWriteProbe(const Stack& stack, uint64_t stream_seed) {
  LoadResult out;
  bix::Rng rng(stream_seed);
  Connection conn(stack.server->port());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kWriteProbeSeconds));
  for (int i = 1; Clock::now() < end; ++i) {
    const bix::NetRequest req = MakeWriteRequest(&rng, kSideTableRows);
    const Clock::time_point t0 = Clock::now();
    const bix::Result<bix::NetResponse> response = conn.Call(req);
    const bool acked = WriteAcked(response);
    Record(response, acked, MsSince(t0), &out.write, &out);
    if (i % kWriteProbeBatchesPerCompact == 0) {
      const bix::Status folded = stack.Compact();
      if (!folded.ok()) out.tally.Fail(folded.code());
    }
  }
  out.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

Tally CheckQuiesced(const Stack& stack, const Inputs& inputs, uint64_t seed) {
  LoadResult out;
  bix::Column logical;
  logical.cardinality = inputs.column.cardinality;
  logical.values = stack.writable->LogicalValues();
  const bix::Bitvector live = stack.writable->LiveMask();
  bix::Rng rng(seed);
  Connection conn(stack.server->port());
  for (int i = 0; i < kQuiescedSample; ++i) {
    const size_t query = rng.UniformInt(0, inputs.pool.size() - 1);
    bix::Bitvector rows =
        bix::NaiveEvaluateMembership(logical, inputs.pool[query]);
    rows.AndWith(live);
    const Answer expected{rows.Count(), HashWords(rows.words(), rows.size())};
    const bix::Result<bix::NetResponse> response =
        conn.Call(ReadRequest(inputs, query, /*count_only=*/false));
    const bool verified =
        response.ok() &&
        CheckRead(response.value(), false, &expected, rows.size());
    Record(response, verified, 0.0, &out.bitmap, &out);
  }
  return out.tally;
}

}  // namespace perfbench
