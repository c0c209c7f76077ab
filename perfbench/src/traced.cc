// The traced run (--trace 1). It replays the workload's stream top-down
// through each layer's public entry points, with a span around every call:
//
//   load    the served closed loop twice, untraced then with a client span
//           around each NetClient::Call: the tracing overhead, and the
//           service's cache/decode counters over the traced traffic
//   submit  the same requests through in-process QueryService::Submit and
//           then NetClient::Call, one at a time: the net tier's share and
//           the service's own stage times
//   replay  each request emulated layer by layer in this process: request
//           framing (net) -> worker (server) -> RewriteMembership (query) ->
//           TryEvaluate* (expr) -> fetches through a span-recording cache
//           decorator (cache) -> response encode/decode (net); per-layer
//           self time comes from these trees
//   probe   calls that the replay cannot split out of a parent: codec
//           decodes of each request's blobs (compress), kernel ops over its
//           bitmaps (bitvector), cold and warm cache fetches (cache), the
//           delta merge (expr), durable batches and compactions (core)
#include "traced.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "bitvector/kernels.h"
#include "server/sharded_cache.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kReplayRequests = 100;
// Requests whose blobs and bitmaps the compress/bitvector probes replay.
constexpr size_t kProbeRequests = 40;
constexpr int kCacheProbeRounds = 3;
constexpr int kWriteBatches = 100;
constexpr int kCompactRounds = 3;
constexpr int kBatchesPerCompact = 25;
constexpr uint64_t kResidentPoolBytes = 1ull << 30;

thread_local int tls_open_span = -1;

double UsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// A span around every fetch the evaluator makes, forwarding to the cache
// under test.
class SpanningCache : public bix::BitmapCacheInterface {
 public:
  explicit SpanningCache(bix::ShardedBitmapCache* inner) : inner_(inner) {}

  void Trace(SpanRecorder* spans, uint64_t request) {
    spans_ = spans;
    request_ = request;
  }

  bix::Result<bix::DecodedBitmap> TryFetchDecoded(
      bix::BitmapKey key, bix::IoStats* stats, const bix::CancelToken* cancel,
      bix::TraceSink* trace) override {
    SpanRecorder::Scope span(spans_, "cache.fetch", "cache", request_);
    return inner_->TryFetchDecoded(key, stats, cancel, trace);
  }
  using bix::BitmapCacheInterface::TryFetchDecoded;
  void DropPool() override { inner_->DropPool(); }

 private:
  bix::ShardedBitmapCache* inner_;
  SpanRecorder* spans_ = nullptr;
  uint64_t request_ = 0;
};

std::unique_ptr<bix::ShardedBitmapCache> ServiceSizedCache(
    const bix::BitmapIndex& base) {
  const bix::ServiceOptions defaults;
  return std::make_unique<bix::ShardedBitmapCache>(
      &base.store(), defaults.buffer_pool_bytes, defaults.cache_shards);
}

bix::ExecutorOptions SharedCacheExecutorOptions() {
  bix::ExecutorOptions options;
  options.cold_pool_per_query = false;
  return options;
}

struct StreamRequest {
  size_t query = 0;
  bool count_only = false;
  uint64_t id = 0;
};

std::vector<StreamRequest> MakeStream(const Inputs& inputs, uint64_t seed) {
  bix::Rng rng(seed ^ 0x5EED5EED5EED5EEDull);
  std::vector<StreamRequest> stream(kReplayRequests);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].query = rng.UniformInt(0, inputs.pool.size() - 1);
    stream[i].count_only = rng.Bernoulli(0.5);
    stream[i].id = i + 1;
  }
  return stream;
}

// p50 of one stage histogram in ExportMetrics(kJson) (log buckets).
double ExportedP50Us(const std::string& json, const std::string& histogram) {
  const size_t at = json.find('"' + histogram + "\":{");
  if (at == std::string::npos) return 0.0;
  const size_t p50 = json.find("\"p50_us\":", at);
  if (p50 == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + p50 + 9, nullptr);
}

// The overlay a writable index would hold after `batches`, built directly
// over a read-only base (same validation shape as PrepareBatch).
std::shared_ptr<const bix::DeltaSnapshot> SyntheticDelta(
    const bix::Column& column, std::vector<bix::UpdateBatch> batches) {
  std::shared_ptr<const bix::DeltaSnapshot> delta =
      bix::DeltaSnapshot::Base(column.row_count());
  uint64_t seq = 0;
  for (bix::UpdateBatch& batch : batches) {
    batch.seq = ++seq;
    batch.first_rid = delta->total_rows();
    batch.SortByRid();
    for (bix::UpdateRecord& u : batch.updates) {
      u.old_value = column.values[u.rid];
    }
    delta = delta->Apply(batch);
  }
  return delta;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           const char* layer, uint64_t request)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  saved_parent_ = tls_open_span;
  const int64_t now = recorder_->NowNs();
  std::lock_guard<std::mutex> lock(recorder_->mu_);
  id_ = static_cast<int>(recorder_->spans_.size());
  recorder_->spans_.push_back(Span{name, layer, recorder_->phase_, request,
                                   saved_parent_, now, now});
  tls_open_span = id_;
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const int64_t now = recorder_->NowNs();
  tls_open_span = saved_parent_;
  std::lock_guard<std::mutex> lock(recorder_->mu_);
  recorder_->spans_[id_].end_ns = now;
}

void SpanRecorder::SetPhase(const char* phase) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = phase;
}

std::vector<SpanRecorder::Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"request\":%" PRIu64
                 ",\"phase\":\"%s\",\"layer\":\"%s\",\"name\":\"%s\","
                 "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                 i, s.parent, s.request, s.phase, s.layer, s.name, s.start_ns,
                 s.end_ns);
  }
  return std::fclose(f) == 0;
}

void RunTraced(const Stack& stack, const Inputs& inputs,
               const WorkloadSpec& spec, uint64_t seed, double seconds,
               const std::string& spans_path, Report* report, Tally* tally) {
  SpanRecorder spans;
  const bool oracle = !spec.writable;
  const std::vector<StreamRequest> stream = MakeStream(inputs, seed);

  // ---- load: untraced vs traced closed loop, service counters ----------
  const double phase_s = std::max(1.0, seconds / 4.0);
  const bix::ServiceStats before = stack.service->Stats();
  const uint64_t compactions_before = stack.writable->durability().compactions;
  spans.SetPhase("load");
  LoadResult untraced =
      RunClosedLoop(stack, inputs, spec.writable, seed, phase_s, nullptr);
  LoadResult traced =
      RunClosedLoop(stack, inputs, spec.writable, seed, phase_s, &spans);
  const bix::ServiceStats after = stack.service->Stats();
  const uint64_t load_compactions =
      stack.writable->durability().compactions - compactions_before;
  tally->Add(untraced.tally);
  tally->Add(traced.tally);
  const double untraced_p50 = Median(untraced.bitmap.ms);
  const double traced_p50 = Median(traced.bitmap.ms);
  report->Add("trace.untraced_bitmap_p50_ms", untraced_p50, "ms",
              untraced.bitmap.ms.size());
  report->Add("trace.bitmap_p50_ms", traced_p50, "ms", traced.bitmap.ms.size());
  report->Add("trace.overhead_pct", 100.0 * (traced_p50 / untraced_p50 - 1.0),
              "%", traced.bitmap.ms.size(), "traced vs untraced bitmap p50");

  const double queries =
      static_cast<double>(after.completed - before.completed);
  const bix::IoStats& io0 = before.io;
  const bix::IoStats& io1 = after.io;
  uint64_t decodes = 0;
  for (int c = 0; c < bix::kNumCodecs; ++c) {
    decodes += io1.codec_decodes[c] - io0.codec_decodes[c];
  }
  const double scans = static_cast<double>(io1.scans - io0.scans);
  report->Add("cache.hit_rate",
              static_cast<double>(io1.pool_hits - io0.pool_hits) / scans,
              "frac", io1.scans - io0.scans, "served fetches");
  report->Add("cache.misses_per_query",
              static_cast<double>(io1.disk_reads - io0.disk_reads) / queries,
              "count", after.completed - before.completed);
  report->Add("compress.decodes_per_query",
              static_cast<double>(decodes) / queries, "count",
              after.completed - before.completed);
  report->Add("storage.modeled_io_s",
              (io1.io_seconds - io0.io_seconds + io1.decode_seconds -
               io0.decode_seconds) /
                  queries,
              "modeled_s", after.completed - before.completed,
              "DiskModel charge per query, never added to a measured time");

  // In writable mode fold what the load wrote, so the epoch (and the
  // service's cache) stays put for the in-process phases below.
  if (spec.writable) {
    const bix::Status folded = stack.Compact();
    if (!folded.ok()) {
      tally->Fail(folded.code());
    }
  }

  // ---- submit: in-process service vs the same request over the wire ----
  // Two passes over the same stream, so both see the same cache history.
  spans.SetPhase("submit");
  std::vector<double> submit_us, call_us, queue_us, rewrite_us, eval_us;
  for (const StreamRequest& r : stream) {
    bix::ServiceQuery query =
        bix::ServiceQuery::Membership(inputs.pool[r.query]);
    if (r.count_only) query.CountOnly();
    bix::QueryResult result;
    const Clock::time_point t0 = Clock::now();
    {
      SpanRecorder::Scope span(&spans, "server.submit", "server", r.id);
      result = stack.service->Submit(std::move(query)).get();
    }
    submit_us.push_back(UsSince(t0));
    const Answer& expected = inputs.answers[r.query];
    if (!result.status.ok()) {
      tally->Fail(result.status.code());
    } else if (oracle &&
               (result.count != expected.count ||
                (!r.count_only && HashWords(result.rows.words(),
                                            result.rows.size()) !=
                                      expected.hash))) {
      tally->Mismatch();
    } else {
      tally->Ok();
      queue_us.push_back(result.metrics.queue_seconds * 1e6);
      rewrite_us.push_back(result.metrics.rewrite_seconds * 1e6);
      eval_us.push_back(result.metrics.eval_seconds * 1e6);
    }
  }
  bix::Result<bix::NetClient> client =
      bix::NetClient::Connect("127.0.0.1", stack.server->port());
  for (const StreamRequest& r : stream) {
    bix::NetRequest request;
    request.type = bix::FrameType::kMembership;
    request.values = inputs.pool[r.query];
    request.count_only = r.count_only;
    bix::Result<bix::NetResponse> response =
        bix::Status::Unavailable("not connected");
    const Clock::time_point t0 = Clock::now();
    if (client.ok()) {
      SpanRecorder::Scope span(&spans, "net.call", "net", r.id);
      response = client.value().Call(request);
    }
    call_us.push_back(UsSince(t0));
    if (!response.ok()) {
      tally->Fail(response.status().code());
    } else if (response.value().code != bix::Status::Code::kOk) {
      tally->Fail(response.value().code);
    } else if (!CheckRead(response.value(), r.count_only,
                          oracle ? &inputs.answers[r.query] : nullptr,
                          inputs.column.row_count())) {
      tally->Mismatch();
    } else {
      tally->Ok();
    }
  }
  const double submit_p50 = Median(submit_us);
  report->Add("server.submit_us", submit_p50, "us", submit_us.size());
  report->Add("net.tier_us", Median(call_us) - submit_p50, "us",
              call_us.size(), "NetClient::Call p50 minus Submit p50");
  report->Add("server.queue_us", Median(queue_us), "us", queue_us.size());
  report->Add("server.rewrite_us", Median(rewrite_us), "us", rewrite_us.size());
  report->Add("server.eval_us", Median(eval_us), "us", eval_us.size());
  const std::string exported =
      stack.service->ExportMetrics(bix::MetricsFormat::kJson);
  std::printf("service histograms (log buckets, all traffic so far): "
              "queue p50 %.1f us, rewrite p50 %.1f us, eval p50 %.1f us\n",
              ExportedP50Us(exported, "latency_queue"),
              ExportedP50Us(exported, "latency_rewrite"),
              ExportedP50Us(exported, "latency_eval"));

  // ---- replay: each request top-down through the layers ----------------
  spans.SetPhase("replay");
  const bix::IndexSnapshot snapshot =
      spec.writable ? stack.writable->Snapshot() : bix::IndexSnapshot{};
  const std::shared_ptr<const bix::BitmapIndex> base =
      spec.writable ? snapshot.base : stack.Base();
  const bool merge = spec.writable && !snapshot.delta->trivial();
  std::unique_ptr<bix::ShardedBitmapCache> replay_cache =
      ServiceSizedCache(*base);
  SpanningCache spanning(replay_cache.get());
  bix::QueryExecutor executor(base.get(), SharedCacheExecutorOptions(),
                              &spanning);
  // Warm the replay cache the way the service's is warm.
  for (const std::vector<uint32_t>& values : inputs.pool) {
    (void)executor.TryEvaluateCountRewritten(executor.RewriteMembership(values));
  }

  std::vector<double> rewrite_replay_us, eval_replay_us, count_eval_us;
  std::vector<double> encode_us, decode_us, response_bytes;
  double constituents = 0.0, bitmaps = 0.0, copy_bytes = 0.0;
  for (const StreamRequest& r : stream) {
    const std::vector<uint32_t>& values = inputs.pool[r.query];
    SpanRecorder::Scope root(&spans, "request", "net", r.id);
    bix::NetRequest request;
    request.type = bix::FrameType::kMembership;
    request.values = values;
    request.count_only = r.count_only;
    request.request_id = static_cast<uint32_t>(r.id);
    {
      SpanRecorder::Scope span(&spans, "net.parse_request", "net", r.id);
      bix::FrameParser parser;
      const std::vector<uint8_t> frame = bix::EncodeRequest(request);
      if (!parser.Feed(frame.data(), frame.size()).ok() || !parser.HasFrame() ||
          !bix::DecodeRequest(parser.Next()).ok()) {
        tally->Mismatch();
        continue;
      }
    }
    bix::NetResponse response;
    response.request_id = request.request_id;
    bix::Status status;
    {
      SpanRecorder::Scope worker(&spans, "server.execute", "server", r.id);
      spanning.Trace(&spans, r.id);
      std::vector<bix::ExprPtr> exprs;
      Clock::time_point t0 = Clock::now();
      {
        SpanRecorder::Scope span(&spans, "query.rewrite", "query", r.id);
        exprs = executor.RewriteMembership(values);
      }
      rewrite_replay_us.push_back(UsSince(t0));
      constituents += static_cast<double>(exprs.size());
      const uint64_t scans0 = executor.stats().scans;
      const uint64_t copied0 = bix::BitvectorCopyStats::bytes();
      t0 = Clock::now();
      if (merge || !r.count_only) {
        // The service's paths: merged whenever the overlay is non-trivial
        // (count-only included), else the plain bitmap evaluation.
        SpanRecorder::Scope span(&spans, merge ? "expr.eval_merged" : "expr.eval",
                                 "expr", r.id);
        bix::Result<bix::Bitvector> rows =
            merge ? executor.TryEvaluateRewrittenMerged(
                        exprs, snapshot.delta->View(),
                        bix::ValueSet::Members(values))
                  : executor.TryEvaluateRewritten(exprs);
        status = rows.status();
        if (rows.ok()) {
          response.count = rows.value().Count();
          if (!r.count_only) {
            response.row_bits = rows.value().size();
            response.words = rows.value().words();
          }
        }
      } else {
        SpanRecorder::Scope span(&spans, "expr.count_eval", "expr", r.id);
        bix::Result<uint64_t> count = executor.TryEvaluateCountRewritten(exprs);
        status = count.status();
        if (count.ok()) response.count = count.value();
      }
      (r.count_only ? count_eval_us : eval_replay_us).push_back(UsSince(t0));
      bitmaps += static_cast<double>(executor.stats().scans - scans0);
      copy_bytes +=
          static_cast<double>(bix::BitvectorCopyStats::bytes() - copied0);
      spanning.Trace(nullptr, 0);
    }
    if (!status.ok()) {
      tally->Fail(status.code());
      continue;
    }
    std::vector<uint8_t> wire;
    Clock::time_point t0 = Clock::now();
    {
      SpanRecorder::Scope span(&spans, "net.encode_response", "net", r.id);
      wire = bix::EncodeResponse(response);
    }
    const double encode = UsSince(t0);
    bix::Result<bix::NetResponse> decoded = bix::Status::Unavailable("no frame");
    t0 = Clock::now();
    {
      SpanRecorder::Scope span(&spans, "net.decode_response", "net", r.id);
      bix::FrameParser parser;
      if (parser.Feed(wire.data(), wire.size()).ok() && parser.HasFrame()) {
        decoded = bix::DecodeResponse(parser.Next());
      }
    }
    const double decode = UsSince(t0);
    if (!r.count_only) {
      encode_us.push_back(encode);
      decode_us.push_back(decode);
      response_bytes.push_back(static_cast<double>(wire.size()));
    }
    const Answer* expected = oracle ? &inputs.answers[r.query] : nullptr;
    if (!decoded.ok()) {
      tally->Fail(decoded.status().code());
    } else if (!CheckRead(decoded.value(), r.count_only, expected,
                          base->row_count())) {
      tally->Mismatch();
    } else {
      tally->Ok();
    }
  }
  const double requests = static_cast<double>(stream.size());
  report->Add("net.response_bytes", Median(response_bytes), "B",
              response_bytes.size(), "bitmap responses");
  report->Add("net.response_encode_us", Median(encode_us), "us",
              encode_us.size(), "EncodeResponse, bitmap responses");
  report->Add("net.response_decode_us", Median(decode_us), "us",
              decode_us.size(), "FrameParser::Feed + DecodeResponse");
  report->Add("query.rewrite_us", Median(rewrite_replay_us), "us",
              rewrite_replay_us.size());
  report->Add("query.constituents_per_query", constituents / requests, "count",
              stream.size());
  report->Add("expr.eval_us", Median(eval_replay_us), "us",
              eval_replay_us.size(), merge ? "merged path" : "");
  report->Add("expr.count_eval_us", Median(count_eval_us), "us",
              count_eval_us.size(), merge ? "merged path" : "");
  report->Add("expr.bitmaps_per_query", bitmaps / requests, "count",
              stream.size(), "IoStats.scans");
  report->Add("expr.copy_bytes_per_query", copy_bytes / requests, "B",
              stream.size(), "BitvectorCopyStats");
  report->Add("cache.resident_mb",
              static_cast<double>(stack.service->cache().pool_bytes_used()) /
                  1e6,
              "MB", 1, "of an 11.53 MB (11 MiB) budget");

  // ---- probes: compress, bitvector, cache, delta merge, core -----------
  spans.SetPhase("probe");
  std::vector<double> codec_decode_us;
  double or_bytes = 0.0, or_ns = 0.0, and_bytes = 0.0, and_ns = 0.0;
  const bix::kernels::Ops& ops = bix::kernels::Active();
  for (size_t i = 0; i < std::min(kProbeRequests, stream.size()); ++i) {
    const StreamRequest& r = stream[i];
    std::vector<bix::BitmapKey> leaves;
    for (const bix::ExprPtr& e : executor.RewriteMembership(inputs.pool[r.query])) {
      bix::CollectLeaves(e, &leaves);
    }
    std::set<uint64_t> seen;
    std::vector<std::shared_ptr<const bix::Bitvector>> plain;
    for (const bix::BitmapKey& key : leaves) {
      if (!seen.insert(key.Packed()).second) continue;
      const bix::BitmapStore::Blob& blob = base->store().GetBlob(key);
      const Clock::time_point t0 = Clock::now();
      bix::Result<bix::Bitvector> bits = bix::Status::Unavailable("");
      {
        SpanRecorder::Scope span(&spans, "compress.decode", "compress", r.id);
        bits = bix::GetCodec(blob.codec).Decode(blob.bytes, blob.bit_count);
      }
      codec_decode_us.push_back(UsSince(t0));
      if (!bits.ok()) {
        tally->Fail(bits.status().code());
        continue;
      }
      plain.push_back(
          std::make_shared<const bix::Bitvector>(std::move(bits).value()));
    }
    if (plain.empty()) continue;
    const size_t n = plain[0]->words().size();
    std::vector<const uint64_t*> srcs;
    for (const auto& bv : plain) srcs.push_back(bv->words().data());
    std::vector<uint64_t> dst(n);
    Clock::time_point t0 = Clock::now();
    {
      SpanRecorder::Scope span(&spans, "bitvector.or_many", "bitvector", r.id);
      ops.or_many(srcs.data(), srcs.size(), dst.data(), n);
    }
    or_ns += UsSince(t0) * 1e3;
    or_bytes += static_cast<double>(srcs.size() * n * sizeof(uint64_t));
    t0 = Clock::now();
    {
      SpanRecorder::Scope span(&spans, "bitvector.and_count", "bitvector",
                               r.id);
      for (size_t k = 0; k < srcs.size(); ++k) {
        (void)ops.and_count(srcs[k], srcs[(k + 1) % srcs.size()], n);
      }
    }
    and_ns += UsSince(t0) * 1e3;
    and_bytes += static_cast<double>(2 * srcs.size() * n * sizeof(uint64_t));
  }
  report->Add("compress.decode_us", Median(codec_decode_us), "us",
              codec_decode_us.size(),
              std::string("GetCodec(") +
                  (spec.compressed ? "bbc" : "verbatim") + ").Decode per blob");
  report->Add("bitvector.or_gbps", or_bytes / or_ns, "GB/s", kProbeRequests,
              std::string("or_many, tier ") +
                  bix::kernels::TierName(bix::kernels::ActiveTier()));
  report->Add("bitvector.and_count_gbps", and_bytes / and_ns, "GB/s",
              kProbeRequests,
              std::string("and_count, tier ") +
                  bix::kernels::TierName(bix::kernels::ActiveTier()));

  // Cold and warm fetches of every stored bitmap on a fresh cache sized
  // like the service's.
  std::vector<bix::BitmapKey> keys;
  base->store().ForEachBlob(
      [&keys](const bix::BitmapKey& key, const bix::BitmapStore::Blob&) {
        keys.push_back(key);
      });
  std::sort(keys.begin(), keys.end(),
            [](const bix::BitmapKey& a, const bix::BitmapKey& b) {
              return a.Packed() < b.Packed();
            });
  std::unique_ptr<bix::ShardedBitmapCache> probe_cache =
      ServiceSizedCache(*base);
  std::vector<double> hit_us, miss_us;
  for (int round = 0; round < kCacheProbeRounds; ++round) {
    for (const bix::BitmapKey& key : keys) {
      probe_cache->DropPool();
      for (int fetch = 0; fetch < 2; ++fetch) {
        const bix::ShardedBitmapCache::Counters c0 = probe_cache->TotalCounters();
        bix::IoStats io;
        const Clock::time_point t0 = Clock::now();
        bool ok = false;
        {
          SpanRecorder::Scope span(&spans,
                                   fetch == 0 ? "cache.fetch_miss"
                                              : "cache.fetch_hit",
                                   "cache", key.Packed());
          ok = probe_cache->TryFetchDecoded(key, &io).ok();
        }
        const double us = UsSince(t0);
        const bix::ShardedBitmapCache::Counters c1 = probe_cache->TotalCounters();
        if (!ok) {
          tally->Fail(bix::Status::Code::kUnavailable);
          continue;
        }
        if (c1.hits > c0.hits) hit_us.push_back(us);
        if (c1.misses > c0.misses) miss_us.push_back(us);
      }
    }
  }
  report->Add("cache.fetch_hit_us", Median(hit_us), "us", hit_us.size());
  report->Add("cache.fetch_miss_us", Median(miss_us), "us", miss_us.size(),
              "includes the stored-form decode");

  // Durable batches and compactions on the writable index (the served one
  // in mixed_rw, the side table otherwise).
  bix::WritableBitmapIndex& writable = *stack.writable;
  const uint64_t table_rows =
      spec.writable ? inputs.column.row_count() : kSideTableRows;
  bix::Rng rng(seed ^ 0xBA7C4ull);
  std::vector<bix::UpdateBatch> applied;
  std::vector<double> apply_us;
  const bix::DurabilityStats d0 = writable.durability();
  for (int i = 0; i < kWriteBatches; ++i) {
    const bix::NetRequest write = MakeWriteRequest(&rng, table_rows);
    applied.push_back(ToUpdateBatch(write));
    const Clock::time_point t0 = Clock::now();
    bix::Status s;
    {
      SpanRecorder::Scope span(&spans, "core.apply_batch", "core", i + 1);
      s = writable.ApplyBatch(applied.back());
    }
    apply_us.push_back(UsSince(t0));
    if (s.ok()) {
      tally->Ok();
    } else {
      tally->Fail(s.code());
    }
  }
  const bix::DurabilityStats d1 = writable.durability();
  report->Add("core.apply_batch_us", Median(apply_us), "us", apply_us.size(),
              "WAL append + fsync + overlay publish");
  report->Add("storage.wal_bytes_per_op",
              static_cast<double>(d1.wal_bytes - d0.wal_bytes) /
                  static_cast<double>(kWriteBatches * 8),
              "B", kWriteBatches);

  // Delta merge: the served overlay in mixed_rw (pinned now, with the
  // batches above pending), else the same batches over this workload's
  // index.
  bix::IndexSnapshot merge_snapshot;
  if (spec.writable) {
    merge_snapshot = writable.Snapshot();
  } else {
    merge_snapshot.base = base;
    std::vector<bix::UpdateBatch> batches;
    bix::Rng delta_rng(seed ^ 0xBA7C4ull);
    for (int i = 0; i < kWriteBatches; ++i) {
      batches.push_back(
          ToUpdateBatch(MakeWriteRequest(&delta_rng, inputs.column.row_count())));
    }
    merge_snapshot.delta = SyntheticDelta(inputs.column, std::move(batches));
  }
  // A cache that holds every bitmap, so both evaluations below are pure
  // compute and their difference is the merge alone.
  bix::ShardedBitmapCache merge_cache(&merge_snapshot.base->store(),
                                      kResidentPoolBytes, /*num_shards=*/1);
  bix::QueryExecutor merge_executor(merge_snapshot.base.get(),
                                    SharedCacheExecutorOptions(),
                                    &merge_cache);
  for (const std::vector<uint32_t>& values : inputs.pool) {
    (void)merge_executor.TryEvaluateCountRewritten(
        merge_executor.RewriteMembership(values));
  }
  std::vector<double> merge_us;
  const bix::DeltaView view = merge_snapshot.delta->View();
  for (const StreamRequest& r : stream) {
    const std::vector<uint32_t>& values = inputs.pool[r.query];
    const std::vector<bix::ExprPtr> exprs =
        merge_executor.RewriteMembership(values);
    Clock::time_point t0 = Clock::now();
    bool ok = false;
    {
      SpanRecorder::Scope span(&spans, "expr.eval", "expr", r.id);
      ok = merge_executor.TryEvaluateRewritten(exprs).ok();
    }
    const double plain_us = UsSince(t0);
    t0 = Clock::now();
    {
      SpanRecorder::Scope span(&spans, "expr.eval_merged", "expr", r.id);
      ok = merge_executor
               .TryEvaluateRewrittenMerged(exprs, view,
                                           bix::ValueSet::Members(values))
               .ok() &&
           ok;
    }
    merge_us.push_back(UsSince(t0) - plain_us);
    if (ok) {
      tally->Ok();
    } else {
      tally->Fail(bix::Status::Code::kUnavailable);
    }
  }
  report->Add("expr.delta_merge_us", Median(merge_us), "us", merge_us.size(),
              std::to_string(merge_snapshot.delta->ops()) + " overlay ops");

  std::vector<double> compact_ms;
  for (int round = 0; round < kCompactRounds; ++round) {
    for (int i = 0; i < kBatchesPerCompact; ++i) {
      const bix::Status s =
          writable.ApplyBatch(ToUpdateBatch(MakeWriteRequest(&rng, table_rows)));
      if (s.ok()) {
        tally->Ok();
      } else {
        tally->Fail(s.code());
      }
    }
    const Clock::time_point t0 = Clock::now();
    bix::Status s;
    {
      SpanRecorder::Scope span(&spans, "core.compact", "core", round + 1);
      s = stack.Compact();
    }
    compact_ms.push_back(UsSince(t0) / 1e3);
    if (s.ok()) {
      tally->Ok();
    } else {
      tally->Fail(s.code());
    }
  }
  report->Add("core.compact_ms", Median(compact_ms), "ms", compact_ms.size(),
              spec.writable ? "QueryService::CompactNow"
                            : "side table Compact");
  report->Add("core.compactions",
              static_cast<double>(spec.writable ? load_compactions
                                                : kCompactRounds),
              "count", 1,
              spec.writable ? "background, during the load phases"
                            : "explicit, side table");

  // ---- self time per layer over the replayed request trees -------------
  const std::vector<SpanRecorder::Span> all = spans.Spans();
  std::vector<int64_t> child_ns(all.size(), 0);
  for (const SpanRecorder::Span& s : all) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  const char* const layers[] = {"net", "server", "query", "expr", "cache"};
  std::unordered_map<std::string, double> self_ns;
  double replay_ns = 0.0;
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecorder::Span& s = all[i];
    if (std::string(s.phase) != "replay") continue;
    self_ns[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    if (s.parent < 0) replay_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::printf("\nself time per replayed request (span minus child spans), "
              "%zu requests:\n  %-8s %12s %8s\n",
              stream.size(), "layer", "us/request", "share");
  for (const char* layer : layers) {
    const double us = self_ns[layer] / 1e3 / requests;
    std::printf("  %-8s %12.2f %7.1f%%\n", layer, us,
                100.0 * self_ns[layer] / replay_ns);
    report->Add(std::string("self.") + layer + "_us", us, "us", stream.size(),
                "replayed request self time");
  }

  // Probe spans, by name (their layers' entry points called directly).
  std::map<std::string, std::vector<double>> probe_us;
  for (const SpanRecorder::Span& s : all) {
    if (std::string(s.phase) != "probe") continue;
    probe_us[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                               1e3);
  }
  std::printf("probe spans:\n  %-22s %8s %12s\n", "name", "count", "p50 us");
  for (auto& [name, us] : probe_us) {
    std::printf("  %-22s %8zu %12.2f\n", name.c_str(), us.size(), Median(us));
  }

  if (spans.WriteJsonl(spans_path)) {
    std::printf("spans: %zu written to %s\n", all.size(), spans_path.c_str());
  } else {
    std::fprintf(stderr, "served_bench: cannot write %s\n", spans_path.c_str());
  }
}

}  // namespace perfbench
