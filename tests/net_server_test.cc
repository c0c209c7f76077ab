// Integration tests for the TCP serving tier (DESIGN.md section 16): a
// real epoll server on an ephemeral loopback port feeding a real
// QueryService. Covers the query round trip (responses bit-identical to a
// direct QueryExecutor run), typed rejection of malformed input, accept
// backpressure, write batches, connection-lifecycle deadlines under a
// VirtualClock, client-disconnect cancellation, graceful drain — both the
// "in-flight work finishes and flushes" half and the "wedged peer is
// force-closed at the drain deadline" half — and the net_* counters the
// server registers in its service's metrics export.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/bitmap_index_facade.h"
#include "core/writable_index.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "server/query_service.h"
#include "storage/fault_injector.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "workload/column_gen.h"

namespace bix {
namespace {

bool WaitUntil(const std::function<bool()>& pred, double seconds = 8.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// Shared read-only serving stack: column, index, service, server.
struct ServeSetup {
  Column column;
  std::optional<BitmapIndex> index;
  std::optional<QueryService> service;
  std::optional<TcpServer> server;

  explicit ServeSetup(TcpServerOptions net_opts = {},
                      ServiceOptions svc_opts = {}, uint32_t rows = 20'000) {
    ColumnSpec spec;
    spec.rows = rows;
    spec.cardinality = 64;
    spec.zipf_z = 1.0;
    spec.seed = 11;
    column = GenerateZipfColumn(spec);
    IndexConfig config;
    config.encoding = EncodingKind::kInterval;
    index.emplace(BuildIndex(column, config).value());
    service.emplace(&*index, svc_opts);
    server.emplace(&*service, net_opts);
    BIX_CHECK_MSG(server->Start().ok(), "server failed to start");
  }

  ~ServeSetup() {
    if (server) server->Shutdown();
  }

  Bitvector Reference(const NetRequest& req) const {
    QueryExecutor executor(&*index, ExecutorOptions{});
    return req.type == FrameType::kInterval
               ? executor.EvaluateInterval(IntervalQuery{req.lo, req.hi, false})
               : executor.EvaluateMembership(req.values);
  }

  NetClient Client(NetClientOptions opts = {}) {
    return NetClient::Connect("127.0.0.1", server->port(), opts).value();
  }
};

NetRequest Interval(uint32_t id, uint32_t lo, uint32_t hi) {
  NetRequest req;
  req.type = FrameType::kInterval;
  req.request_id = id;
  req.lo = lo;
  req.hi = hi;
  return req;
}

NetRequest Membership(uint32_t id, std::vector<uint32_t> values) {
  NetRequest req;
  req.type = FrameType::kMembership;
  req.request_id = id;
  req.values = std::move(values);
  return req;
}

// A bare socket client the tests can shrink SO_RCVBUF on — the lever that
// makes server-side write backlogs (and so drain/write-deadline behavior)
// deterministic: responses larger than sndbuf + rcvbuf cannot drain until
// this client actually reads.
struct RawConn {
  int fd = -1;
  FrameParser parser{kNetDefaultMaxPayloadBytes};

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  static RawConn Open(uint16_t port, int rcvbuf_bytes) {
    RawConn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    BIX_CHECK_MSG(c.fd >= 0, "socket()");
    if (rcvbuf_bytes > 0) {
      (void)::setsockopt(c.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                         sizeof(rcvbuf_bytes));
    }
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    BIX_CHECK_MSG(::connect(c.fd, reinterpret_cast<struct sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                  "connect()");
    return c;
  }

  void Send(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      BIX_CHECK_MSG(n > 0, "send()");
      off += static_cast<size_t>(n);
    }
  }

  // Reads until `count` response frames have been parsed (or the real-time
  // deadline passes). Returns responses keyed by request_id.
  std::map<uint32_t, NetResponse> ReadResponses(size_t count,
                                                double seconds = 8.0) {
    std::map<uint32_t, NetResponse> out;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    uint8_t buf[4096];
    while (out.size() < count && std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) break;  // server closed
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      BIX_CHECK_MSG(parser.Feed(buf, static_cast<size_t>(n)).ok(),
                    "response stream failed to parse");
      while (parser.HasFrame()) {
        NetResponse resp = DecodeResponse(parser.Next()).value();
        out.emplace(resp.request_id, std::move(resp));
      }
    }
    return out;
  }
};

TEST(NetServerTest, PingRoundTrip) {
  ServeSetup setup;
  NetClient client = setup.Client();
  NetRequest ping;
  ping.type = FrameType::kPing;
  const NetResponse resp = client.Call(ping).value();
  EXPECT_EQ(resp.code, Status::Code::kOk);
  const TcpServerStats stats = setup.server->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_GE(stats.frames_received, 1u);
}

TEST(NetServerTest, QueriesBitIdenticalToDirectExecutor) {
  ServeSetup setup;
  NetClient client = setup.Client();
  Rng rng(4711);
  for (int i = 0; i < 60; ++i) {
    NetRequest req;
    if (rng.Bernoulli(0.5)) {
      const uint32_t lo = static_cast<uint32_t>(rng.UniformInt(0, 63));
      const uint32_t hi = static_cast<uint32_t>(rng.UniformInt(lo, 63));
      req = Interval(0, lo, hi);
    } else {
      std::vector<uint32_t> values;
      const uint32_t k = static_cast<uint32_t>(rng.UniformInt(1, 6));
      for (uint32_t j = 0; j < k; ++j) {
        values.push_back(static_cast<uint32_t>(rng.UniformInt(0, 63)));
      }
      req = Membership(0, std::move(values));
    }
    const Bitvector expected = setup.Reference(req);
    const NetResponse resp = client.Call(req).value();
    ASSERT_EQ(resp.code, Status::Code::kOk) << resp.message;
    ASSERT_EQ(resp.row_bits, expected.size()) << "query " << i;
    ASSERT_EQ(resp.words, expected.words()) << "torn response at query " << i;
    EXPECT_EQ(resp.count, expected.Count());
  }
}

TEST(NetServerTest, CountOnlyAndTracedFlags) {
  ServeSetup setup;
  NetClient client = setup.Client();
  NetRequest req = Interval(0, 3, 9);
  req.count_only = true;
  req.traced = true;
  const Bitvector expected = setup.Reference(req);
  const NetResponse resp = client.Call(req).value();
  ASSERT_EQ(resp.code, Status::Code::kOk);
  EXPECT_EQ(resp.count, expected.Count());
  EXPECT_TRUE(resp.words.empty()) << "count-only must not ship the bitmap";
  EXPECT_FALSE(resp.trace.empty()) << "traced request lost its span tree";
}

// Pipelining: many requests written before any response is read; answers
// may come back out of order but each echoes its request_id and carries
// exactly its query's bits.
TEST(NetServerTest, PipelinedRequestsMatchByRequestId) {
  ServeSetup setup;
  RawConn conn = RawConn::Open(setup.server->port(), 0);
  std::map<uint32_t, Bitvector> expected;
  for (uint32_t id = 1; id <= 24; ++id) {
    const NetRequest req = Interval(id, id % 32, (id % 32) + 16);
    expected.emplace(id, setup.Reference(req));
    conn.Send(EncodeRequest(req));
  }
  const std::map<uint32_t, NetResponse> got = conn.ReadResponses(24);
  ASSERT_EQ(got.size(), 24u);
  for (const auto& [id, resp] : got) {
    ASSERT_EQ(resp.code, Status::Code::kOk);
    EXPECT_EQ(resp.words, expected.at(id).words()) << "request " << id;
  }
}

TEST(NetServerTest, MalformedBytesGetTypedErrorThenClose) {
  ServeSetup setup;
  NetClient client = setup.Client();
  const uint8_t junk[] = {0x00, 0x01, 0x02, 0x03};
  ASSERT_TRUE(client.SendBytes(junk, sizeof(junk)).ok());
  const NetResponse resp = client.ReadResponse().value();
  EXPECT_EQ(resp.code, Status::Code::kInvalidArgument);
  EXPECT_EQ(resp.request_id, 0u);  // stream unframeable: no id to echo
  // The connection is poisoned; the server closes after the error frame.
  const Result<NetResponse> next = client.ReadResponse();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), Status::Code::kUnavailable);
  EXPECT_TRUE(WaitUntil([&] { return setup.server->stats().parse_errors >= 1; }));
}

// A frame that parses (CRC fine) but whose payload lies about its counts:
// the typed error echoes the request_id, so a pipelining client knows
// exactly which request was bad.
TEST(NetServerTest, SchemaErrorEchoesRequestId) {
  ServeSetup setup;
  NetClient client = setup.Client();
  NetRequest req = Membership(77, {1, 2, 3});
  std::vector<uint8_t> bytes = EncodeRequest(req);
  bytes[kNetHeaderBytes + 8] = 9;  // n: claims 9 values, carries 3
  const uint32_t crc =
      Crc32c(bytes.data() + kNetHeaderBytes, bytes.size() - kNetHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  ASSERT_TRUE(client.SendBytes(bytes.data(), bytes.size()).ok());
  const NetResponse resp = client.ReadResponse().value();
  EXPECT_EQ(resp.code, Status::Code::kInvalidArgument);
  EXPECT_EQ(resp.request_id, 77u);
}

// A hostile payload_len is refused from the header alone — the typed error
// comes back before the client has sent (or the server buffered) a single
// payload byte.
TEST(NetServerTest, OversizedFrameRejectedFromHeaderAlone) {
  TcpServerOptions opts;
  opts.max_payload_bytes = 1 << 16;
  ServeSetup setup(opts);
  NetClient client = setup.Client();
  std::vector<uint8_t> header = EncodeRequest(Membership(5, {1}));
  header.resize(kNetHeaderBytes);
  const uint32_t huge = 64u << 20;
  for (int i = 0; i < 4; ++i) {
    header[8 + i] = static_cast<uint8_t>(huge >> (8 * i));
  }
  ASSERT_TRUE(client.SendBytes(header.data(), header.size()).ok());
  const NetResponse resp = client.ReadResponse().value();
  EXPECT_EQ(resp.code, Status::Code::kOutOfRange);
}

// The other direction: a result bigger than the frame cap comes back as a
// typed OutOfRange for that request alone. The client's parser never sees
// an oversized frame, so the same connection keeps serving.
TEST(NetServerTest, OversizedResultGetsTypedErrorAndConnectionSurvives) {
  TcpServerOptions opts;
  opts.max_payload_bytes = 1024;  // a 20,000-row bitmap is 2,500 bytes
  ServeSetup setup(opts);
  NetClientOptions client_opts;
  client_opts.max_payload_bytes = 1024;
  NetClient client = setup.Client(client_opts);

  const Result<NetResponse> bitmap = client.Call(Interval(0, 0, 40));
  ASSERT_TRUE(bitmap.ok()) << bitmap.status().ToString();
  EXPECT_EQ(bitmap.value().code, Status::Code::kOutOfRange);
  EXPECT_TRUE(bitmap.value().words.empty());

  NetRequest count = Interval(0, 0, 40);
  count.count_only = true;
  const Result<NetResponse> counted = client.Call(count);
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  ASSERT_EQ(counted.value().code, Status::Code::kOk);
  EXPECT_EQ(counted.value().count, setup.Reference(count).Count());
  EXPECT_EQ(setup.server->stats().parse_errors, 0u);
}

TEST(NetServerTest, ConnectionCapRejectsWithTypedOverloadError) {
  TcpServerOptions opts;
  opts.max_connections = 2;
  ServeSetup setup(opts);
  NetClient a = setup.Client();
  NetClient b = setup.Client();
  // Make sure both are fully registered before the third knocks.
  NetRequest ping;
  ping.type = FrameType::kPing;
  ASSERT_TRUE(a.Call(ping).ok());
  ASSERT_TRUE(b.Call(ping).ok());
  NetClient c = setup.Client();
  const NetResponse resp = c.ReadResponse().value();
  EXPECT_EQ(resp.code, Status::Code::kUnavailable);
  EXPECT_EQ(resp.message, "server overloaded");
  EXPECT_EQ(setup.server->stats().rejected_overload, 1u);
  // The admitted connections still serve.
  EXPECT_TRUE(a.Call(ping).ok());
}

// Every "net_*" counter of an ExportMetrics(kJson) dump, by name.
std::map<std::string, uint64_t> NetCounters(const std::string& json) {
  std::map<std::string, uint64_t> out;
  for (size_t pos = json.find("\"net_"); pos != std::string::npos;
       pos = json.find("\"net_", pos + 1)) {
    const size_t colon = json.find("\":", pos);
    out[json.substr(pos + 1, colon - pos - 1)] =
        std::stoull(json.substr(colon + 2));
  }
  return out;
}

// The net tier is scrapeable: its counters live in the service's registry,
// so ExportMetrics reports exactly what stats() does — and keeps reporting
// it after the server is gone.
TEST(NetServerTest, NetCountersAppearInServiceExport) {
  TcpServerOptions opts;
  opts.max_connections = 2;
  ServeSetup setup(opts);
  NetRequest ping;
  ping.type = FrameType::kPing;
  {
    NetClient a = setup.Client();
    ASSERT_TRUE(a.Call(ping).ok());
    ASSERT_EQ(a.Call(Interval(0, 3, 9)).value().code, Status::Code::kOk);
    // One unframeable stream: a typed error, then the server closes it.
    NetClient junk = setup.Client();
    const uint8_t bytes[] = {0x00, 0x01, 0x02, 0x03};
    ASSERT_TRUE(junk.SendBytes(bytes, sizeof(bytes)).ok());
    EXPECT_EQ(junk.ReadResponse().value().code,
              Status::Code::kInvalidArgument);
    ASSERT_TRUE(WaitUntil([&] { return setup.server->stats().closed == 1; }));
    // One connection refused at max_connections.
    NetClient b = setup.Client();
    ASSERT_TRUE(b.Call(ping).ok());
    NetClient refused = setup.Client();
    EXPECT_EQ(refused.ReadResponse().value().code, Status::Code::kUnavailable);
  }
  // Every client has hung up; once the server has closed them all, no
  // counter moves again.
  ASSERT_TRUE(WaitUntil([&] { return setup.server->stats().active == 0; }));
  const TcpServerStats s = setup.server->stats();
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.closed, 3u);
  EXPECT_EQ(s.rejected_overload, 1u);
  EXPECT_EQ(s.parse_errors, 1u);
  EXPECT_EQ(s.responses_sent, 4u);  // two for a, the parse error, one for b
  const std::map<std::string, uint64_t> want = {
      {"net_accepted", s.accepted},
      {"net_rejected_overload", s.rejected_overload},
      {"net_closed", s.closed},
      {"net_frames_received", s.frames_received},
      {"net_responses_sent", s.responses_sent},
      {"net_parse_errors", s.parse_errors},
      {"net_disconnect_cancels", s.disconnect_cancels},
      {"net_idle_timeouts", s.idle_timeouts},
      {"net_read_timeouts", s.read_timeouts},
      {"net_write_timeouts", s.write_timeouts},
      {"net_force_closes", s.force_closes},
      {"net_write_batches", s.write_batches},
  };
  EXPECT_EQ(NetCounters(setup.service->ExportMetrics(MetricsFormat::kJson)),
            want);
  setup.server.reset();
  EXPECT_EQ(NetCounters(setup.service->ExportMetrics(MetricsFormat::kJson)),
            want);
}

TEST(NetServerTest, ServiceWithoutServerExportsNoNetCounters) {
  ColumnSpec spec;
  spec.rows = 2'000;
  spec.cardinality = 16;
  spec.seed = 3;
  const BitmapIndex index =
      BuildIndex(GenerateZipfColumn(spec), IndexConfig{}).value();
  QueryService service(&index, ServiceOptions{});
  ASSERT_TRUE(
      service.Submit(ServiceQuery::Interval({2, 7, false})).get().status.ok());
  EXPECT_EQ(service.ExportMetrics(MetricsFormat::kText).find("net_"),
            std::string::npos);
  EXPECT_EQ(service.ExportMetrics(MetricsFormat::kJson).find("net_"),
            std::string::npos);
}

TEST(NetServerTest, WriteBatchAppliesDurablyAndServesMergedReads) {
  const std::string dir = ::testing::TempDir() + "/net_write_batch";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ColumnSpec spec;
  spec.rows = 5'000;
  spec.cardinality = 64;
  spec.zipf_z = 1.0;
  spec.seed = 11;
  const Column column = GenerateZipfColumn(spec);
  IndexConfig config;
  config.encoding = EncodingKind::kInterval;
  auto writable = WritableBitmapIndex::Create(dir, column, config);
  ASSERT_TRUE(writable.ok());
  QueryService service(writable.value().get(), ServiceOptions{});
  TcpServerOptions opts;
  opts.writable = writable.value().get();
  TcpServer server(&service, opts);
  ASSERT_TRUE(server.Start().ok());

  NetClient client = NetClient::Connect("127.0.0.1", server.port()).value();
  const uint32_t old5 = column.values[5];
  const uint32_t new5 = (old5 + 1) % spec.cardinality;
  // Count who holds new5 before the write, through the wire.
  NetRequest probe = Membership(0, {new5});
  probe.count_only = true;
  const uint64_t before = client.Call(probe).value().count;

  NetRequest write;
  write.type = FrameType::kWriteBatch;
  write.inserts = {7, 9};
  write.updates = {{5, new5}};
  write.deletes = {11};
  const NetResponse resp = client.Call(write).value();
  ASSERT_EQ(resp.code, Status::Code::kOk) << resp.message;
  EXPECT_EQ(resp.count, 4u);  // ops applied

  EXPECT_EQ(writable.value()->LogicalValues()[5], new5);
  EXPECT_FALSE(writable.value()->LiveMask().Get(11));
  EXPECT_EQ(writable.value()->LogicalValues().size(), spec.rows + 2);
  // The delta is visible through the serving path immediately.
  uint64_t gained = new5 == 7 ? 1 : 0;  // inserted rows can also match
  gained += new5 == 9 ? 1 : 0;
  const uint64_t lost = column.values[11] == new5 ? 1 : 0;
  EXPECT_EQ(client.Call(probe).value().count, before + 1 + gained - lost);
  EXPECT_EQ(server.stats().write_batches, 1u);
  server.Shutdown();
}

TEST(NetServerTest, WriteBatchOnReadOnlyServerIsNotSupported) {
  ServeSetup setup;
  NetClient client = setup.Client();
  NetRequest write;
  write.type = FrameType::kWriteBatch;
  write.inserts = {1};
  const NetResponse resp = client.Call(write).value();
  EXPECT_EQ(resp.code, Status::Code::kNotSupported);
}

TEST(NetServerTest, IdleConnectionCulledOnVirtualClock) {
  VirtualClock vclock;
  TcpServerOptions opts;
  opts.idle_timeout_seconds = 30.0;
  opts.read_timeout_seconds = 1000.0;
  opts.write_timeout_seconds = 1000.0;
  ServiceOptions svc;
  svc.clock = &vclock;
  ServeSetup setup(opts, svc);
  NetClient client = setup.Client();
  NetRequest ping;
  ping.type = FrameType::kPing;
  ASSERT_TRUE(client.Call(ping).ok());
  // No real time needs to pass: one virtual jump past the idle budget and
  // the next loop tick culls the connection.
  vclock.Advance(31.0);
  EXPECT_TRUE(WaitUntil([&] { return setup.server->stats().idle_timeouts == 1; }));
  const Result<NetResponse> read = client.ReadResponse();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kUnavailable);
  EXPECT_EQ(setup.server->stats().active, 0u);
}

TEST(NetServerTest, StalledMidFramePeerCutByReadDeadline) {
  VirtualClock vclock;
  TcpServerOptions opts;
  opts.idle_timeout_seconds = 1000.0;
  opts.read_timeout_seconds = 5.0;
  opts.write_timeout_seconds = 1000.0;
  ServiceOptions svc;
  svc.clock = &vclock;
  ServeSetup setup(opts, svc);
  NetClient client = setup.Client();
  // Four valid header bytes, then silence: a slowloris opening move.
  const uint8_t partial[] = {kNetMagic, kNetVersion, 0x02, 0x00};
  ASSERT_TRUE(client.SendBytes(partial, sizeof(partial)).ok());
  // Let the bytes land (the loop must observe the half-frame) before
  // judging the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  vclock.Advance(6.0);
  EXPECT_TRUE(WaitUntil([&] { return setup.server->stats().read_timeouts == 1; }));
  EXPECT_EQ(setup.server->stats().idle_timeouts, 0u);
}

TEST(NetServerTest, StuckReaderCutByWriteDeadline) {
  VirtualClock vclock;
  TcpServerOptions opts;
  opts.idle_timeout_seconds = 1000.0;
  opts.read_timeout_seconds = 1000.0;
  opts.write_timeout_seconds = 5.0;
  opts.sndbuf_bytes = 4096;
  ServiceOptions svc;
  svc.clock = &vclock;
  ServeSetup setup(opts, svc);
  // Tiny receive window, a pile of bitmap-bearing responses, and a client
  // that never reads: the outbound backlog wedges.
  RawConn conn = RawConn::Open(setup.server->port(), 4096);
  for (uint32_t id = 1; id <= 40; ++id) {
    conn.Send(EncodeRequest(Interval(id, 0, 63)));
  }
  // Wait for the backlog to form (responses computed, socket full).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  vclock.Advance(6.0);
  EXPECT_TRUE(WaitUntil([&] { return setup.server->stats().write_timeouts == 1; }));
}

TEST(NetServerTest, DisconnectMidQueryFiresCancelAndCounts) {
  // Slow every storage read down with a real-time latency spike so the
  // query is reliably still in flight when the client dies.
  FaultInjectorOptions fault_opts;
  fault_opts.seed = 7;
  fault_opts.latency_spike_prob = 1.0;
  fault_opts.latency_spike_seconds = 0.15;
  FaultInjector injector(fault_opts);
  ServiceOptions svc;
  svc.fault_injector = &injector;
  ServeSetup setup(TcpServerOptions{}, svc);
  NetClient client = setup.Client();
  // Not the full domain: [0, cardinality-1] would rewrite to a fetch-free
  // all-ones answer and dodge the injected latency entirely.
  const std::vector<uint8_t> bytes = EncodeRequest(Interval(1, 5, 40));
  ASSERT_TRUE(client.SendBytes(bytes.data(), bytes.size()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  client.Abort();  // RST with the query mid-evaluation
  EXPECT_TRUE(
      WaitUntil([&] { return setup.server->stats().disconnect_cancels >= 1; }));
  // The server stays healthy for the next client.
  NetClient next = setup.Client();
  const NetResponse resp = next.Call(Interval(0, 1, 2)).value();
  EXPECT_EQ(resp.code, Status::Code::kOk);
}

// Graceful-drain regression (the satellite): a connection with responses
// still unflushed holds the server in drain; new connects are answered
// with a typed draining error; the held-back responses arrive complete and
// bit-identical; nothing is force-closed; and with the VirtualClock never
// advanced, Shutdown returning proves drain completed *within* the drain
// deadline rather than by expiring it.
TEST(NetServerTest, GracefulDrainFlushesInFlightAndRejectsNewConnects) {
  VirtualClock vclock;
  TcpServerOptions opts;
  opts.idle_timeout_seconds = 1000.0;
  opts.read_timeout_seconds = 1000.0;
  opts.write_timeout_seconds = 1000.0;
  opts.drain_deadline_seconds = 60.0;
  opts.sndbuf_bytes = 4096;
  ServiceOptions svc;
  svc.clock = &vclock;
  ServeSetup setup(opts, svc);

  RawConn conn = RawConn::Open(setup.server->port(), 4096);
  std::map<uint32_t, Bitvector> expected;
  for (uint32_t id = 1; id <= 20; ++id) {
    const NetRequest req = Interval(id, 0, 63);
    expected.emplace(id, setup.Reference(req));
    conn.Send(EncodeRequest(req));
  }
  // Let the service finish the queries and wedge the flush against our
  // tiny receive window.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::thread drainer([&] { setup.server->Shutdown(); });
  // Draining is observable: a fresh connect gets one typed frame.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    NetClient late = setup.Client();
    const NetResponse resp = late.ReadResponse().value();
    EXPECT_EQ(resp.code, Status::Code::kUnavailable);
    EXPECT_EQ(resp.message, "server draining");
  }
  // Now actually read: drain must deliver every byte it owed us.
  const std::map<uint32_t, NetResponse> got = conn.ReadResponses(20);
  drainer.join();
  ASSERT_EQ(got.size(), 20u);
  for (const auto& [id, resp] : got) {
    ASSERT_EQ(resp.code, Status::Code::kOk);
    EXPECT_EQ(resp.words, expected.at(id).words())
        << "torn frame during drain, request " << id;
  }
  const TcpServerStats stats = setup.server->stats();
  EXPECT_EQ(stats.force_closes, 0u);
  EXPECT_GE(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.active, 0u);
}

// The other half of drain: a peer that never drains its responses cannot
// hold Shutdown hostage — at the (virtual) drain deadline it is
// force-closed and counted.
TEST(NetServerTest, DrainDeadlineForceClosesWedgedPeer) {
  VirtualClock vclock;
  TcpServerOptions opts;
  opts.idle_timeout_seconds = 1000.0;
  opts.read_timeout_seconds = 1000.0;
  opts.write_timeout_seconds = 1000.0;
  opts.drain_deadline_seconds = 5.0;
  opts.sndbuf_bytes = 4096;
  ServiceOptions svc;
  svc.clock = &vclock;
  ServeSetup setup(opts, svc);

  RawConn conn = RawConn::Open(setup.server->port(), 4096);
  // Enough bitmap-bearing responses (~100 KiB) that the tiny send/receive
  // buffers cannot absorb them: the backlog is guaranteed to outlive the
  // drain deadline when nobody reads.
  for (uint32_t id = 1; id <= 40; ++id) {
    conn.Send(EncodeRequest(Interval(id, 0, 63)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::thread drainer([&] { setup.server->Shutdown(); });
  // Give Shutdown time to stamp the drain deadline, then blow past it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  vclock.Advance(6.0);
  drainer.join();  // returns because the wedged peer was force-closed
  const TcpServerStats stats = setup.server->stats();
  EXPECT_GE(stats.force_closes, 1u);
  EXPECT_EQ(stats.active, 0u);
}

}  // namespace
}  // namespace bix
