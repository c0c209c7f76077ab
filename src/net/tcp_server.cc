#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "core/writable_index.h"
#include "util/cancel_token.h"

namespace bix {
namespace {

// How long one epoll_wait parks (real time). This bounds only how fast the
// loop notices a *virtual* deadline expiry or a cross-thread wakeup lost to
// a race — all actual timeout decisions compare ClockInterface::Now().
constexpr int kEpollTickMillis = 10;

ClockInterface::TimePoint AddSeconds(ClockInterface::TimePoint t, double s) {
  return t + std::chrono::duration_cast<ClockInterface::TimePoint::duration>(
                 std::chrono::duration<double>(s));
}

double SecondsSince(ClockInterface::TimePoint then,
                    ClockInterface::TimePoint now) {
  return std::chrono::duration<double>(now - then).count();
}

// Encodes `resp`, or in its place a typed OutOfRange error carrying no
// words when its payload exceeds the cap: an oversized result fails its own
// request instead of poisoning the peer's frame parser.
std::vector<uint8_t> EncodeWithinCap(const NetResponse& resp,
                                     uint64_t max_payload_bytes) {
  const uint64_t payload = ResponsePayloadBytes(resp);
  if (payload <= max_payload_bytes) return EncodeResponse(resp);
  NetResponse err;
  err.request_id = resp.request_id;
  err.code = Status::Code::kOutOfRange;
  err.message = "response payload of " + std::to_string(payload) +
                " bytes exceeds the " + std::to_string(max_payload_bytes) +
                "-byte frame cap";
  return EncodeResponse(err);
}

}  // namespace

struct TcpServer::Connection {
  explicit Connection(uint64_t max_payload) : parser(max_payload) {}

  // Loop-thread-only state.
  int fd = -1;
  uint64_t id = 0;
  FrameParser parser;
  bool want_write = false;       // epoll interest currently includes OUT
  bool reading_disabled = false; // protocol error: stop consuming input
  ClockInterface::TimePoint last_read_progress{};
  ClockInterface::TimePoint last_activity{};

  // Shared state (loop thread + completion callbacks), guarded by mu.
  std::mutex mu;
  bool closed = false;
  bool close_after_flush = false;
  std::deque<std::vector<uint8_t>> outbound;
  size_t out_offset = 0;  // bytes of outbound.front() already sent
  // When the outbound backlog became (or last made) progress — the write
  // deadline runs against this, so it arms only while bytes are stuck.
  ClockInterface::TimePoint backlog_since{};
  uint32_t in_flight = 0;
  std::unordered_map<uint32_t, std::shared_ptr<CancelToken>> tokens;
};

struct TcpServer::WriteJob {
  std::shared_ptr<Connection> conn;
  NetRequest req;
};

TcpServer::TcpServer(QueryService* service, TcpServerOptions options)
    : service_(service), options_(options), clock_(service->clock()) {
  MetricsRegistry& registry = service->metrics();
  s_.accepted = registry.GetCounter("net_accepted");
  s_.rejected_overload = registry.GetCounter("net_rejected_overload");
  s_.closed = registry.GetCounter("net_closed");
  s_.frames_received = registry.GetCounter("net_frames_received");
  s_.responses_sent = registry.GetCounter("net_responses_sent");
  s_.parse_errors = registry.GetCounter("net_parse_errors");
  s_.disconnect_cancels = registry.GetCounter("net_disconnect_cancels");
  s_.idle_timeouts = registry.GetCounter("net_idle_timeouts");
  s_.read_timeouts = registry.GetCounter("net_read_timeouts");
  s_.write_timeouts = registry.GetCounter("net_write_timeouts");
  s_.force_closes = registry.GetCounter("net_force_closes");
  s_.write_batches = registry.GetCounter("net_write_batches");
}

TcpServer::~TcpServer() { Shutdown(); }

Status TcpServer::Start() {
  if (started_.load()) return Status::InvalidArgument("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Unavailable("cannot create listen socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("cannot bind/listen: " +
                               std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("cannot create epoll/eventfd");
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  started_.store(true);
  loop_thread_ = std::thread([this] { LoopThread(); });
  if (options_.writable != nullptr) {
    writer_thread_ = std::thread([this] { WriterThread(); });
  }
  return Status::OK();
}

void TcpServer::WakeLoop() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void TcpServer::Shutdown() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!started_.load() || shutdown_done_) return;
  drain_deadline_ = AddSeconds(clock_->Now(), options_.drain_deadline_seconds);
  draining_.store(true);  // publishes drain_deadline_ (store is seq_cst)
  WakeLoop();
  loop_thread_.join();
  if (writer_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      write_closed_ = true;
    }
    write_cv_.notify_all();
    writer_thread_.join();
  }
  // Every connection is gone, but workers may still be resolving cancelled
  // queries; their callbacks drop the response (conn closed) and then this
  // count reaches zero. Only after that is it safe to tear down the fds.
  {
    std::unique_lock<std::mutex> lock(outstanding_mu_);
    outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  shutdown_done_ = true;
}

TcpServerStats TcpServer::stats() const {
  TcpServerStats out;
  // Closed before accepted: both only grow and a connection counts as
  // accepted before it counts as closed, so active cannot go negative
  // (the min guards a weakly ordered read of the two).
  out.closed = s_.closed->Value();
  out.accepted = s_.accepted->Value();
  out.active = out.accepted - std::min(out.closed, out.accepted);
  out.rejected_overload = s_.rejected_overload->Value();
  out.frames_received = s_.frames_received->Value();
  out.responses_sent = s_.responses_sent->Value();
  out.parse_errors = s_.parse_errors->Value();
  out.disconnect_cancels = s_.disconnect_cancels->Value();
  out.idle_timeouts = s_.idle_timeouts->Value();
  out.read_timeouts = s_.read_timeouts->Value();
  out.write_timeouts = s_.write_timeouts->Value();
  out.force_closes = s_.force_closes->Value();
  out.write_batches = s_.write_batches->Value();
  return out;
}

void TcpServer::LoopThread() {
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                               kEpollTickMillis);
    const ClockInterface::TimePoint now = clock_->Now();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptPending(now);
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(conn, /*peer_gone=*/true);
        continue;
      }
      if ((ev & EPOLLIN) != 0 || (ev & EPOLLRDHUP) != 0) {
        HandleReadable(conn, now);
        if (conn->fd < 0) continue;  // closed during read
      }
      if ((ev & EPOLLOUT) != 0) FlushConnection(conn, now);
    }
    // Flush connections whose backlog was appended by worker callbacks
    // (the eventfd wake lands here). Snapshot first: flushing can close.
    {
      std::vector<std::shared_ptr<Connection>> snapshot;
      snapshot.reserve(conns_.size());
      for (auto& [fd, c] : conns_) snapshot.push_back(c);
      for (auto& c : snapshot) {
        if (c->fd < 0) continue;
        bool has_out;
        {
          std::lock_guard<std::mutex> lock(c->mu);
          has_out = !c->outbound.empty() || c->close_after_flush;
        }
        if (has_out) FlushConnection(c, now);
      }
    }
    CheckDeadlines(now);
    if (draining_.load()) {
      std::vector<std::shared_ptr<Connection>> snapshot;
      snapshot.reserve(conns_.size());
      for (auto& [fd, c] : conns_) snapshot.push_back(c);
      // A drained connection — nothing owed in either direction — closes
      // now; the rest get until the drain deadline.
      for (auto& c : snapshot) {
        bool settled;
        {
          std::lock_guard<std::mutex> lock(c->mu);
          settled = c->in_flight == 0 && c->outbound.empty();
        }
        if (settled) CloseConnection(c, /*peer_gone=*/false);
      }
      if (conns_.empty()) break;
      if (now >= drain_deadline_) {
        std::vector<std::shared_ptr<Connection>> rest;
        rest.reserve(conns_.size());
        for (auto& [fd, c] : conns_) rest.push_back(c);
        for (auto& c : rest) {
          s_.force_closes->Increment();
          CloseConnection(c, /*peer_gone=*/false);
        }
        break;
      }
    }
  }
}

void TcpServer::AcceptPending(ClockInterface::TimePoint now) {
  while (true) {
    const int cfd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept failure: next tick retries
    }
    const bool draining = draining_.load();
    if (draining || conns_.size() >= options_.max_connections ||
        service_->OverloadBrownout()) {
      // Accept backpressure: answer with one typed frame, then close. The
      // client learns *why* instead of timing out against a silent drop.
      s_.rejected_overload->Increment();
      NetResponse reject;
      reject.request_id = 0;
      reject.code = Status::Code::kUnavailable;
      reject.message = draining ? "server draining" : "server overloaded";
      const std::vector<uint8_t> bytes = EncodeResponse(reject);
      (void)::send(cfd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ::close(cfd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      (void)::setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                         sizeof(options_.sndbuf_bytes));
    }
    auto conn = std::make_shared<Connection>(options_.max_payload_bytes);
    conn->fd = cfd;
    conn->id = next_conn_id_++;
    conn->last_read_progress = now;
    conn->last_activity = now;
    conn->backlog_since = now;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = cfd;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev);
    conns_.emplace(cfd, std::move(conn));
    s_.accepted->Increment();
  }
}

void TcpServer::UpdateEpollInterest(Connection* conn) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (conn->reading_disabled ? 0u : (EPOLLIN | EPOLLRDHUP)) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void TcpServer::HandleReadable(const std::shared_ptr<Connection>& conn,
                               ClockInterface::TimePoint now) {
  if (conn->reading_disabled) return;
  uint8_t buf[1 << 16];
  while (true) {
    const ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r == 0) {
      // Orderly FIN — but with queries possibly in flight, the peer is
      // gone either way: cancel them.
      CloseConnection(conn, /*peer_gone=*/true);
      return;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn, /*peer_gone=*/true);  // reset, etc.
      return;
    }
    conn->last_read_progress = now;
    conn->last_activity = now;
    Status fed = conn->parser.Feed(buf, static_cast<size_t>(r));
    // Frames completed before any error still dispatch — the error poisons
    // the stream from its own byte onward, not retroactively.
    while (!conn->reading_disabled && conn->parser.HasFrame()) {
      DispatchFrame(conn, conn->parser.Next(), now);
      if (conn->fd < 0) return;
    }
    if (conn->reading_disabled) return;  // schema error mid-batch
    if (!fed.ok()) {
      // The stream is unframeable: answer with one typed error frame
      // (request_id unknowable), stop reading, close once it flushes.
      s_.parse_errors->Increment();
      NetResponse err;
      err.request_id = 0;
      err.code = fed.code();
      err.message = fed.message();
      EnqueueOutbound(conn, EncodeResponse(err));
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->close_after_flush = true;
      }
      conn->reading_disabled = true;
      UpdateEpollInterest(conn.get());
      return;
    }
  }
}

void TcpServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                              Frame frame, ClockInterface::TimePoint now) {
  s_.frames_received->Increment();
  Result<NetRequest> decoded = DecodeRequest(frame);
  if (!decoded.ok()) {
    // Framing was intact (CRC passed) but the schema wasn't: typed error,
    // close after flush — the peer is confused, and re-sync is not worth
    // trusting.
    s_.parse_errors->Increment();
    NetResponse err;
    err.request_id = frame.header.request_id;
    err.code = decoded.status().code();
    err.message = decoded.status().message();
    EnqueueOutbound(conn, EncodeResponse(err));
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->close_after_flush = true;
    }
    conn->reading_disabled = true;
    UpdateEpollInterest(conn.get());
    return;
  }
  NetRequest req = std::move(decoded).value();
  switch (req.type) {
    case FrameType::kPing: {
      NetResponse pong;
      pong.request_id = req.request_id;
      pong.code = Status::Code::kOk;
      EnqueueOutbound(conn, EncodeResponse(pong));
      return;
    }
    case FrameType::kWriteBatch: {
      if (options_.writable == nullptr) {
        NetResponse resp;
        resp.request_id = req.request_id;
        resp.code = Status::Code::kNotSupported;
        resp.message = "server is read-only";
        EnqueueOutbound(conn, EncodeResponse(resp));
        return;
      }
      s_.write_batches->Increment();
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        ++conn->in_flight;
      }
      {
        std::lock_guard<std::mutex> lock(outstanding_mu_);
        ++outstanding_;
      }
      {
        std::lock_guard<std::mutex> lock(write_mu_);
        write_jobs_.push_back(WriteJob{conn, std::move(req)});
      }
      write_cv_.notify_one();
      return;
    }
    case FrameType::kInterval:
    case FrameType::kMembership: {
      // Every network query carries a CancelToken even when unbounded —
      // it is the handle disconnect detection and drain force-close fire.
      std::shared_ptr<CancelToken> token =
          req.deadline_micros > 0
              ? CancelToken::WithDeadline(
                    AddSeconds(now, 1e-6 * static_cast<double>(
                                               req.deadline_micros)))
              : CancelToken::Manual();
      ServiceQuery query =
          req.type == FrameType::kInterval
              ? ServiceQuery::Interval(IntervalQuery{req.lo, req.hi, false})
              : ServiceQuery::Membership(std::move(req.values));
      query.WithCancel(token);
      if (req.count_only) query.CountOnly();
      if (req.traced) query.WithTrace();
      const uint32_t id = req.request_id;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        ++conn->in_flight;
        conn->tokens[id] = std::move(token);
      }
      {
        std::lock_guard<std::mutex> lock(outstanding_mu_);
        ++outstanding_;
      }
      std::shared_ptr<Connection> conn_ref = conn;
      service_->SubmitCallback(
          std::move(query), [this, conn_ref, id](QueryResult result) {
            NetResponse resp;
            resp.request_id = id;
            resp.code = result.status.code();
            resp.message = result.status.message();
            resp.count = result.count;
            if (result.status.ok() && result.rows.size() > 0) {
              resp.row_bits = result.rows.size();
              resp.words = std::move(result.rows).TakeWords();
            }
            if (result.trace != nullptr) resp.trace = result.trace->Render();
            CompleteRequest(conn_ref, id,
                            EncodeWithinCap(resp, options_.max_payload_bytes));
          });
      return;
    }
    case FrameType::kResponse:
      return;  // DecodeRequest already rejected this
  }
}

bool TcpServer::EnqueueOutbound(const std::shared_ptr<Connection>& conn,
                                std::vector<uint8_t> bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return false;
    if (conn->outbound.empty()) conn->backlog_since = clock_->Now();
    conn->outbound.push_back(std::move(bytes));
  }
  WakeLoop();
  return true;
}

void TcpServer::CompleteRequest(const std::shared_ptr<Connection>& conn,
                                uint32_t request_id,
                                std::vector<uint8_t> bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->tokens.erase(request_id);
    if (conn->in_flight > 0) --conn->in_flight;
    if (!conn->closed) {
      if (conn->outbound.empty()) conn->backlog_since = clock_->Now();
      conn->outbound.push_back(std::move(bytes));
    }
    // A closed connection's response is dropped: the peer is gone and the
    // query's cancellation already ran its course.
  }
  WakeLoop();
  {
    // Notify under the lock: Shutdown may destroy this condvar the moment
    // it observes outstanding_ == 0, so the broadcast must not be able to
    // race past the waiter's re-acquire.
    std::lock_guard<std::mutex> lock(outstanding_mu_);
    --outstanding_;
    outstanding_cv_.notify_all();
  }
}

void TcpServer::FlushConnection(const std::shared_ptr<Connection>& conn,
                                ClockInterface::TimePoint now) {
  if (conn->fd < 0) return;
  bool dead = false;
  bool close_after = false;
  bool backlog_remains = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->outbound.empty()) {
      const std::vector<uint8_t>& front = conn->outbound.front();
      const ssize_t r =
          ::send(conn->fd, front.data() + conn->out_offset,
                 front.size() - conn->out_offset, MSG_NOSIGNAL);
      if (r > 0) {
        conn->out_offset += static_cast<size_t>(r);
        conn->backlog_since = now;  // progress re-arms the write deadline
        conn->last_activity = now;
        if (conn->out_offset == front.size()) {
          conn->outbound.pop_front();
          conn->out_offset = 0;
          s_.responses_sent->Increment();
        }
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      dead = true;  // reset/broken pipe
      break;
    }
    backlog_remains = !conn->outbound.empty();
    close_after = !backlog_remains && conn->close_after_flush;
  }
  if (dead) {
    CloseConnection(conn, /*peer_gone=*/true);
    return;
  }
  if (backlog_remains != conn->want_write) {
    conn->want_write = backlog_remains;
    UpdateEpollInterest(conn.get());
  }
  if (close_after) CloseConnection(conn, /*peer_gone=*/false);
}

void TcpServer::CheckDeadlines(ClockInterface::TimePoint now) {
  std::vector<std::shared_ptr<Connection>> snapshot;
  snapshot.reserve(conns_.size());
  for (auto& [fd, c] : conns_) snapshot.push_back(c);
  for (auto& c : snapshot) {
    if (c->fd < 0) continue;
    bool has_out;
    bool busy;
    ClockInterface::TimePoint backlog_since;
    {
      std::lock_guard<std::mutex> lock(c->mu);
      has_out = !c->outbound.empty();
      busy = c->in_flight > 0;
      backlog_since = c->backlog_since;
    }
    if (has_out &&
        SecondsSince(backlog_since, now) > options_.write_timeout_seconds) {
      // Peer not draining its responses: cut it, cancel anything pending.
      s_.write_timeouts->Increment();
      CloseConnection(c, /*peer_gone=*/true);
      continue;
    }
    if (c->parser.mid_frame() && !c->reading_disabled &&
        SecondsSince(c->last_read_progress, now) >
            options_.read_timeout_seconds) {
      // Slowloris: a frame was started and abandoned.
      s_.read_timeouts->Increment();
      CloseConnection(c, /*peer_gone=*/true);
      continue;
    }
    if (!busy && !has_out && !c->parser.mid_frame() &&
        SecondsSince(c->last_activity, now) > options_.idle_timeout_seconds) {
      s_.idle_timeouts->Increment();
      CloseConnection(c, /*peer_gone=*/false);
    }
  }
}

void TcpServer::CloseConnection(const std::shared_ptr<Connection>& conn,
                                bool peer_gone) {
  if (conn->fd < 0) return;
  std::vector<std::shared_ptr<CancelToken>> cancels;
  uint32_t in_flight = 0;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    in_flight = conn->in_flight;
    cancels.reserve(conn->tokens.size());
    for (auto& [id, tok] : conn->tokens) cancels.push_back(tok);
    conn->tokens.clear();
    conn->outbound.clear();
    conn->out_offset = 0;
  }
  // Fire the cancels outside the lock: a worker mid-completion may be
  // waiting on conn->mu right now.
  for (auto& t : cancels) t->Cancel();
  if (peer_gone && in_flight > 0) {
    s_.disconnect_cancels->Increment(in_flight);
  }
  // Counted before the close, so a peer that sees the socket close also
  // sees the connection leave `active`.
  s_.closed->Increment();
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conn->fd = -1;
}

void TcpServer::WriterThread() {
  while (true) {
    WriteJob job;
    {
      std::unique_lock<std::mutex> lock(write_mu_);
      write_cv_.wait(lock,
                     [this] { return write_closed_ || !write_jobs_.empty(); });
      if (write_jobs_.empty()) break;  // closed and fully drained
      job = std::move(write_jobs_.front());
      write_jobs_.pop_front();
    }
    // An accepted batch applies even if its client has since vanished —
    // durability is not conditional on the response being deliverable.
    UpdateBatch batch;
    batch.inserts = std::move(job.req.inserts);
    batch.updates.reserve(job.req.updates.size());
    for (const NetUpdate& u : job.req.updates) {
      batch.updates.push_back(UpdateRecord{u.rid, 0, u.value});
    }
    batch.deletes = std::move(job.req.deletes);
    const uint64_t ops = batch.ops();
    const Status applied = options_.writable->ApplyBatch(std::move(batch));
    NetResponse resp;
    resp.request_id = job.req.request_id;
    resp.code = applied.code();
    resp.message = applied.message();
    resp.count = applied.ok() ? ops : 0;
    CompleteRequest(job.conn, job.req.request_id, EncodeResponse(resp));
  }
}

}  // namespace bix
