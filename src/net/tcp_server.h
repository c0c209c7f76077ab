#ifndef BIX_NET_TCP_SERVER_H_
#define BIX_NET_TCP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "server/query_service.h"
#include "util/clock.h"
#include "util/status.h"

namespace bix {

class WritableBitmapIndex;

// Tuning for the serving tier's front end. All timeouts are measured on
// `clock` (the service's ClockInterface), so every lifecycle decision —
// idle cull, stuck-reader cut, wedged-writer cut, drain deadline — is
// deterministic under a VirtualClock; the event loop's real epoll tick
// (~10ms) only bounds how fast a virtual expiry is noticed.
struct TcpServerOptions {
  // 0 = kernel-assigned ephemeral port (tests); read it back via port().
  uint16_t port = 0;
  std::string bind_address = "127.0.0.1";
  // Accept backpressure: beyond this many live connections — or while the
  // query service's brownout breaker is open — a new connection is
  // answered with one typed Unavailable frame and closed, instead of
  // adding load the service already cannot carry.
  uint32_t max_connections = 64;
  // Largest frame payload either way. A request over it is refused from
  // its header; a query response over it is replaced by a typed OutOfRange
  // error. Keep it equal to the clients' NetClientOptions.max_payload_bytes.
  uint64_t max_payload_bytes = kNetDefaultMaxPayloadBytes;
  // A connection with nothing pending in either direction for this long is
  // culled.
  double idle_timeout_seconds = 60.0;
  // A peer that started a frame and stopped feeding it (slowloris) is cut
  // after this long without read progress.
  double read_timeout_seconds = 10.0;
  // A peer not draining its responses (stuck reader, full window) is cut
  // after this long without write progress.
  double write_timeout_seconds = 10.0;
  // Graceful shutdown: in-flight work gets this long to finish and flush;
  // whatever remains is force-closed.
  double drain_deadline_seconds = 5.0;
  // When > 0, shrink the server-side socket send buffer (tests use this to
  // force write backlogs deterministically).
  int sndbuf_bytes = 0;
  // null = RealClock. Must be the same clock the QueryService uses, or
  // request deadlines and connection deadlines disagree about "now".
  ClockInterface* clock = nullptr;
  // When set, kWriteBatch requests apply durably through this index (on a
  // dedicated writer thread; ApplyBatch fsyncs). When null, write requests
  // get a typed NotSupported response.
  WritableBitmapIndex* writable = nullptr;
};

struct TcpServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_overload = 0;  // conn cap, brownout, or draining
  uint64_t active = 0;
  uint64_t frames_received = 0;
  uint64_t responses_sent = 0;
  uint64_t parse_errors = 0;
  // Peers that vanished with queries in flight; each such query's
  // CancelToken was fired.
  uint64_t disconnect_cancels = 0;
  uint64_t idle_timeouts = 0;
  uint64_t read_timeouts = 0;
  uint64_t write_timeouts = 0;
  // Connections the drain deadline closed with work still unflushed.
  uint64_t force_closes = 0;
  uint64_t write_batches = 0;
};

// The fault-tolerant TCP front end (DESIGN.md section 16): a single epoll
// event loop speaking the frame protocol, feeding the QueryService through
// its non-blocking callback submission, with connection-lifecycle
// hardening — typed rejection of malformed frames, deadline-driven culls,
// client-disconnect cancellation, accept backpressure, and bounded
// graceful drain.
//
// Threading: the loop thread owns every socket and all epoll state.
// QueryService workers complete queries by appending a serialized response
// to the connection's outbound buffer (under its mutex) and waking the
// loop via eventfd; only the loop thread ever writes to a socket. Write
// batches run on one dedicated writer thread, since a durable ApplyBatch
// blocks on fsync.
class TcpServer {
 public:
  TcpServer(QueryService* service, TcpServerOptions options);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens, and starts the loop (and writer, when writable).
  Status Start();
  uint16_t port() const { return port_; }

  // Graceful drain: stop admitting connections (new connects get one typed
  // Unavailable frame), let in-flight requests finish and flush, then
  // close. Blocks until every connection is closed or the drain deadline
  // passes — whatever is still wedged then is force-closed (and counted).
  // Idempotent; the destructor calls it.
  void Shutdown();

  TcpServerStats stats() const;

 private:
  struct Connection;
  struct WriteJob;

  void LoopThread();
  void WriterThread();
  void WakeLoop();

  void AcceptPending(ClockInterface::TimePoint now);
  void HandleReadable(const std::shared_ptr<Connection>& conn,
                      ClockInterface::TimePoint now);
  void DispatchFrame(const std::shared_ptr<Connection>& conn, Frame frame,
                     ClockInterface::TimePoint now);
  void CompleteRequest(const std::shared_ptr<Connection>& conn,
                       uint32_t request_id, std::vector<uint8_t> bytes);
  // Appends an encoded response under the connection's lock and flags the
  // loop to flush. Returns false if the connection is already closed.
  bool EnqueueOutbound(const std::shared_ptr<Connection>& conn,
                       std::vector<uint8_t> bytes);
  void FlushConnection(const std::shared_ptr<Connection>& conn,
                       ClockInterface::TimePoint now);
  void CheckDeadlines(ClockInterface::TimePoint now);
  // Cancels in-flight tokens and destroys the connection. `peer_gone`
  // marks a disconnect (counts disconnect_cancels for in-flight work).
  void CloseConnection(const std::shared_ptr<Connection>& conn,
                       bool peer_gone);
  void UpdateEpollInterest(Connection* conn);

  QueryService* const service_;
  const TcpServerOptions options_;
  ClockInterface* const clock_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  ClockInterface::TimePoint drain_deadline_{};

  std::thread loop_thread_;
  std::thread writer_thread_;

  // Owned by the loop thread; completion callbacks hold shared_ptrs to
  // individual connections but never touch this map.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;

  // Writer queue (writable mode only).
  std::mutex write_mu_;
  std::condition_variable write_cv_;
  std::deque<WriteJob> write_jobs_;
  bool write_closed_ = false;

  std::mutex lifecycle_mu_;
  bool shutdown_done_ = false;

  // Requests handed to the service or writer whose completion callback has
  // not yet run. Shutdown waits for this to reach zero before closing fds,
  // so a late worker callback never touches a dead server.
  std::mutex outstanding_mu_;
  std::condition_variable outstanding_cv_;
  uint64_t outstanding_ = 0;

  struct {
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected_overload{0};
    std::atomic<uint64_t> frames_received{0};
    std::atomic<uint64_t> responses_sent{0};
    std::atomic<uint64_t> parse_errors{0};
    std::atomic<uint64_t> disconnect_cancels{0};
    std::atomic<uint64_t> idle_timeouts{0};
    std::atomic<uint64_t> read_timeouts{0};
    std::atomic<uint64_t> write_timeouts{0};
    std::atomic<uint64_t> force_closes{0};
    std::atomic<uint64_t> write_batches{0};
    std::atomic<uint64_t> active{0};
  } s_;
};

}  // namespace bix

#endif  // BIX_NET_TCP_SERVER_H_
