#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "net/frame.h"
#include "net/messages.h"

namespace cyclerank {
namespace net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// How long a graceful drain may take before connections are closed with
/// unflushed bytes — a peer that stopped reading must not wedge SIGTERM.
constexpr std::chrono::seconds kDrainDeadline{5};

std::string ErrnoMessage(const char* what) {
  return std::string("net: ") + what + " failed: " + std::strerror(errno);
}

/// One work item marshalled to the event-loop thread.
struct MailItem {
  enum Kind {
    kResponse,  ///< a handler thread finished; `frame` goes to `conn_id`
    kDone,      ///< a comparison's last task turned terminal (listener)
    kShutdown,  ///< begin the graceful drain
  };
  Kind kind = kResponse;
  uint64_t conn_id = 0;
  std::string frame;          ///< kResponse: encoded response frame
  std::string comparison_id;  ///< kDone
};

/// The cross-thread mailbox: handler threads and the gateway's
/// terminal-state listener append here and poke the self-pipe; the loop
/// thread drains it. The mutex is deliberately *unranked* — the listener
/// may fire while the caller holds `Scheduler::mu_` (rank 200), so this
/// lock must be free to nest under any rank; its critical sections only
/// move a vector entry and write one pipe byte. Owned by `shared_ptr` so
/// a listener invocation in flight after `Shutdown` hits a closed mailbox
/// instead of freed memory.
struct Mailbox {
  Mutex mu;
  std::vector<MailItem> items CYR_GUARDED_BY(mu);
  int wake_fd CYR_GUARDED_BY(mu) = -1;
  bool closed CYR_GUARDED_BY(mu) = false;

  void Push(MailItem item) {
    MutexLock lock(mu);
    if (closed) return;
    items.push_back(std::move(item));
    if (wake_fd >= 0) {
      const char byte = 1;
      // Nonblocking pipe: EAGAIN just means a wakeup is already pending.
      (void)::write(wake_fd, &byte, 1);
    }
  }
};

/// Per-connection state. Owned exclusively by the event-loop thread —
/// no lock anywhere near it.
struct Connection {
  Connection(int fd_in, uint64_t id_in, size_t max_frame_bytes)
      : fd(fd_in), id(id_in), decoder(max_frame_bytes) {}

  int fd = -1;
  uint64_t id = 0;
  FrameDecoder decoder;
  std::string out;      ///< pending write bytes
  size_t out_pos = 0;   ///< flushed prefix of `out`
  bool close_after_flush = false;
  std::set<std::string> subscriptions;  ///< comparison ids (one-shot)
};

/// A parked WaitForCompletion, matured by its comparison's kDone mail or
/// its deadline.
struct PendingWait {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  std::string comparison_id;
  bool has_deadline = false;
  SteadyClock::time_point deadline;
};

}  // namespace

struct NetServer::Impl {
  Impl(ApiGateway* gateway_in, const PlatformOptions& options_in)
      : gateway(gateway_in), options(options_in) {}

  ApiGateway* const gateway;
  const PlatformOptions options;

  /// Lifecycle state only (Start/Shutdown); never held while the loop
  /// runs. Ranked outermost: Start registers the listener (and thus
  /// reaches StatusService) under it.
  Mutex mu{lock_rank::kNetServerMu, "NetServer::mu"};
  bool started CYR_GUARDED_BY(mu) = false;
  bool shut_down CYR_GUARDED_BY(mu) = false;

  std::shared_ptr<Mailbox> mailbox = std::make_shared<Mailbox>();
  std::unique_ptr<ThreadPool> handler_pool;
  std::unique_ptr<ThreadPool> loop_pool;  ///< exactly one thread: the loop
  std::future<void> loop_done;

  int listen_fd = -1;
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  uint64_t listener_token = 0;
  std::atomic<uint16_t> bound_port{0};
  std::atomic<int> outstanding_handlers{0};

  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> events_pushed{0};

  // ---- Event-loop-thread-owned state (no lock by design) ----------------
  std::map<uint64_t, std::unique_ptr<Connection>> conns;
  std::vector<PendingWait> waits;
  uint64_t next_conn_id = 1;
  bool draining = false;
  SteadyClock::time_point drain_deadline;

  // ---- Loop plumbing ----------------------------------------------------

  void SendFrame(Connection& conn, std::string frame_bytes) {
    conn.out += frame_bytes;
    frames_sent.fetch_add(1, std::memory_order_relaxed);
  }

  void SendError(Connection& conn, uint64_t request_id, Status status) {
    protocol_errors.fetch_add(1, std::memory_order_relaxed);
    SendFrame(conn, EncodeErrorMessage({request_id, std::move(status)}));
  }

  bool MailboxEmpty() {
    MutexLock lock(mailbox->mu);
    return mailbox->items.empty();
  }

  void DrainWakePipe() {
    char buf[256];
    while (::read(wake_read_fd, buf, sizeof(buf)) > 0) {
    }
  }

  void CloseConnection(uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second->fd);
    conns.erase(it);
    for (auto wit = waits.begin(); wit != waits.end();) {
      wit = wit->conn_id == id ? waits.erase(wit) : std::next(wit);
    }
  }

  // ---- Slow requests: decode + gateway call on a handler thread ---------

  void DispatchToPool(Connection& conn, std::string payload,
                      std::function<std::string(std::string_view)> handler) {
    const uint64_t request_id = PeekRequestId(payload);
    const uint64_t conn_id = conn.id;
    auto mb = mailbox;
    outstanding_handlers.fetch_add(1);
    const bool posted = handler_pool->Post(
        [this, conn_id, mb, payload = std::move(payload),
         handler = std::move(handler)] {
          std::string response = handler(payload);
          mb->Push({MailItem::kResponse, conn_id, std::move(response), {}});
          // Decrement after the push: the drain condition is
          // "no outstanding handlers AND empty mailbox", and this order
          // makes the pair appear at-least-once to the loop.
          outstanding_handlers.fetch_sub(1);
        });
    if (!posted) {
      outstanding_handlers.fetch_sub(1);
      SendError(conn, request_id,
                Status::Unavailable("net: server shutting down"));
    }
  }

  void DispatchUpload(Connection& conn, std::string payload) {
    ApiGateway* gw = gateway;
    DispatchToPool(conn, std::move(payload),
                   [gw](std::string_view bytes) -> std::string {
                     auto req = DecodeUploadDatasetRequest(bytes);
                     if (!req.ok()) {
                       return EncodeErrorMessage(
                           {PeekRequestId(bytes), req.status()});
                     }
                     const Status status = gw->datastore()->UploadDataset(
                         req->name, req->content);
                     return EncodeAckResponse(kUploadDatasetResp,
                                              {req->request_id, status});
                   });
  }

  void DispatchSubmit(Connection& conn, std::string payload) {
    ApiGateway* gw = gateway;
    DispatchToPool(conn, std::move(payload),
                   [gw](std::string_view bytes) -> std::string {
                     auto req = DecodeSubmitQuerySetRequest(bytes);
                     if (!req.ok()) {
                       return EncodeErrorMessage(
                           {PeekRequestId(bytes), req.status()});
                     }
                     auto id = gw->SubmitQuerySet(req->query_set);
                     SubmitQuerySetResponse resp;
                     resp.request_id = req->request_id;
                     if (id.ok()) {
                       resp.comparison_id = *id;
                     } else {
                       resp.status = id.status();
                     }
                     return EncodeSubmitQuerySetResponse(resp);
                   });
  }

  void DispatchGetResults(Connection& conn, std::string payload) {
    ApiGateway* gw = gateway;
    DispatchToPool(conn, std::move(payload),
                   [gw](std::string_view bytes) -> std::string {
                     auto req = DecodeComparisonRequest(bytes);
                     if (!req.ok()) {
                       return EncodeErrorMessage(
                           {PeekRequestId(bytes), req.status()});
                     }
                     auto results = gw->GetResults(req->comparison_id);
                     GetResultsResponse resp;
                     resp.request_id = req->request_id;
                     if (results.ok()) {
                       resp.results = std::move(results).value();
                     } else {
                       resp.status = results.status();
                     }
                     return EncodeGetResultsResponse(resp);
                   });
  }

  // ---- Fast requests: inline on the loop thread -------------------------

  void HandleGetStatus(Connection& conn, std::string_view payload) {
    auto req = DecodeComparisonRequest(payload);
    if (!req.ok()) {
      SendError(conn, PeekRequestId(payload), req.status());
      return;
    }
    auto status = gateway->GetStatus(req->comparison_id);
    GetStatusResponse resp;
    resp.request_id = req->request_id;
    if (status.ok()) {
      resp.comparison = std::move(status).value();
    } else {
      resp.status = status.status();
    }
    SendFrame(conn, EncodeGetStatusResponse(resp));
  }

  void HandleCancel(Connection& conn, std::string_view payload) {
    auto req = DecodeComparisonRequest(payload);
    if (!req.ok()) {
      SendError(conn, PeekRequestId(payload), req.status());
      return;
    }
    const Status status = gateway->Cancel(req->comparison_id);
    SendFrame(conn,
              EncodeAckResponse(kCancelResp, {req->request_id, status}));
  }

  void HandleSubscribe(Connection& conn, std::string_view payload) {
    auto req = DecodeComparisonRequest(payload);
    if (!req.ok()) {
      SendError(conn, PeekRequestId(payload), req.status());
      return;
    }
    auto status = gateway->GetStatus(req->comparison_id);
    if (!status.ok()) {
      SendFrame(conn, EncodeAckResponse(kSubscribeResp,
                                        {req->request_id, status.status()}));
      return;
    }
    SendFrame(conn, EncodeAckResponse(kSubscribeResp,
                                      {req->request_id, Status::OK()}));
    if (status->done) {
      // Already terminal: push immediately instead of parking a
      // subscription no event will ever mature.
      events_pushed.fetch_add(1, std::memory_order_relaxed);
      SendFrame(conn, EncodeEventMessage({std::move(status).value()}));
    } else {
      conn.subscriptions.insert(req->comparison_id);
    }
  }

  void HandleWait(Connection& conn, std::string_view payload) {
    auto req = DecodeWaitRequest(payload);
    if (!req.ok()) {
      SendError(conn, PeekRequestId(payload), req.status());
      return;
    }
    auto status = gateway->GetStatus(req->comparison_id);
    WaitResponse resp;
    resp.request_id = req->request_id;
    if (!status.ok()) {
      resp.status = status.status();
      SendFrame(conn, EncodeWaitResponse(resp));
      return;
    }
    if (status->done) {
      resp.done = true;
      SendFrame(conn, EncodeWaitResponse(resp));
      return;
    }
    if (draining) {
      resp.status = Status::Unavailable("net: server draining");
      SendFrame(conn, EncodeWaitResponse(resp));
      return;
    }
    PendingWait wait;
    wait.conn_id = conn.id;
    wait.request_id = req->request_id;
    wait.comparison_id = req->comparison_id;
    if (req->timeout_ms != 0) {
      wait.has_deadline = true;
      wait.deadline =
          SteadyClock::now() + std::chrono::milliseconds(req->timeout_ms);
    }
    waits.push_back(std::move(wait));
  }

  void HandleStats(Connection& conn, std::string_view payload) {
    auto req = DecodeStatsRequest(payload);
    if (!req.ok()) {
      SendError(conn, PeekRequestId(payload), req.status());
      return;
    }
    // Sorted keys, one per line — grep-friendly and deterministic.
    std::string text;
    const auto add = [&text](const char* key, uint64_t value) {
      text += std::string(key) + "=" + std::to_string(value) + "\n";
    };
    add("connections_accepted", connections_accepted.load());
    add("connections_active", conns.size());
    add("connections_rejected", connections_rejected.load());
    add("events_pushed", events_pushed.load());
    add("frames_received", frames_received.load());
    add("frames_sent", frames_sent.load());
    add("num_workers", gateway->num_workers());
    add("pending_waits", waits.size());
    add("protocol_errors", protocol_errors.load());
    add("stored_results", gateway->datastore()->NumStoredResults());
    add("uploaded_datasets", gateway->datastore()->UploadedDatasets().size());
    SendFrame(conn, EncodeStatsResponse(
                        {req->request_id, Status::OK(), std::move(text)}));
  }

  void HandleFrame(Connection& conn, Frame frame) {
    frames_received.fetch_add(1, std::memory_order_relaxed);
    switch (frame.type) {
      case kUploadDatasetReq:
        DispatchUpload(conn, std::move(frame.payload));
        break;
      case kSubmitQuerySetReq:
        DispatchSubmit(conn, std::move(frame.payload));
        break;
      case kGetResultsReq:
        DispatchGetResults(conn, std::move(frame.payload));
        break;
      case kGetStatusReq:
        HandleGetStatus(conn, frame.payload);
        break;
      case kWaitReq:
        HandleWait(conn, frame.payload);
        break;
      case kCancelReq:
        HandleCancel(conn, frame.payload);
        break;
      case kSubscribeReq:
        HandleSubscribe(conn, frame.payload);
        break;
      case kStatsReq:
        HandleStats(conn, frame.payload);
        break;
      default:
        // Well-framed but unknown: answer ERROR and keep the connection —
        // a newer client probing an optional message must not be
        // disconnected (docs/PROTOCOL.md § "Versioning").
        SendError(conn, PeekRequestId(frame.payload),
                  Status::Unimplemented("net: unknown frame type " +
                                        std::to_string(frame.type)));
        break;
    }
  }

  /// Reads everything available, decodes frames, dispatches. Returns
  /// false when the connection must close now (EOF or fatal error).
  bool ReadFromConnection(Connection& conn) {
    if (conn.close_after_flush) return true;  // ignore further input
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (n == 0) return false;  // peer closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    Frame frame;
    Status error;
    for (;;) {
      const FrameDecoder::Outcome outcome = conn.decoder.Next(&frame, &error);
      if (outcome == FrameDecoder::Outcome::kNeedMoreBytes) break;
      if (outcome == FrameDecoder::Outcome::kProtocolError) {
        // Corrupt stream: one ERROR frame naming the violation, then
        // close once it is flushed. Never a crash, never a guess at
        // resynchronization.
        SendError(conn, 0, error);
        conn.close_after_flush = true;
        break;
      }
      HandleFrame(conn, std::move(frame));
      if (conn.close_after_flush) break;
    }
    return true;
  }

  /// Writes as much buffered output as the socket accepts. Returns false
  /// on a fatal socket error.
  bool FlushConnection(Connection& conn) {
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_pos,
                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    } else if (conn.out_pos > (1u << 16)) {
      conn.out.erase(0, conn.out_pos);
      conn.out_pos = 0;
    }
    return true;
  }

  void AcceptNew() {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN — drained the backlog
      }
      if (options.max_connections != 0 &&
          conns.size() >= options.max_connections) {
        connections_rejected.fetch_add(1, std::memory_order_relaxed);
        // Best-effort courtesy: say why before closing. A full socket
        // buffer just means the peer sees a bare close instead.
        const std::string err = EncodeErrorMessage(
            {0, Status::Unavailable(
                    "net: server at max_connections=" +
                    std::to_string(options.max_connections))});
        (void)::send(fd, err.data(), err.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      connections_accepted.fetch_add(1, std::memory_order_relaxed);
      int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const uint64_t id = next_conn_id++;
      conns.emplace(id, std::make_unique<Connection>(
                            fd, id, options.max_frame_bytes));
    }
  }

  /// `comparison_id` just turned done: push its EVENT to subscribers and
  /// answer its parked waits. Runs on the loop thread with no locks held,
  /// so the gateway call is rank-clean.
  void NotifyDone(const std::string& comparison_id) {
    std::string event;  // encoded for the first subscriber, then reused
    for (auto& [id, conn] : conns) {
      if (conn->subscriptions.erase(comparison_id) == 0) continue;
      if (event.empty()) {
        auto status = gateway->GetStatus(comparison_id);
        // Only a rolled-back submission, whose id was never handed out,
        // erases its record.
        if (!status.ok()) continue;
        event = EncodeEventMessage({std::move(status).value()});
      }
      events_pushed.fetch_add(1, std::memory_order_relaxed);
      SendFrame(*conn, event);
    }
    for (auto it = waits.begin(); it != waits.end();) {
      if (it->comparison_id != comparison_id) {
        ++it;
        continue;
      }
      auto cit = conns.find(it->conn_id);
      if (cit != conns.end()) {
        SendFrame(*cit->second,
                  EncodeWaitResponse({it->request_id, Status::OK(), true}));
      }
      it = waits.erase(it);
    }
  }

  void BeginDrain() {
    if (draining) return;
    draining = true;
    drain_deadline = SteadyClock::now() + kDrainDeadline;
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    for (const PendingWait& wait : waits) {
      auto it = conns.find(wait.conn_id);
      if (it == conns.end()) continue;
      SendFrame(*it->second,
                EncodeWaitResponse(
                    {wait.request_id,
                     Status::Unavailable("net: server draining"), false}));
    }
    waits.clear();
  }

  void ProcessMail() {
    std::vector<MailItem> items;
    {
      MutexLock lock(mailbox->mu);
      items.swap(mailbox->items);
    }
    for (MailItem& item : items) {
      switch (item.kind) {
        case MailItem::kResponse: {
          auto it = conns.find(item.conn_id);
          if (it != conns.end()) {
            SendFrame(*it->second, std::move(item.frame));
          }
          break;
        }
        case MailItem::kDone:
          NotifyDone(item.comparison_id);
          break;
        case MailItem::kShutdown:
          BeginDrain();
          break;
      }
    }
  }

  void ExpireWaits() {
    if (waits.empty()) return;
    const auto now = SteadyClock::now();
    for (auto it = waits.begin(); it != waits.end();) {
      if (!it->has_deadline || now < it->deadline) {
        ++it;
        continue;
      }
      auto cit = conns.find(it->conn_id);
      if (cit != conns.end()) {
        // Timeout mirrors WaitForCompletion: OK status, done=false.
        SendFrame(*cit->second,
                  EncodeWaitResponse({it->request_id, Status::OK(), false}));
      }
      it = waits.erase(it);
    }
  }

  int ComputeTimeoutMs() const {
    if (draining) return 20;
    bool any_deadline = false;
    auto nearest = SteadyClock::time_point::max();
    for (const PendingWait& wait : waits) {
      if (wait.has_deadline && wait.deadline < nearest) {
        any_deadline = true;
        nearest = wait.deadline;
      }
    }
    if (!any_deadline) return -1;  // the self-pipe wakes us for everything else
    const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
                           nearest - SteadyClock::now())
                           .count();
    if (delta <= 0) return 0;
    return static_cast<int>(std::min<long long>(delta + 1, 60'000));
  }

  void Loop() {
    for (;;) {
      std::vector<pollfd> fds;
      std::vector<uint64_t> fd_conn;  // conn id per index; 0 = not a conn
      fds.push_back({wake_read_fd, POLLIN, 0});
      fd_conn.push_back(0);
      const bool watch_listen = !draining && listen_fd >= 0;
      if (watch_listen) {
        fds.push_back({listen_fd, POLLIN, 0});
        fd_conn.push_back(0);
      }
      for (const auto& [id, conn] : conns) {
        short events = POLLIN;
        if (conn->out_pos < conn->out.size()) events |= POLLOUT;
        fds.push_back({conn->fd, events, 0});
        fd_conn.push_back(id);
      }
      (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   ComputeTimeoutMs());

      if ((fds[0].revents & POLLIN) != 0) DrainWakePipe();
      ProcessMail();
      size_t index = 1;
      if (watch_listen) {
        if (!draining && (fds[index].revents & POLLIN) != 0) AcceptNew();
        ++index;
      }
      std::vector<uint64_t> to_close;
      for (; index < fds.size(); ++index) {
        const uint64_t id = fd_conn[index];
        auto it = conns.find(id);
        if (it == conns.end()) continue;  // closed mid-iteration
        Connection& conn = *it->second;
        if ((fds[index].revents & POLLNVAL) != 0) {
          to_close.push_back(id);
          continue;
        }
        if ((fds[index].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          if (!ReadFromConnection(conn)) {
            to_close.push_back(id);
            continue;
          }
        }
        if (conn.out_pos < conn.out.size()) {
          if (!FlushConnection(conn)) {
            to_close.push_back(id);
            continue;
          }
        }
        if (conn.close_after_flush && conn.out_pos >= conn.out.size()) {
          to_close.push_back(id);
        }
      }
      for (const uint64_t id : to_close) CloseConnection(id);
      ExpireWaits();

      if (draining) {
        ProcessMail();  // late handler responses
        const bool handlers_idle =
            outstanding_handlers.load() == 0 && MailboxEmpty();
        bool flushed = true;
        for (const auto& [id, conn] : conns) {
          if (conn->out_pos < conn->out.size()) {
            flushed = false;
            break;
          }
        }
        if ((handlers_idle && flushed) ||
            SteadyClock::now() >= drain_deadline) {
          break;
        }
      }
    }
    for (const auto& [id, conn] : conns) ::close(conn->fd);
    conns.clear();
    waits.clear();
  }
};

NetServer::NetServer(ApiGateway* gateway, const PlatformOptions& options)
    : impl_(std::make_unique<Impl>(gateway, options)) {}

NetServer::~NetServer() { Shutdown(); }

Status NetServer::Start() {
  Impl& impl = *impl_;
  MutexLock lock(impl.mu);
  if (impl.started || impl.shut_down) {
    return Status::FailedPrecondition(
        "net: server already started or shut down");
  }

  impl.listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (impl.listen_fd < 0) return Status::Internal(ErrnoMessage("socket()"));
  int one = 1;
  (void)::setsockopt(impl.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(impl.options.listen_port);
  if (::bind(impl.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(impl.listen_fd, 128) != 0) {
    const Status status = Status::Unavailable(
        "net: cannot listen on port " +
        std::to_string(impl.options.listen_port) + ": " +
        std::strerror(errno));
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(impl.listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status status = Status::Internal(ErrnoMessage("getsockname()"));
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return status;
  }
  impl.bound_port.store(ntohs(bound.sin_port));

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    const Status status = Status::Internal(ErrnoMessage("pipe2()"));
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return status;
  }
  impl.wake_read_fd = pipe_fds[0];
  impl.wake_write_fd = pipe_fds[1];
  {
    MutexLock mail_lock(impl.mailbox->mu);
    impl.mailbox->wake_fd = impl.wake_write_fd;
  }

  impl.handler_pool = std::make_unique<ThreadPool>(
      impl.options.io_threads == 0 ? 1 : impl.options.io_threads);
  impl.loop_pool = std::make_unique<ThreadPool>(1);
  // The listener only appends to the unranked mailbox and pokes the pipe —
  // the exact shape StatusService's locking contract demands, because it
  // may run under Scheduler::mu_.
  auto mb = impl.mailbox;
  impl.listener_token = impl.gateway->AddTerminalListener(
      [mb](const std::string& comparison_id) {
        mb->Push({MailItem::kDone, 0, {}, comparison_id});
      });
  Impl* raw = impl_.get();
  impl.loop_done = impl.loop_pool->Submit([raw] { raw->Loop(); });
  impl.started = true;
  return Status::OK();
}

void NetServer::Shutdown() {
  Impl& impl = *impl_;
  bool was_started = false;
  {
    MutexLock lock(impl.mu);
    if (impl.shut_down) return;
    impl.shut_down = true;
    was_started = impl.started;
  }
  if (!was_started) return;
  // Stop the event source first: no new terminal mail after this (an
  // invocation already in flight lands in the still-open mailbox and is
  // processed or discarded during the drain).
  impl.gateway->RemoveTerminalListener(impl.listener_token);
  impl.mailbox->Push({MailItem::kShutdown, 0, {}, {}});
  if (impl.loop_done.valid()) impl.loop_done.wait();
  {
    MutexLock lock(impl.mailbox->mu);
    impl.mailbox->closed = true;
    impl.mailbox->wake_fd = -1;
  }
  // Handler tasks still queued finish against the closed mailbox (their
  // responses are dropped — their connections are gone anyway).
  impl.handler_pool->Shutdown();
  impl.loop_pool->Shutdown();
  ::close(impl.wake_read_fd);
  ::close(impl.wake_write_fd);
  impl.wake_read_fd = impl.wake_write_fd = -1;
}

uint16_t NetServer::port() const { return impl_->bound_port.load(); }

NetServerStats NetServer::stats() const {
  const Impl& impl = *impl_;
  NetServerStats stats;
  stats.connections_accepted = impl.connections_accepted.load();
  stats.connections_rejected = impl.connections_rejected.load();
  stats.frames_received = impl.frames_received.load();
  stats.frames_sent = impl.frames_sent.load();
  stats.protocol_errors = impl.protocol_errors.load();
  stats.events_pushed = impl.events_pushed.load();
  return stats;
}

}  // namespace net
}  // namespace cyclerank
