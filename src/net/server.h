#ifndef CYCLERANK_NET_SERVER_H_
#define CYCLERANK_NET_SERVER_H_

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "platform/gateway.h"
#include "platform/platform_options.h"

namespace cyclerank {
namespace net {

/// Monitoring counters of one `NetServer` (all monotonic).
struct NetServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< over `max_connections`
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t protocol_errors = 0;  ///< poisoned streams + undecodable payloads
  uint64_t events_pushed = 0;    ///< SUBSCRIBE terminal-state pushes
};

/// The TCP front of the platform: a poll()-driven non-blocking event loop
/// speaking the CYRQ1 framed protocol (net/frame.h, net/messages.h,
/// docs/PROTOCOL.md) and serving the full `ApiGateway` surface to remote
/// clients. `cyclerankd` (tools/cyclerankd.cc) is the daemon wrapper; the
/// blocking `NetClient` (net/client.h) is the matching caller.
///
/// Threading model — one owner per piece of state, almost no locks:
///
///  - a single *event-loop thread* (a private 1-thread pool) owns every
///    connection: fds, read-side `FrameDecoder`s, write buffers, parked
///    waits, and subscriptions. No lock guards them — nothing else may
///    touch them;
///  - a pool of `PlatformOptions::io_threads` *handler threads* runs the
///    slow gateway calls (upload/parse, submit, result marshalling) so one
///    fat request cannot stall every connection; finished responses are
///    marshalled back via a mailbox + self-pipe wakeup;
///  - fast calls (status, cancel, subscribe, stats) run inline on the
///    loop;
///  - `WaitForCompletion` and SUBSCRIBE never block any thread: the
///    server parks them and matures them from the gateway's
///    terminal-state listener (`ApiGateway::AddTerminalListener`), which
///    fires once per comparison, when its last task turns terminal. The
///    callback only appends the comparison id to the mailbox and pokes the
///    wakeup pipe — the shape the listener's locking contract demands; the
///    loop then answers the parked waits and reads the comparison's status
///    only if a subscriber needs the EVENT payload.
///
/// Overload posture matches the rest of the platform: a connection past
/// `max_connections` gets a `kUnavailable` ERROR frame and a close; a
/// frame past `max_frame_bytes` is rejected before allocation.
class NetServer {
 public:
  /// `gateway` must outlive the server. `options` supplies `listen_port`
  /// (0 = ephemeral), `max_connections`, `max_frame_bytes`, `io_threads`.
  NetServer(ApiGateway* gateway, const PlatformOptions& options);

  /// Calls `Shutdown()`.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, registers the terminal-state listener, and starts
  /// the event loop. Fails (kUnavailable / kInternal) when the port is
  /// taken or socket setup fails; the server is then inert and may not be
  /// restarted.
  Status Start();

  /// Graceful drain, the SIGTERM path of `cyclerankd`: stop accepting,
  /// answer parked waits with `kUnavailable`, let in-flight handlers
  /// finish, flush write buffers (bounded — a peer that stops reading
  /// cannot wedge shutdown), close everything, join the loop. Idempotent;
  /// safe to call without a successful `Start()`.
  void Shutdown();

  /// The bound TCP port (after `Start()`; the useful form with
  /// `listen_port=0`).
  uint16_t port() const;

  /// Point-in-time counters (cheap, lock-free).
  NetServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace cyclerank

#endif  // CYCLERANK_NET_SERVER_H_
