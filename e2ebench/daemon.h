#ifndef CYCLERANK_E2EBENCH_DAEMON_H_
#define CYCLERANK_E2EBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"

namespace cyclerank {
namespace e2ebench {

/// A `cyclerankd` child process listening on an ephemeral port. The
/// destructor stops it; it also dies with the load generator.
class Daemon {
 public:
  /// Starts `binary "<options>"` and waits (up to 60 s) for its
  /// "listening on port N" line. `options` must set `listen_port=0`.
  static Result<std::unique_ptr<Daemon>> Spawn(const std::string& binary,
                                               const std::string& options);
  ~Daemon() { (void)Stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// The daemon's peak resident set (`VmHWM`) so far, in MiB.
  Result<double> PeakRssMiB() const;

  /// SIGTERM (graceful drain), then SIGKILL after 30 s; reaps the child.
  /// Fails when the daemon did not exit cleanly. Idempotent.
  Status Stop();

 private:
  Daemon(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_;
  int stdout_fd_;
  uint16_t port_ = 0;
};

/// Name of the filesystem holding `path` ("tmpfs", "ext2/ext3", ...).
std::string FilesystemType(const std::string& path);

}  // namespace e2ebench
}  // namespace cyclerank

#endif  // CYCLERANK_E2EBENCH_DAEMON_H_
