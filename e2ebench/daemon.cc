#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace cyclerank {
namespace e2ebench {
namespace {

constexpr char kListening[] = "listening on port ";

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Spawn(const std::string& binary,
                                              const std::string& options) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::IOError("e2ebench: pipe failed");
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IOError("e2ebench: fork failed");
  }
  if (pid == 0) {
    // Die with the load generator, so a crashed run leaves no daemon.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(binary.c_str(), binary.c_str(), options.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<Daemon> daemon(new Daemon(pid, fds[0]));

  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return Status::DeadlineExceeded("e2ebench: cyclerankd did not start");
    }
    pollfd pfd{daemon->stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char c = 0;
    if (::read(daemon->stdout_fd_, &c, 1) != 1) {
      return Status::Unavailable("e2ebench: cyclerankd exited at start-up");
    }
    if (c != '\n') {
      line += c;
      continue;
    }
    const size_t at = line.find(kListening);
    if (at != std::string::npos) {
      daemon->port_ = static_cast<uint16_t>(
          std::atoi(line.c_str() + at + sizeof(kListening) - 1));
      return daemon;
    }
    line.clear();
  }
}

Result<double> Daemon::PeakRssMiB() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    std::getline(in, key);
  }
  return Status::NotFound("e2ebench: no VmHWM for pid " +
                          std::to_string(pid_));
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  ::kill(pid_, SIGTERM);
  int wstatus = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &wstatus, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &wstatus, 0);
  }
  ::close(stdout_fd_);
  pid_ = -1;
  if (reaped == 0 || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("e2ebench: cyclerankd did not exit cleanly");
  }
  return Status::OK();
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext2/ext3";
    case 0x794c7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683eUL:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

}  // namespace e2ebench
}  // namespace cyclerank
