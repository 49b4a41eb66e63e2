#include "fleet.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>

namespace graphbench {

namespace {

// Live daemon pids, readable from a signal handler.
std::array<std::atomic<pid_t>, 16> g_daemons{};

void track(pid_t pid) {
  for (auto& slot : g_daemons) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  ::kill(-pid, SIGKILL);
  throw std::runtime_error("graphbench: too many daemons");
}

void untrack(pid_t pid) {
  for (auto& slot : g_daemons) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void kill_tracked() noexcept {
  for (auto& slot : g_daemons) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(-pid, SIGKILL);
  }
}

void on_fatal_signal(int sig) {
  kill_tracked();
  for (auto& slot : g_daemons) {
    const pid_t pid = slot.load();
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  ::_exit(128 + sig);
}

constexpr auto kHandshakeTimeout = std::chrono::seconds(30);

}  // namespace

void install_signal_cleanup() {
  struct sigaction sa {};
  sa.sa_handler = on_fatal_signal;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
}

Daemon::Daemon(const std::string& data_dir, std::uint32_t server_index,
               const std::vector<std::string>& boundaries) {
  std::string joined;
  for (const auto& b : boundaries) {
    if (!joined.empty()) joined += ',';
    joined += b;
  }
  const std::string index = std::to_string(server_index);
  const std::string log_path = data_dir + ".log";
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("graphbench: pipe failed");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("graphbench: fork failed");
  }
  if (pid_ == 0) {
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    const char* argv[] = {GRAPHULO_TSD_PATH, "--port", "0", "--server-index",
                          index.c_str(), "--data-dir", data_dir.c_str(),
                          joined.empty() ? nullptr : "--boundaries",
                          joined.c_str(), nullptr};
    ::execv(GRAPHULO_TSD_PATH, const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::setpgid(pid_, pid_);  // also in the child; whichever runs first wins
  ::close(fds[1]);
  out_fd_ = fds[0];
  track(pid_);

  std::string out;
  const auto deadline = std::chrono::steady_clock::now() + kHandshakeTimeout;
  const std::string marker = "GRAPHULO_TSD LISTENING port=";
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      stop();
      throw std::runtime_error("graphbench: daemon handshake timed out");
    }
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      stop();
      throw std::runtime_error("graphbench: daemon exited before listening (" +
                               log_path + ")");
    }
    out.append(buf, static_cast<std::size_t>(n));
    const auto at = out.find(marker);
    if (at == std::string::npos) continue;
    const auto eol = out.find('\n', at);
    if (eol == std::string::npos) continue;
    const auto start = at + marker.size();
    port_ = static_cast<std::uint16_t>(
        std::stoul(out.substr(start, eol - start)));
    return;
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() noexcept {
  if (pid_ > 0) {
    ::kill(-pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    untrack(pid_);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

}  // namespace graphbench
