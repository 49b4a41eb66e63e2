#pragma once
// The cluster workload's tablet-server daemons: graphulo_tsd processes
// forked and exec'd by the benchmark, each in a process group of its
// own, killed on every exit path (destructor, fatal signal to the
// benchmark, or the benchmark's own death via PR_SET_PDEATHSIG), so no
// daemon outlives the run that started it.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "distributed/cluster.hpp"

namespace graphbench {

class Daemon {
 public:
  /// Starts one daemon serving `data_dir` and waits (bounded) for its
  /// LISTENING handshake. Throws std::runtime_error on failure.
  Daemon(const std::string& data_dir, std::uint32_t server_index,
         const std::vector<std::string>& boundaries);
  /// Kills the daemon's process group and reaps it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  graphulo::distributed::Endpoint endpoint() const {
    return {"127.0.0.1", port_};
  }
  pid_t pid() const noexcept { return pid_; }

 private:
  void stop() noexcept;

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Installs SIGINT/SIGTERM/SIGHUP handlers that kill every live
/// daemon's process group and exit with 128 + signal.
void install_signal_cleanup();

}  // namespace graphbench
