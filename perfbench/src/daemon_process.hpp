#pragma once

// The dsp_served child process: launched from its binary with the
// workload's flags, timed from spawn to its "ready" row, and stopped with
// SIGTERM (the graceful drain) and reaped before the benchmark exits.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class DaemonProcess {
 public:
  /// Spawns `binary args...` (stdout piped, stderr to `stderr_path`) and
  /// blocks until the ready row arrives.  Throws std::runtime_error when
  /// the daemon exits or stays silent for `timeout_s`.
  DaemonProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& stderr_path, double timeout_s = 60.0);
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Spawn -> ready row, in seconds.
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }

  /// VmHWM (peak resident set) of the live daemon, in MiB.
  [[nodiscard]] double peak_rss_mb() const;

  /// User + system CPU time the live daemon has used so far, in seconds.
  [[nodiscard]] double cpu_seconds() const;

  /// SIGTERM, then waits for the drain and the exit.  Returns true when the
  /// daemon exited 0.  Idempotent.
  bool stop(double timeout_s = 60.0);

 private:
  [[nodiscard]] std::string read_line(double timeout_s);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string buffered_;
  std::uint16_t port_ = 0;
  double setup_seconds_ = 0.0;
};

}  // namespace perfbench
