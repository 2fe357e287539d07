#include "daemon_process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common.hpp"

extern char** environ;

namespace perfbench {

DaemonProcess::DaemonProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& stderr_path,
                             double timeout_s) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> argv_storage{binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const std::int64_t start = now_ns();
  const int spawned = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                    argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (spawned != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(spawned));
  }
  try {
    for (;;) {
      std::string line = read_line(timeout_s);
      if (line.find("\"dsp_served\":\"ready\"") == std::string::npos) {
        continue;
      }
      setup_seconds_ = static_cast<double>(now_ns() - start) * 1e-9;
      const std::size_t at = line.find("\"port\":");
      if (at == std::string::npos) {
        throw std::runtime_error("ready row lacks port");
      }
      port_ = static_cast<std::uint16_t>(std::stoul(line.substr(at + 7)));
      return;
    }
  } catch (...) {
    // The destructor never runs for a throwing constructor: reap here.
    stop(5.0);
    ::close(stdout_fd_);
    throw;
  }
}

DaemonProcess::~DaemonProcess() {
  stop();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

std::string DaemonProcess::read_line(double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    const std::size_t newline = buffered_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffered_.substr(0, newline);
      buffered_.erase(0, newline + 1);
      return line;
    }
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) throw std::runtime_error("dsp_served: no output in time");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
    if (pfd.revents == 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(stdout_fd_, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) throw std::runtime_error("dsp_served exited before ready");
    buffered_.append(chunk, static_cast<std::size_t>(got));
  }
}

double DaemonProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double DaemonProcess::cpu_seconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  std::istringstream fields(text.substr(text.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool DaemonProcess::stop(double timeout_s) {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (done < 0 && errno != EINTR) break;
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    ::usleep(2000);
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
