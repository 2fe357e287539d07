#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "service/frame_codec.hpp"

namespace perfbench {

namespace frame = dsp::service::frame;

struct LoadGenerator::Connection {
  int fd = -1;
  std::string out;            ///< bytes not yet written
  std::size_t out_offset = 0;
  std::string in;             ///< bytes read, not yet parsed
  std::deque<std::size_t> outstanding;  ///< sample slots, in send order
};

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Acknowledges received data at once instead of on the delayed-ACK timer.
/// The daemon writes answers without TCP_NODELAY, so with several requests
/// in flight on one connection Nagle's algorithm holds each answer until
/// the previous one is acknowledged: a delayed ACK here would put a TCP
/// timer, not the daemon, into every latency.  Linux clears the flag after
/// use, so it is re-armed after every read.
void quickack(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

[[nodiscard]] int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    ::close(fd);
    fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  quickack(fd);
  return fd;
}

/// Writes what the socket takes now; true while bytes remain.
bool flush(LoadGenerator::Connection& c);

}  // namespace

LoadGenerator::LoadGenerator(std::uint16_t port, std::size_t connections)
    : connections_(connections) {
  for (Connection& c : connections_) c.fd = connect_loopback(port);
}

LoadGenerator::~LoadGenerator() {
  for (Connection& c : connections_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

namespace {

bool flush(LoadGenerator::Connection& c) {
  while (c.out_offset < c.out.size()) {
    const ssize_t wrote = ::send(c.fd, c.out.data() + c.out_offset,
                                 c.out.size() - c.out_offset, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      fail("send");
    }
    c.out_offset += static_cast<std::size_t>(wrote);
  }
  c.out.clear();
  c.out_offset = 0;
  return false;
}

/// Reads what is available and completes every whole response frame,
/// oldest outstanding request first (the daemon answers a connection in
/// order).  Returns the number of completed responses.  With `keep`, the
/// payload of the first completed frame is also returned through it.
std::size_t drain_input(LoadGenerator::Connection& c,
                        std::vector<Sample>& samples,
                        std::string* keep = nullptr) {
  std::size_t completed = 0;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t got = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail("recv");
    }
    if (got == 0) throw std::runtime_error("dsp_served closed a connection");
    c.in.append(chunk, static_cast<std::size_t>(got));
  }
  quickack(c.fd);
  const std::int64_t now = now_ns();
  std::size_t offset = 0;
  while (c.in.size() - offset >= frame::kHeaderSize) {
    const frame::Header header = frame::parse_header(c.in.data() + offset);
    const std::size_t total = frame::kHeaderSize + header.length;
    if (c.in.size() - offset < total) break;
    if (c.outstanding.empty()) {
      throw std::runtime_error("response without an outstanding request");
    }
    Sample& sample = samples[c.outstanding.front()];
    c.outstanding.pop_front();
    sample.done = now;
    sample.type = header.type;
    const char* body = c.in.data() + offset + frame::kHeaderSize;
    if (header.length > 0) {
      sample.head = static_cast<std::uint8_t>(body[0]);
      sample.body_hash = fnv1a(std::string_view(body + 1, header.length - 1));
    }
    if (keep != nullptr) keep->assign(body, header.length);
    offset += total;
    ++completed;
  }
  c.in.erase(0, offset);
  return completed;
}

/// Frames built ahead of the schedule on a second thread, so encoding
/// never sits on the send path.  Bounded, so a long step holds only a few
/// hundred frames at a time.
class FrameQueue {
 public:
  FrameQueue(const LoadGenerator::FrameBuilder& build, std::size_t first,
             std::size_t count)
      : producer_([this, &build, first, count] {
          for (std::size_t i = 0; i < count; ++i) {
            std::string frame_bytes = build(first + i);
            std::unique_lock<std::mutex> lock(mutex_);
            space_.wait(lock, [&] { return stop_ || ready_.size() < kDepth; });
            if (stop_) return;
            ready_.push_back(std::move(frame_bytes));
            if (ready_.size() >= kDepth) filled_.notify_all();
          }
          const std::lock_guard<std::mutex> lock(mutex_);
          done_ = true;
          filled_.notify_all();
        }) {}

  ~FrameQueue() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    space_.notify_all();
    producer_.join();
  }

  FrameQueue(const FrameQueue&) = delete;
  FrameQueue& operator=(const FrameQueue&) = delete;

  /// Blocks until the queue is full or every frame is built.
  void wait_until_full() {
    std::unique_lock<std::mutex> lock(mutex_);
    filled_.wait(lock, [&] { return ready_.size() >= kDepth || done_; });
  }

  /// The next frame in request order, if it has been built.
  bool try_pop(std::string& out) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (ready_.empty()) return false;
      out = std::move(ready_.front());
      ready_.pop_front();
    }
    space_.notify_one();
    return true;
  }

 private:
  static constexpr std::size_t kDepth = 256;
  std::mutex mutex_;
  std::condition_variable space_;
  std::condition_variable filled_;
  std::deque<std::string> ready_;
  bool stop_ = false;
  bool done_ = false;
  std::thread producer_;  ///< last: starts once the members above exist
};

}  // namespace

StepResult LoadGenerator::run_step(const FrameBuilder& build,
                                   std::size_t first_index, double rate,
                                   double seconds, double drain_s,
                                   std::size_t max_backlog) {
  StepResult step;
  std::size_t count = static_cast<std::size_t>(rate * seconds + 0.5);
  const double interval_ns = 1e9 / rate;
  // The schedule starts once the producer is a full queue ahead.
  FrameQueue frames(build, first_index, count);
  frames.wait_until_full();
  step.start = now_ns() + 1'000'000;
  step.samples.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    step.samples[i].index = first_index + i;
    step.samples[i].intended =
        step.start + static_cast<std::int64_t>(static_cast<double>(i) *
                                               interval_ns);
  }
  const std::int64_t window_end =
      step.start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t deadline =
      window_end + static_cast<std::int64_t>(drain_s * 1e9);

  std::size_t next = 0;
  std::size_t answered = 0;
  std::vector<pollfd> fds(connections_.size());
  while (answered < count) {
    std::int64_t now = now_ns();
    std::string frame_bytes;
    if (next < count && next - answered > max_backlog) {
      // Hopelessly overloaded: stop offering, keep what was sent.
      step.aborted = true;
      count = next;
      step.samples.resize(count);
      if (answered == count) break;
    }
    while (next < count && step.samples[next].intended <= now &&
           frames.try_pop(frame_bytes)) {
      std::size_t pick = next % connections_.size();
      for (std::size_t k = 0; k < connections_.size(); ++k) {
        if (connections_[k].outstanding.size() <
            connections_[pick].outstanding.size()) {
          pick = k;
        }
      }
      Connection& c = connections_[pick];
      c.out += frame_bytes;
      c.outstanding.push_back(next);
      step.samples[next].sent = now_ns();
      flush(c);
      ++next;
    }
    now = now_ns();
    if (next >= count && now > deadline) {
      step.timed_out = true;
      break;
    }
    // The loop sleeps only until kSpinNs before the next send and polls
    // without sleeping from there: on a virtualized host a sleeping
    // thread's wake-up can come milliseconds late, which would show up as
    // generator lateness, not as daemon latency.  At high rates it never
    // sleeps (one core); once everything is sent it blocks.
    constexpr std::int64_t kSpinNs = 2'000'000;
    const std::int64_t wake =
        next < count ? step.samples[next].intended - kSpinNs : deadline;
    const std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now);
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    for (std::size_t k = 0; k < connections_.size(); ++k) {
      const Connection& c = connections_[k];
      const short events = POLLIN | (c.out.empty() ? 0 : POLLOUT);
      fds[k] = pollfd{c.fd, events, 0};
    }
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      fail("ppoll");
    }
    for (std::size_t k = 0; k < connections_.size(); ++k) {
      if (fds[k].revents & POLLOUT) flush(connections_[k]);
      if (fds[k].revents & (POLLIN | POLLERR | POLLHUP)) {
        answered += drain_input(connections_[k], step.samples);
      }
    }
  }

  const auto backlog_at = [&](std::int64_t t) {
    std::size_t due = 0;
    std::size_t done = 0;
    for (const Sample& s : step.samples) {
      if (s.intended <= t) ++due;
      if (s.done != 0 && s.done <= t) ++done;
    }
    return due - std::min(due, done);
  };
  step.backlog_mid =
      backlog_at(step.start + static_cast<std::int64_t>(seconds * 0.5e9));
  step.backlog_end = backlog_at(window_end);
  return step;
}

std::pair<std::uint8_t, std::string> LoadGenerator::roundtrip(
    std::uint8_t type, const std::string& payload, double timeout_s) {
  Connection& c = connections_.front();
  if (!c.outstanding.empty()) {
    throw std::runtime_error("roundtrip on a busy connection");
  }
  std::vector<Sample> slot(1);
  std::string answer;
  c.out += frame::encode_frame(type, payload);
  c.outstanding.push_back(0);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (slot[0].done == 0) {
    const bool pending = flush(c);
    pollfd pfd{c.fd, static_cast<short>(POLLIN | (pending ? POLLOUT : 0)), 0};
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) throw std::runtime_error("roundtrip timed out");
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) < 0 && errno != EINTR) {
      fail("poll");
    }
    if (pfd.revents & (POLLIN | POLLERR | POLLHUP)) {
      drain_input(c, slot, &answer);
    }
  }
  return {slot[0].type, std::move(answer)};
}

}  // namespace perfbench
