#pragma once

// The open-loop load generator.  One thread drives every connection from
// a single poll loop (a second one only encodes frames ahead of it):
// requests are due on a fixed-rate schedule fixed in advance, are written
// to the connection with the fewest outstanding requests whether or not
// earlier ones have been answered, and each latency is taken from the
// request's *intended* send time — so a stall in the daemon shows up in
// every request scheduled behind it instead of silently lowering the
// offered load (coordinated omission).
//
// Connections are opened once and reused for every step: the daemon keeps
// one thread per connection, so a connection per request would measure
// thread creation, not serving.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One request of a step.
struct Sample {
  std::size_t index = 0;      ///< request index (RequestSource numbering)
  std::int64_t intended = 0;  ///< scheduled send time, ns
  std::int64_t sent = 0;      ///< time the frame was queued on its socket
  std::int64_t done = 0;      ///< time the response was complete; 0 = never
  std::uint8_t type = 0;      ///< response frame type
  /// First payload byte (a solve_ok's cache outcome) and the FNV-1a hash
  /// of the rest, so a long run need not keep every answer in memory.
  std::uint8_t head = 0;
  std::uint64_t body_hash = 0;

  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done - intended) * 1e-6;
  }
  [[nodiscard]] double late_ms() const {
    return static_cast<double>(sent - intended) * 1e-6;
  }
};

struct StepResult {
  std::int64_t start = 0;  ///< first intended send time
  std::vector<Sample> samples;
  /// Requests due but not yet answered, at half time and at the end of the
  /// schedule window.
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  bool timed_out = false;  ///< some response missed the drain deadline
  /// More than max_backlog requests were unanswered at once: the step
  /// stopped offering load early (samples holds only what was sent).
  bool aborted = false;
};

class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, std::size_t connections);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Builds the solve frame of request number `index`.
  using FrameBuilder = std::function<std::string(std::size_t index)>;

  /// Offers requests first_index, first_index+1, ... at `rate` per second
  /// for `seconds`, then waits up to `drain_s` for the last answers.  Stops
  /// offering early once more than `max_backlog` requests are unanswered.
  [[nodiscard]] StepResult run_step(const FrameBuilder& build,
                                    std::size_t first_index, double rate,
                                    double seconds, double drain_s,
                                    std::size_t max_backlog);

  /// Sends one frame on the first connection and waits for its answer
  /// (only between steps, when no request is outstanding); returns the
  /// answer's type and payload.
  [[nodiscard]] std::pair<std::uint8_t, std::string> roundtrip(
      std::uint8_t type, const std::string& payload, double timeout_s = 30.0);

  struct Connection;  ///< socket plus its unsent, unparsed and pending state

 private:
  std::vector<Connection> connections_;
};

}  // namespace perfbench
