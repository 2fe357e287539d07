#pragma once

// The answer checker.  Every served response is checked from outside the
// daemon: each start lies in [0, W - w], the peak recomputed from the
// starts equals the reported peak, the peak is at least the lower bound
// (recomputed here, not taken from the program), and the payload equals an
// in-process reference solve of the same request.  Answers are compared by
// hash (loadgen.hpp keeps no payloads): the served bytes must hash like the
// reference answer's encoding, and that answer must pass the checks.
// Anything else — busy, error, a wrong answer, no answer — is a failure.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "loadgen.hpp"
#include "requests.hpp"
#include "service/cache.hpp"

namespace perfbench {

/// max(ceil(area / W), tallest item, stacked heights of items wider than
/// W/2): the three-part bound of the paper's Thm. 5 step 1, recomputed
/// independently of the program.
[[nodiscard]] std::int64_t lower_bound(const dsp::Instance& instance);

struct CheckSummary {
  std::size_t ok = 0;
  std::size_t busy = 0;
  std::size_t errors = 0;
  std::size_t wrong = 0;
  std::size_t timeouts = 0;
  std::vector<std::string> problems;  ///< the first few diagnostics
  /// instance id -> served peak / lower bound, for every instance answered.
  std::map<std::size_t, double> ratio;
  /// FNV chain over (peak, winner, starts) of every answer, in request order.
  std::uint64_t checksum = 0xcbf29ce484222325ull;

  [[nodiscard]] std::size_t failed() const {
    return busy + errors + wrong + timeouts;
  }
  void merge(const CheckSummary& other);
};

class AnswerChecker {
 public:
  AnswerChecker(const RequestSource& source,
                const dsp::service::ServeParams& params);

  /// Checks every sample of `step` on `threads` threads.
  [[nodiscard]] CheckSummary check(const StepResult& step,
                                   std::size_t threads);

 private:
  const RequestSource& source_;
  /// Solves requests in-process with the daemon's serving parameters.  A
  /// working-set workload keeps its answers cached (every request after
  /// the first is a permutation of a known instance); a cold one bypasses
  /// the cache.
  std::unique_ptr<dsp::service::CachingSolver> reference_;
};

}  // namespace perfbench
