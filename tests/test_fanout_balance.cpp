// Load balance of runtime::parallel_map on a skewed batch, measured in
// wall-clock time.  Registered RUN_SERIAL (CMakeLists.txt): a test running
// beside it would delay its sleepers' wake-ups and read as a scheduling
// defect.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace dsp {
namespace {

TEST(ParallelMap, SkewedSleepBatchBalances) {
  // One 40 ms item, then 64 of 4 ms, on 8 workers.  Self-scheduling keeps
  // the light items off the worker holding the heavy one: ~40 ms.  Static
  // sharding pins the heavy item plus 8 light ones on one worker (>= 72 ms),
  // and 72 / 1.5 = 48 ms is the ceiling for the mean of three runs.
  std::vector<std::size_t> indices(65);
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  constexpr int kRuns = 3;
  double total_ms = 0;
  for (int run = 0; run < kRuns; ++run) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<std::size_t> ran = runtime::parallel_map(
        indices, 8, [](const std::size_t& i, std::size_t) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(i == 0 ? 40 : 4));
          return i;
        });
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    EXPECT_EQ(ran, indices);
  }
  EXPECT_LE(total_ms / kRuns, 48.0);
}

}  // namespace
}  // namespace dsp
