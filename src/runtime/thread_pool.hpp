#pragma once

// Batch fan-out (DESIGN.md, "Batch fan-out"): parallel_map, the tree's one
// parallel entry point, plus the worker-count rule and the process-wide
// counters the serving layer exports.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dsp::runtime {

/// Monotone fan-out counters, process-wide (scheduler_totals()).  Relaxed:
/// they feed stats rows, never control flow.
struct SchedulerCounters {
  /// Items handed to parallel_map.
  std::uint64_t submitted = 0;
  /// Items whose callable has returned or thrown.
  std::uint64_t executed = 0;
  /// Always 0: nothing steals work any more.  Kept only because the
  /// serving benchmark (perfbench/) still reads it; goes with the next
  /// change to that benchmark.
  std::uint64_t steals = 0;
};

/// Worker count used when hardware concurrency is unknown (reported 0).
inline constexpr std::size_t kUnknownHardwareWorkers = 2;

/// The worker-count rule, exposed as a pure function so the fallback is
/// testable without faking std::thread::hardware_concurrency():
///
///   requested > 0            -> requested (the caller knows best);
///   requested == 0, hw == 0  -> 2 (the standard permits "unknown"; two
///                               workers keep fan-out genuinely concurrent
///                               instead of silently serializing);
///   requested == 0, hw >= 1  -> hw (1-core containers get exactly 1
///                               worker — correctness never depends on
///                               parallelism, only wall-clock does).
[[nodiscard]] constexpr std::size_t resolve_worker_count(
    std::size_t requested, std::size_t reported_hardware) {
  if (requested > 0) return requested;
  if (reported_hardware == 0) return kUnknownHardwareWorkers;
  return reported_hardware;
}

/// resolve_worker_count(0, std::thread::hardware_concurrency()) — always
/// >= 1, and 2 when the hardware width is unknown.
[[nodiscard]] inline std::size_t hardware_threads() {
  return resolve_worker_count(0, std::thread::hardware_concurrency());
}

namespace detail {
inline std::atomic<std::uint64_t> g_submitted{0};
inline std::atomic<std::uint64_t> g_executed{0};
inline std::atomic<std::size_t> g_active{0};
}  // namespace detail

/// Counters accumulated by every parallel_map call so far in this process.
[[nodiscard]] inline SchedulerCounters scheduler_totals() {
  SchedulerCounters totals;
  totals.submitted = detail::g_submitted.load(std::memory_order_relaxed);
  totals.executed = detail::g_executed.load(std::memory_order_relaxed);
  return totals;
}

/// Workers running an item right now, across every parallel_map call in
/// the process (exported as the scheduler.occupancy gauge).
[[nodiscard]] inline std::size_t process_active_workers() {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Applies `fn(item, index)` to every element and returns the results in
/// input order.
///
/// Runs on max(1, min(threads, items.size())) workers, where threads 0
/// means hardware_threads(), and the calling thread is one of them.  Each
/// worker claims the next unclaimed index from one atomic counter, so a
/// slow item never holds up the items behind it.  Each result lands in its
/// input slot, so the output depends on the items and `fn` alone, never on
/// the worker count or on which worker ran which item.
///
/// Every item runs even when some throw; then the first exception in input
/// order is rethrown.  If the system refuses to start a helper thread, the
/// workers already running (the caller at least) still claim every item.
template <typename T, typename F>
auto parallel_map(const std::vector<T>& items, std::size_t threads, F&& fn)
    -> std::vector<std::invoke_result_t<F&, const T&, std::size_t>> {
  using R = std::invoke_result_t<F&, const T&, std::size_t>;
  const std::size_t count = items.size();
  std::vector<std::optional<R>> slots(count);
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  detail::g_submitted.fetch_add(count, std::memory_order_relaxed);
  const auto work = [&]() {
    for (std::size_t i = next++; i < count; i = next++) {
      detail::g_active.fetch_add(1, std::memory_order_relaxed);
      try {
        slots[i].emplace(fn(items[i], i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
      detail::g_active.fetch_sub(1, std::memory_order_relaxed);
      detail::g_executed.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const std::size_t workers = std::max<std::size_t>(
      1, std::min(threads != 0 ? threads : hardware_threads(), count));
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  try {
    while (helpers.size() + 1 < workers) helpers.emplace_back(work);
  } catch (...) {
    // A helper could not start: the workers that did start claim every
    // item, and each is joined below before `work`'s captures go away.
  }
  work();
  for (std::thread& helper : helpers) helper.join();

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::vector<R> results;
  results.reserve(count);
  for (std::optional<R>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace dsp::runtime
