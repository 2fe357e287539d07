#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/sync.hpp"
#include "util/check.hpp"

namespace dsp::runtime {

/// Monotone scheduler counters, readable while the pool is live.  All
/// counts are best-effort-relaxed (they feed stats rows and benches, never
/// control flow), but each is exact once the pool is destroyed.
struct SchedulerCounters {
  /// Tasks accepted by submit().
  std::uint64_t submitted = 0;
  /// Tasks that ran to completion on some worker.
  std::uint64_t executed = 0;
  /// Successful steals (a task migrated off its assigned worker's deque).
  std::uint64_t steals = 0;
  /// Failed steal probes (victim deque was empty when inspected).
  std::uint64_t steal_fails = 0;
};

/// The pool-sizing rule, exposed as a pure function so the fallback is
/// testable without faking std::thread::hardware_concurrency():
///
///   requested > 0            -> requested (the caller knows best);
///   requested == 0, hw == 0  -> 2 (the standard permits "unknown"; two
///                               workers keep fan-out genuinely concurrent
///                               instead of silently serializing on a
///                               1-worker pool);
///   requested == 0, hw >= 1  -> hw (1-core containers get exactly 1
///                               worker — correctness never depends on
///                               parallelism, only wall-clock does).
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested,
                                               std::size_t reported_hardware);

/// Pool size used when hardware concurrency is unknown (reported 0).
inline constexpr std::size_t kUnknownHardwareWorkers = 2;

struct ThreadPoolOptions {
  /// Worker threads; 0 means hardware_threads().
  std::size_t threads = 0;
  /// Work stealing on (the default) or off.  Off pins every task to the
  /// deque it was placed on — the static-sharding baseline the benches
  /// A/B against, never a correctness knob (results are scheduling-
  /// invariant either way; see DESIGN.md, "The work-stealing scheduler").
  bool stealing = true;
};

/// Fixed-size thread pool behind every parallel entry point of the runtime
/// (DESIGN.md, "The work-stealing scheduler").  Each worker owns a
/// Chase–Lev-style deque — owner end LIFO for tasks it spawns, thief end
/// FIFO — guarded by a per-deque Mutex rather than the lock-free original:
/// tasks here are coarse (one algorithm run, one bisection probe, one
/// batch instance), so a short critical section per pop is noise, and the
/// capability annotations keep the protocol provable under
/// -Wthread-safety.
///
/// Placement: a task submitted from off-pool goes round-robin to the next
/// worker's thief end, so a single worker drains external work in
/// submission order (FIFO).  A task submitted by a pool worker goes to its
/// own owner end (LIFO, cache-warm).  With stealing enabled, an idle worker
/// probes victims in deterministic round-robin order starting from a
/// per-worker seeded offset and takes from the thief end.
///
/// Determinism: stealing moves *where and when* a task runs, never what it
/// computes or how results reduce — every reduction in parallel.hpp runs
/// in fixed input order, so outputs are bit-identical with stealing on or
/// off, for any worker count.
///
/// Exceptions thrown by a task are captured in its future and rethrown at
/// `get()`; a task failure never takes down a worker.
class ThreadPool {
 public:
  /// Spawns `threads` workers with stealing enabled; 0 means
  /// hardware_threads().
  explicit ThreadPool(std::size_t threads = 0)
      : ThreadPool(ThreadPoolOptions{threads, true}) {}
  explicit ThreadPool(const ThreadPoolOptions& options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (always >= 1).
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Whether idle workers steal (fixed at construction).
  [[nodiscard]] bool stealing() const { return stealing_; }

  /// resolve_worker_count(0, std::thread::hardware_concurrency()) — always
  /// >= 1, and 2 when the hardware width is unknown.
  [[nodiscard]] static std::size_t hardware_threads();

  /// Live snapshot of this pool's scheduler counters.
  [[nodiscard]] SchedulerCounters counters() const;

  /// Workers of *this pool* currently running a task (a gauge, not a
  /// counter).  For the cross-pool view, see process_active_workers().
  [[nodiscard]] std::size_t occupancy() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// Enqueues a task and returns the future of its result.  The callable
  /// runs exactly once on some worker; its exception (if any) surfaces at
  /// future.get().
  ///
  /// Submitting to a pool whose destructor has started throws InvalidInput
  /// instead of enqueueing: workers may already have drained their deques
  /// and exited, so a late task's future could otherwise never become
  /// ready and its waiter would deadlock.  (Calling submit concurrently
  /// with the destructor is still caller misuse — the throw turns the
  /// silent-hang interleavings into a loud error.)
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<F>>> submit(
      F&& task) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    enqueue([packaged]() { (*packaged)(); });
    return result;
  }

 private:
  using Task = std::function<void()>;

  /// One worker's deque.  Layout: externals are pushed at the front (the
  /// thief end), owner-spawned tasks at the back (the owner end); the
  /// owner pops the back, thieves pop the front.  So the owner runs its
  /// own spawns newest-first (LIFO) and external work oldest-first (FIFO),
  /// while a thief takes the task the owner would reach last.
  struct WorkerQueue {
    Mutex mutex;
    std::deque<Task> tasks DSP_GUARDED_BY(mutex);
  };

  void enqueue(Task task);
  void worker_loop(std::size_t self);
  [[nodiscard]] bool try_pop_own(std::size_t self, Task& task);
  [[nodiscard]] bool try_steal(std::size_t self, Task& task);
  void run_task(Task& task);

  // Deques and steal cursors are sized before any worker starts and never
  // resized, so the vectors themselves are immutable shared state.  A
  // steal cursor is touched only by its owning worker thread.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::size_t> steal_cursors_;
  std::vector<std::thread> workers_;
  bool stealing_ = true;

  // Central accounting: pending work totals and lifecycle.  Counters are
  // incremented *before* the task lands in its deque and decremented
  // *after* it is popped, so `pending_ > 0` reliably means "a task exists
  // or is about to" and the sleep/exit conditions below cannot miss work.
  Mutex mutex_;
  CondVar work_available_;
  std::ptrdiff_t pending_ DSP_GUARDED_BY(mutex_) = 0;
  std::vector<std::ptrdiff_t> queued_ DSP_GUARDED_BY(mutex_);
  std::size_t next_worker_ DSP_GUARDED_BY(mutex_) = 0;
  bool stopping_ DSP_GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> steal_fails_{0};
  std::atomic<std::size_t> active_{0};
};

/// Scheduler counters accumulated from every pool destroyed so far in this
/// process (transient pools — per-batch, per-solve — die before a stats
/// reader arrives; their work still counts).  Live pools are not included.
[[nodiscard]] SchedulerCounters scheduler_totals();

/// Workers currently running a task across *all* live pools in the
/// process (exported as the scheduler.occupancy gauge).
[[nodiscard]] std::size_t process_active_workers();

}  // namespace dsp::runtime
