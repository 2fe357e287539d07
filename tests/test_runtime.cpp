// Batch fan-out (DESIGN.md, "Batch fan-out"): parallel_map's shape and
// error contract, the worker-count rule, pinned batch checksums,
// bit-identity across worker counts and profile backends, and the
// process-wide counters the serving layer exports.  The wall-clock load
// balance check is in test_fanout_balance.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algo/portfolio.hpp"
#include "core/packing.hpp"
#include "gen/families.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "service/cache.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

/// Polls `done` until it holds or 10 s pass.
template <typename Done>
void wait_until(const Done& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

const std::vector<std::size_t> kWorkerCounts = {1, 2, 8};

// ---------------------------------------------------------------------------
// Worker count (hardware_concurrency() == 0 and 1-core hosts).
// ---------------------------------------------------------------------------

TEST(ResolveWorkerCount, ExplicitRequestAlwaysWins) {
  EXPECT_EQ(runtime::resolve_worker_count(4, 0), 4u);
  EXPECT_EQ(runtime::resolve_worker_count(4, 1), 4u);
  EXPECT_EQ(runtime::resolve_worker_count(1, 64), 1u);
}

TEST(ResolveWorkerCount, UnknownHardwareFallsBackToTwo) {
  // hardware_concurrency() == 0 means "unknown", not "none".  Two workers
  // keep a batch genuinely concurrent instead of silently serializing.
  EXPECT_EQ(runtime::resolve_worker_count(0, 0),
            runtime::kUnknownHardwareWorkers);
  EXPECT_EQ(runtime::kUnknownHardwareWorkers, 2u);
}

TEST(ResolveWorkerCount, OneCoreContainerGetsOneWorker) {
  EXPECT_EQ(runtime::resolve_worker_count(0, 1), 1u);
  EXPECT_EQ(runtime::resolve_worker_count(0, 8), 8u);
}

TEST(ResolveWorkerCount, HardwareThreadsIsNeverZero) {
  EXPECT_GE(runtime::hardware_threads(), 1u);
}

// ---------------------------------------------------------------------------
// Shape: every item exactly once, results in input order, at most
// min(threads, items) workers, the caller alone when that is 1.
// ---------------------------------------------------------------------------

class ParallelMapShape
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ParallelMapShape, RunsEveryItemOnceInInputOrder) {
  const auto& [threads, count] = GetParam();
  std::vector<int> items(count);
  for (std::size_t i = 0; i < count; ++i) items[i] = static_cast<int>(3 * i);
  std::vector<std::atomic<int>> runs(count);
  std::vector<std::thread::id> ran_on(count);  // one writer per index
  const std::vector<int> results = runtime::parallel_map(
      items, threads, [&](const int& item, std::size_t index) {
        EXPECT_EQ(item, static_cast<int>(3 * index));
        runs[index].fetch_add(1);
        ran_on[index] = std::this_thread::get_id();
        return item + 1;
      });
  ASSERT_EQ(results.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(results[i], static_cast<int>(3 * i) + 1) << i;
    EXPECT_EQ(runs[i].load(), 1) << i;
  }
  const std::set<std::thread::id> ids(ran_on.begin(), ran_on.end());
  const std::size_t workers = std::max<std::size_t>(
      1, std::min(runtime::resolve_worker_count(
                      threads, std::thread::hardware_concurrency()),
                  count));
  EXPECT_LE(ids.size(), workers);
  if (workers == 1 && count > 0) {
    EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndItems, ParallelMapShape,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{3},
                                         std::size_t{8}),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{5},
                                         std::size_t{64})),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelMap, PreservesInputOrderAndRethrows) {
  const std::vector<int> items = {5, 3, 8, 1, 9};
  const auto doubled = runtime::parallel_map(
      items, 4, [](const int& x, std::size_t) { return 2 * x; });
  EXPECT_EQ(doubled, (std::vector<int>{10, 6, 16, 2, 18}));
  EXPECT_THROW((void)runtime::parallel_map(
                   items, 4,
                   [](const int& x, std::size_t) -> int {
                     if (x == 8) throw std::logic_error("8");
                     return x;
                   }),
               std::logic_error);
}

TEST(ParallelMap, MoveOnlyResultsLandInTheirSlots) {
  const std::vector<int> items = {4, 7, 1};
  const std::vector<std::unique_ptr<int>> boxed = runtime::parallel_map(
      items, 3,
      [](const int& x, std::size_t) { return std::make_unique<int>(x); });
  ASSERT_EQ(boxed.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_NE(boxed[i], nullptr);
    EXPECT_EQ(*boxed[i], items[i]);
  }
}

TEST(ParallelMap, BoolResultsDoNotShareStorage) {
  // std::vector<bool> packs bits, so concurrent writes to neighbouring
  // slots of one would race; results of every type get a slot of their own
  // (the sanitizer jobs run this).
  std::vector<int> items(256);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i);
  }
  const std::vector<bool> odd = runtime::parallel_map(
      items, 8, [](const int& x, std::size_t) { return x % 2 == 1; });
  ASSERT_EQ(odd.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(odd[i], i % 2 == 1) << i;
  }
}

// ---------------------------------------------------------------------------
// Errors: every item runs, then the first error in input order surfaces.
// ---------------------------------------------------------------------------

class ParallelMapErrors : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelMapErrors, RethrowsFirstErrorInInputOrder) {
  // Item 1 throws late, item 3 throws at once: the input-order first error
  // wins even when a later one finishes first.
  const std::vector<int> items = {0, 1, 2, 3};
  try {
    (void)runtime::parallel_map(
        items, GetParam(), [](const int& x, std::size_t) {
          if (x == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            throw std::logic_error("input-order-first");
          }
          if (x == 3) throw std::runtime_error("completion-order-first");
          return x;
        });
    FAIL() << "parallel_map must rethrow";
  } catch (const std::logic_error& error) {
    EXPECT_STREQ(error.what(), "input-order-first");
  }
}

TEST_P(ParallelMapErrors, EveryItemFinishesBeforeTheRethrow) {
  // The callable may reference caller-owned state, so no item may still be
  // running (or never have run) when the error reaches the caller.
  std::vector<int> items(32);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i);
  }
  std::atomic<std::size_t> finished{0};
  EXPECT_THROW((void)runtime::parallel_map(
                   items, GetParam(),
                   [&finished](const int& x, std::size_t) {
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(200));
                     finished.fetch_add(1);
                     if (x % 5 == 0) throw std::runtime_error("fail");
                     return x;
                   }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), items.size());
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelMapErrors,
                         ::testing::ValuesIn(kWorkerCounts),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Self-scheduling: free workers take the items behind a slow one.
// ---------------------------------------------------------------------------

TEST(ParallelMap, FreeWorkersFinishTheRestWhileOneItemBlocks) {
  // Item 0 blocks on a gate; the other workers must drain every remaining
  // item while it is still blocked.
  std::vector<int> items(9);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i);
  }
  std::promise<void> gate;
  const std::shared_future<void> open = gate.get_future().share();
  std::atomic<std::size_t> others_done{0};
  auto batch = std::async(std::launch::async, [&]() {
    return runtime::parallel_map(items, 2, [&](const int& x, std::size_t) {
      if (x == 0) {
        open.wait();
      } else {
        others_done.fetch_add(1);
      }
      return x;
    });
  });
  wait_until([&]() { return others_done.load() == items.size() - 1; });
  EXPECT_EQ(others_done.load(), items.size() - 1)
      << "the light items waited behind the blocked one";
  gate.set_value();
  EXPECT_EQ(batch.get(), items);
}

// ---------------------------------------------------------------------------
// Bit-identity: the same answers for any worker count and either profile
// backend, on a mixed batch and on a skewed one.
// ---------------------------------------------------------------------------

std::vector<Instance> determinism_instances() {
  std::vector<Instance> instances;
  Rng rng(424242);
  instances.push_back(gen::random_uniform(40, 64, 32, 12, rng));
  instances.push_back(gen::tall_items(30, 48, 20, rng));
  instances.push_back(gen::wide_items(24, 48, 8, rng));
  instances.push_back(gen::correlated(32, 64, 32, 12, rng));
  instances.push_back(gen::perfect_packing(25, 40, 20, rng));
  // A wide, lightly covered strip so kAuto resolves to the sparse backend.
  instances.push_back(gen::random_uniform(24, 4096, 6, 10, rng));
  return instances;
}

struct PortfolioAnswer {
  Packing packing;
  Height peak = 0;
  std::string winner;

  [[nodiscard]] bool operator==(const PortfolioAnswer&) const = default;
};

PortfolioAnswer portfolio_answer(const Instance& instance,
                                 ProfileBackendKind backend) {
  PortfolioAnswer answer;
  answer.packing = algo::best_of_portfolio(instance, &answer.winner, backend);
  answer.peak = peak_height(instance, answer.packing);
  return answer;
}

std::vector<PortfolioAnswer> sequential_answers(
    const std::vector<Instance>& batch, ProfileBackendKind backend) {
  std::vector<PortfolioAnswer> answers;
  for (const Instance& instance : batch) {
    answers.push_back(portfolio_answer(instance, backend));
  }
  return answers;
}

class RuntimeDeterminism
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, ProfileBackendKind>> {};

TEST_P(RuntimeDeterminism, ParallelMapMatchesSequentialLoop) {
  const auto& [threads, backend] = GetParam();
  const std::vector<Instance> batch = determinism_instances();
  EXPECT_EQ(runtime::parallel_map(batch, threads,
                                  [backend = backend](const Instance& instance,
                                                      std::size_t) {
                                    return portfolio_answer(instance, backend);
                                  }),
            sequential_answers(batch, backend));
}

TEST_P(RuntimeDeterminism, SolveManyMatchesSequentialLoop) {
  const auto& [threads, backend] = GetParam();
  const std::vector<Instance> batch = determinism_instances();
  service::ServeParams params;
  params.backend = backend;
  params.bypass_cache = true;
  service::CachingSolver sequential(params);
  params.threads = threads;
  service::CachingSolver batched(params);
  const std::vector<service::SolveResponse> responses =
      batched.solve_many(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(responses[i], sequential.solve(batch[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndBackends, RuntimeDeterminism,
    ::testing::Combine(::testing::ValuesIn(kWorkerCounts),
                       ::testing::Values(ProfileBackendKind::kDense,
                                         ProfileBackendKind::kSparse)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(to_string(std::get<1>(info.param)));
    });

std::vector<Instance> skewed_batch(std::uint64_t seed, std::size_t heavy_n,
                                   std::size_t light_n, std::size_t count) {
  std::vector<Instance> batch;
  Rng rng(seed);
  // The heavy instance leads, so whichever worker claims index 0 is busy
  // for most of the batch while the others drain the light tail.
  batch.push_back(gen::random_uniform(heavy_n, 120, 60, 24, rng));
  for (std::size_t b = 1; b < count; ++b) {
    Rng shard = rng.spawn(b);
    batch.push_back(gen::random_uniform(light_n, 120, 60, 24, shard));
  }
  return batch;
}

TEST(SchedulerDeterminism, SkewedBatchesBitIdenticalAcrossSchedules) {
  for (const std::uint64_t seed : {11u, 12u}) {
    // heavy_n/light_n = 40: well inside a 10-100x cost band.
    const std::vector<Instance> batch = skewed_batch(seed, 160, 4, 10);
    for (const ProfileBackendKind backend :
         {ProfileBackendKind::kDense, ProfileBackendKind::kSparse}) {
      const std::vector<PortfolioAnswer> reference =
          sequential_answers(batch, backend);
      for (const std::size_t threads : kWorkerCounts) {
        EXPECT_EQ(runtime::parallel_map(
                      batch, threads,
                      [backend](const Instance& instance, std::size_t) {
                        return portfolio_answer(instance, backend);
                      }),
                  reference)
            << "seed " << seed << " threads " << threads << " backend "
            << static_cast<int>(backend);
      }
    }
  }
}

TEST(SchedulerDeterminism, ParallelMapIdenticalAcrossWorkerCounts) {
  std::vector<int> items(64);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int>(i);
  }
  const auto heavy_square = [](const int& value, std::size_t) {
    // Skewed: item 0 does ~100x the work of the rest.
    std::uint64_t acc = static_cast<std::uint64_t>(value);
    const int spins = value == 0 ? 100'000 : 1'000;
    for (int s = 0; s < spins; ++s) acc = acc * 6364136223846793005ull + 13u;
    return acc;
  };
  const std::vector<std::uint64_t> reference =
      runtime::parallel_map(items, 1, heavy_square);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(runtime::parallel_map(items, threads, heavy_square), reference)
        << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Pinned checksums.
// ---------------------------------------------------------------------------

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

TEST(ParallelMap, PinnedBatchChecksums) {
  // A 64-instance batch with one 4x-size head (n 192 amid n 48), each
  // solved with best_of_portfolio: peaks and every start, in instance
  // order, fold to a constant that no worker count may move.  So does the
  // index fold of a 65-item batch whose item i returns mix(0, i).
  Rng rng(20240613 + 9);
  std::vector<Instance> batch;
  batch.push_back(gen::random_uniform(192, 120, 60, 24, rng));
  for (std::size_t b = 1; b < 64; ++b) {
    Rng shard = rng.spawn(b);
    batch.push_back(gen::random_uniform(48, 120, 60, 24, shard));
  }
  std::vector<std::size_t> indices(65);
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  for (const std::size_t threads : kWorkerCounts) {
    std::uint64_t checksum = 0;
    for (const PortfolioAnswer& answer : runtime::parallel_map(
             batch, threads, [](const Instance& instance, std::size_t) {
               return portfolio_answer(instance, ProfileBackendKind::kAuto);
             })) {
      checksum = mix(checksum, static_cast<std::uint64_t>(answer.peak));
      for (const Length start : answer.packing.start) {
        checksum = mix(checksum, static_cast<std::uint64_t>(start));
      }
    }
    EXPECT_EQ(checksum, 15969027589129456493ull) << "threads " << threads;

    std::uint64_t index_fold = 0;
    for (const std::uint64_t value : runtime::parallel_map(
             indices, threads,
             [](const std::size_t& i, std::size_t) { return mix(0, i); })) {
      index_fold = mix(index_fold, value);
    }
    EXPECT_EQ(index_fold, 8620117184969140611ull) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Counters and the occupancy gauge.
// ---------------------------------------------------------------------------

TEST(SchedulerTotals, ParallelMapCountsEveryItem) {
  const runtime::SchedulerCounters before = runtime::scheduler_totals();
  const std::vector<int> items(16, 3);
  (void)runtime::parallel_map(items, 2,
                              [](const int& x, std::size_t) { return x * x; });
  const runtime::SchedulerCounters after = runtime::scheduler_totals();
  // Other tests of this process may add their own items concurrently.
  EXPECT_GE(after.submitted - before.submitted, 16u);
  EXPECT_GE(after.executed - before.executed, 16u);
  EXPECT_EQ(after.steals, 0u);
}

TEST(SchedulerTotals, OccupancyGaugeTracksRunningItems) {
  std::promise<void> gate;
  const std::shared_future<void> open = gate.get_future().share();
  const std::vector<int> items = {0, 1};
  auto batch = std::async(std::launch::async, [&]() {
    return runtime::parallel_map(items, 2, [&](const int& x, std::size_t) {
      open.wait();
      return x;
    });
  });
  wait_until([]() { return runtime::process_active_workers() >= 2; });
  EXPECT_GE(runtime::process_active_workers(), 2u);
  gate.set_value();
  EXPECT_EQ(batch.get(), items);
}

// ---------------------------------------------------------------------------
// Serving layer: the exported counters, and the ignored stub field.
// ---------------------------------------------------------------------------

TEST(ServingScheduler, CachingSolverExportsSchedulerCounters) {
  service::ServeParams params;
  params.engine = service::ServeEngine::kSolve54;
  service::CachingSolver solver(params, service::CacheOptions{1 << 20, 1});
  Rng rng(913);
  const Instance inst = gen::random_uniform(24, 120, 40, 16, rng);
  (void)solver.solve(inst);
  // The process-total counters are exported through the solver's registry
  // source (exact values depend on what other tests ran in this process);
  // nothing steals, so no steal counters are.
  const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
  const auto exported = [&metrics](const std::string& name) {
    return std::any_of(
        metrics.samples.begin(), metrics.samples.end(),
        [&name](const obs::Sample& s) { return s.name == name; });
  };
  EXPECT_TRUE(exported("scheduler.submitted"));
  EXPECT_TRUE(exported("scheduler.executed"));
  EXPECT_TRUE(exported("scheduler.occupancy"));
  EXPECT_FALSE(exported("scheduler.steals"));
  EXPECT_FALSE(exported("scheduler.steal_fails"));
}

TEST(ServingScheduler, CachingSolverExportsLiveSchedulerOccupancy) {
  // scheduler.occupancy is read at scrape time: the workers running an
  // item right now, across every parallel_map call in the process.
  const service::CachingSolver solver;
  const auto exported_occupancy = []() {
    return obs::parse_exposition(obs::Registry::global().prometheus_text())
        .at("dsp_scheduler_occupancy");
  };
  std::promise<void> gate;
  const std::shared_future<void> open = gate.get_future().share();
  const std::vector<int> items = {0, 1};
  auto batch = std::async(std::launch::async, [&]() {
    return runtime::parallel_map(items, 2, [&](const int& x, std::size_t) {
      open.wait();
      return x;
    });
  });
  wait_until([]() { return runtime::process_active_workers() >= 2; });
  EXPECT_GE(exported_occupancy(), 2u);
  gate.set_value();
  (void)batch.get();
  wait_until([]() { return runtime::process_active_workers() == 0; });
  EXPECT_EQ(exported_occupancy(), 0u);
}

TEST(ServingScheduler, StealingFieldIsIgnored) {
  std::vector<Instance> batch = skewed_batch(914, 96, 16, 6);
  service::ServeParams on;
  on.threads = 4;
  service::ServeParams off = on;
  off.stealing = false;
  service::CachingSolver on_solver(on, service::CacheOptions{1 << 20, 1});
  service::CachingSolver off_solver(off, service::CacheOptions{1 << 20, 1});
  const std::vector<service::SolveResponse> a = on_solver.solve_many(batch);
  const std::vector<service::SolveResponse> b = off_solver.solve_many(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].peak, b[i].peak) << i;
    EXPECT_EQ(a[i].packing.start, b[i].packing.start) << i;
    EXPECT_EQ(a[i].winner, b[i].winner) << i;
  }
}

}  // namespace
}  // namespace dsp
