// The work-stealing scheduler and the adaptive-parallelism controller
// (DESIGN.md, "The work-stealing scheduler"): deque protocol order,
// forced steals vs. the static-sharding baseline, pool-sizing fallbacks,
// the AutoTuner's integer EWMA and decision rules, determinism of skewed
// batches across thread counts x stealing modes x backends, and the
// process-wide counter plumbing the serving layer reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "approx/solve54.hpp"
#include "gen/families.hpp"
#include "obs/metrics.hpp"
#include "runtime/autotune.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "service/cache.hpp"
#include "util/prng.hpp"

namespace dsp {
namespace {

// ---------------------------------------------------------------------------
// Pool sizing (satellite: hardware_concurrency() == 0 and 1-core hosts).
// ---------------------------------------------------------------------------

TEST(ResolveWorkerCount, ExplicitRequestAlwaysWins) {
  EXPECT_EQ(runtime::resolve_worker_count(4, 0), 4u);
  EXPECT_EQ(runtime::resolve_worker_count(4, 1), 4u);
  EXPECT_EQ(runtime::resolve_worker_count(1, 64), 1u);
}

TEST(ResolveWorkerCount, UnknownHardwareFallsBackToTwo) {
  // hardware_concurrency() == 0 means "unknown", not "none".  Two workers
  // keep the overlap paths (bound task + witness task) genuinely
  // concurrent instead of silently serializing.
  EXPECT_EQ(runtime::resolve_worker_count(0, 0),
            runtime::kUnknownHardwareWorkers);
  EXPECT_EQ(runtime::kUnknownHardwareWorkers, 2u);
}

TEST(ResolveWorkerCount, OneCoreContainerGetsOneWorker) {
  EXPECT_EQ(runtime::resolve_worker_count(0, 1), 1u);
  EXPECT_EQ(runtime::resolve_worker_count(0, 8), 8u);
}

TEST(ResolveWorkerCount, HardwareThreadsIsNeverZero) {
  EXPECT_GE(runtime::ThreadPool::hardware_threads(), 1u);
}

// ---------------------------------------------------------------------------
// Deque protocol: externals drain FIFO, own spawns drain LIFO.
// ---------------------------------------------------------------------------

TEST(SchedulerProtocol, ExternalTasksDrainInSubmissionOrder) {
  // One worker, gated so all three tasks are queued before any runs.  The
  // solve54 overlap path relies on exactly this FIFO (bound task before
  // witness task on a 1-worker pool).
  runtime::ThreadPool pool(runtime::ThreadPoolOptions{1, true});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::vector<std::string> order;  // single worker: appends are serial
  auto blocker = pool.submit([open]() { open.wait(); });
  auto a = pool.submit([&order]() { order.push_back("a"); });
  auto b = pool.submit([&order]() { order.push_back("b"); });
  auto c = pool.submit([&order]() { order.push_back("c"); });
  gate.set_value();
  blocker.get();
  a.get();
  b.get();
  c.get();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SchedulerProtocol, OwnerSpawnsDrainNewestFirst) {
  // A task spawned by a pool worker goes to the owner (LIFO, cache-warm)
  // end of its own deque: the spawner's most recent child runs first.
  runtime::ThreadPool pool(runtime::ThreadPoolOptions{1, true});
  std::vector<std::string> order;
  std::future<void> s1, s2;
  pool.submit([&]() {
        s1 = pool.submit([&order]() { order.push_back("s1"); });
        s2 = pool.submit([&order]() { order.push_back("s2"); });
        order.push_back("parent");
      })
      .get();
  s1.get();
  s2.get();
  EXPECT_EQ(order, (std::vector<std::string>{"parent", "s2", "s1"}));
}

// ---------------------------------------------------------------------------
// Stealing vs. the static baseline.
// ---------------------------------------------------------------------------

TEST(SchedulerStealing, IdleWorkerStealsFromBlockedVictim) {
  // Worker 0 is parked on a gate; its queued tasks must migrate to worker
  // 1, so they complete while the victim is still blocked.
  runtime::ThreadPool pool(runtime::ThreadPoolOptions{2, true});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  // Round-robin placement: first external lands on worker 0.
  auto blocker = pool.submit([open]() { open.wait(); });
  std::vector<std::future<int>> work;
  for (int i = 0; i < 8; ++i) {
    work.push_back(pool.submit([i]() { return i; }));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(work[static_cast<std::size_t>(i)].get(), i);
  }
  // Half the tasks were placed on the blocked worker 0: finishing them all
  // before the gate opens is only possible by stealing.
  EXPECT_GE(pool.counters().steals, 1u);
  gate.set_value();
  blocker.get();
}

TEST(SchedulerStealing, StaticModeNeverSteals) {
  runtime::ThreadPool pool(runtime::ThreadPoolOptions{2, false});
  EXPECT_FALSE(pool.stealing());
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([open]() { open.wait(); });
  std::vector<std::future<int>> work;
  for (int i = 0; i < 8; ++i) {
    work.push_back(pool.submit([i]() { return i; }));
  }
  // Worker 1's share completes; worker 0's waits for the gate — pinned.
  gate.set_value();
  blocker.get();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(work[static_cast<std::size_t>(i)].get(), i);
  }
  const runtime::SchedulerCounters counters = pool.counters();
  EXPECT_EQ(counters.steals, 0u);
  EXPECT_EQ(counters.steal_fails, 0u);
  EXPECT_EQ(counters.submitted, 9u);
  EXPECT_EQ(counters.executed, 9u);
}

TEST(SchedulerStealing, CountersAccumulateIntoProcessTotals) {
  const runtime::SchedulerCounters before = runtime::scheduler_totals();
  {
    runtime::ThreadPool pool(runtime::ThreadPoolOptions{2, true});
    std::vector<std::future<int>> work;
    for (int i = 0; i < 16; ++i) {
      work.push_back(pool.submit([i]() { return i * i; }));
    }
    for (auto& future : work) (void)future.get();
  }  // destruction folds this pool's counters into the totals
  const runtime::SchedulerCounters after = runtime::scheduler_totals();
  EXPECT_GE(after.submitted - before.submitted, 16u);
  EXPECT_GE(after.executed - before.executed, 16u);
}

TEST(SchedulerStealing, OccupancyGaugeTracksRunningTasks) {
  runtime::ThreadPool pool(runtime::ThreadPoolOptions{2, true});
  EXPECT_EQ(pool.occupancy(), 0u);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto a = pool.submit([open]() { open.wait(); });
  auto b = pool.submit([open]() { open.wait(); });
  // Both workers should pick up a gated task; poll briefly (the gauge is
  // monotone here until the gate opens).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.occupancy() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.occupancy(), 2u);
  EXPECT_GE(runtime::process_active_workers(), 2u);
  gate.set_value();
  a.get();
  b.get();
}

// ---------------------------------------------------------------------------
// Determinism under skew: one 10-100x heavier instance amid cheap ones,
// bit-identical across thread counts x stealing modes x backends.
// ---------------------------------------------------------------------------

std::vector<Instance> skewed_batch(std::uint64_t seed, std::size_t heavy_n,
                                   std::size_t light_n, std::size_t count) {
  std::vector<Instance> batch;
  Rng rng(seed);
  // The heavy instance leads, so static round-robin pins it plus a light
  // tail on worker 0 — the worst case stealing must not change results on.
  batch.push_back(gen::random_uniform(heavy_n, 120, 60, 24, rng));
  for (std::size_t b = 1; b < count; ++b) {
    Rng shard = rng.spawn(b);
    batch.push_back(gen::random_uniform(light_n, 120, 60, 24, shard));
  }
  return batch;
}

TEST(SchedulerDeterminism, SkewedBatchesBitIdenticalAcrossSchedules) {
  for (const std::uint64_t seed : {11u, 12u}) {
    // heavy_n/light_n = 40: well inside the issue's 10-100x cost band.
    const std::vector<Instance> batch = skewed_batch(seed, 160, 4, 10);
    for (const ProfileBackendKind backend :
         {ProfileBackendKind::kDense, ProfileBackendKind::kSparse}) {
      // Reference: 1 worker, no stealing — equivalent to the sequential
      // loop by the parallel_map input-order reduction.
      std::vector<runtime::BatchResult> reference;
      {
        runtime::ThreadPool pool(runtime::ThreadPoolOptions{1, false});
        reference = runtime::solve_many(pool, batch, backend);
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{8}}) {
        for (const bool stealing : {false, true}) {
          runtime::ThreadPool pool(
              runtime::ThreadPoolOptions{threads, stealing});
          EXPECT_EQ(runtime::solve_many(pool, batch, backend), reference)
              << "seed " << seed << " threads " << threads << " stealing "
              << stealing << " backend " << static_cast<int>(backend);
        }
      }
    }
  }
}

TEST(SchedulerDeterminism, ParallelMapIdenticalWithAndWithoutStealing) {
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
  std::vector<std::uint64_t> reference;
  {
    runtime::ThreadPool pool(runtime::ThreadPoolOptions{1, false});
    reference = runtime::parallel_map(pool, items, heavy_square);
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    for (const bool stealing : {false, true}) {
      runtime::ThreadPool pool(runtime::ThreadPoolOptions{threads, stealing});
      EXPECT_EQ(runtime::parallel_map(pool, items, heavy_square), reference)
          << "threads " << threads << " stealing " << stealing;
    }
  }
}

// ---------------------------------------------------------------------------
// AutoTuner: integer EWMA and the decision rules.
// ---------------------------------------------------------------------------

TEST(AutoTunerTest, FirstSampleSeedsTheEwma) {
  runtime::AutoTuner tuner;
  EXPECT_EQ(tuner.snapshot().attempt_samples, 0u);
  tuner.record_attempt_nanos(1000);
  runtime::TunerSnapshot snap = tuner.snapshot();
  EXPECT_EQ(snap.attempt_samples, 1u);
  EXPECT_EQ(snap.attempt_ewma_nanos, 1000u);
}

TEST(AutoTunerTest, EwmaIsExactIntegerArithmetic) {
  runtime::AutoTuner tuner;
  tuner.record_attempt_nanos(1000);
  // ewma += (sample - ewma) >> 2.
  tuner.record_attempt_nanos(2000);
  EXPECT_EQ(tuner.snapshot().attempt_ewma_nanos, 1000u + (1000u >> 2));
  tuner.record_attempt_nanos(0);
  EXPECT_EQ(tuner.snapshot().attempt_ewma_nanos, 1250u - (1250u >> 2));
}

TEST(AutoTunerTest, CheapAttemptsSerializeTheProbes) {
  runtime::AutoTuner tuner;
  tuner.record_attempt_nanos(runtime::AutoTuner::kAttemptParallelNanos / 10);
  EXPECT_EQ(tuner.choose_probe_concurrency(8), 1);
  EXPECT_EQ(tuner.snapshot().last_probe_concurrency, 1);
  EXPECT_GE(tuner.snapshot().decisions, 1u);
}

TEST(AutoTunerTest, ExpensiveAttemptsFanOutWithinTheCap) {
  runtime::AutoTuner tuner;
  tuner.record_attempt_nanos(runtime::AutoTuner::kAttemptParallelNanos * 10);
  const int choice = tuner.choose_probe_concurrency(8);
  EXPECT_GE(choice, 1);
  EXPECT_LE(choice, 8);
  // A cap of 1 (single guess) can never fan out, measured or not.
  EXPECT_EQ(tuner.choose_probe_concurrency(1), 1);
}

TEST(AutoTunerTest, UnmeasuredProbeChoiceUsesFreeWidthBounded) {
  // Optimistic before any sample: the first multi-guess round is exactly
  // where the heavy instances show up.  Still within [1, cap].
  runtime::AutoTuner tuner;
  const int choice = tuner.choose_probe_concurrency(4);
  EXPECT_GE(choice, 1);
  EXPECT_LE(choice, 4);
}

TEST(AutoTunerTest, PricingStaysSerialUntilProvenExpensive) {
  runtime::AutoTuner tuner;
  // Unmeasured: conservative.
  EXPECT_EQ(tuner.choose_pricing_threads(8), 1);
  // Measured but cheap: still serial.
  tuner.record_attempt_nanos(runtime::AutoTuner::kPricingParallelNanos / 4);
  EXPECT_EQ(tuner.choose_pricing_threads(8), 1);
  // Expensive attempts unlock the pool, bounded by the cap.
  for (int i = 0; i < 16; ++i) {
    tuner.record_attempt_nanos(runtime::AutoTuner::kPricingParallelNanos * 4);
  }
  const int choice = tuner.choose_pricing_threads(8);
  EXPECT_GE(choice, 1);
  EXPECT_LE(choice, 8);
  EXPECT_EQ(tuner.snapshot().last_pricing_threads, choice);
}

// ---------------------------------------------------------------------------
// solve54: the auto knobs are execution-only.
// ---------------------------------------------------------------------------

TEST(Solve54Scheduler, ProbeConcurrencyValuesAreBitIdentical) {
  Rng rng(909);
  const Instance inst = gen::random_uniform(48, 240, 4, 24, rng);
  approx::Approx54Params base;
  base.lp_engine = approx::ConfigLpEngine::kColumnGeneration;
  base.probe_parallelism = 3;  // multi-guess rounds exist
  base.probe_concurrency = 1;
  const approx::Approx54Result reference = approx::solve54(inst, base);
  for (const int concurrency : {0, 2, 4}) {
    for (const bool stealing : {false, true}) {
      approx::Approx54Params params = base;
      params.probe_concurrency = concurrency;
      params.stealing = stealing;
      const approx::Approx54Result result = approx::solve54(inst, params);
      EXPECT_EQ(result.packing.start, reference.packing.start)
          << "probe_concurrency " << concurrency << " stealing " << stealing;
      EXPECT_EQ(result.peak, reference.peak);
      EXPECT_EQ(result.report.attempts, reference.report.attempts);
      EXPECT_EQ(result.report.best_guess, reference.report.best_guess);
      EXPECT_GE(result.report.probe_concurrency, 1);
    }
  }
}

TEST(Solve54Scheduler, AutoPricingThreadsAreBitIdentical) {
  Rng rng(910);
  const Instance inst = gen::random_uniform(40, 240, 4, 24, rng);
  approx::Approx54Params base;
  base.lp_engine = approx::ConfigLpEngine::kColumnGeneration;
  base.lp_pricing_threads = 1;
  const approx::Approx54Result reference = approx::solve54(inst, base);
  for (const int pricing : {0, 2}) {
    approx::Approx54Params params = base;
    params.lp_pricing_threads = pricing;
    const approx::Approx54Result result = approx::solve54(inst, params);
    EXPECT_EQ(result.packing.start, reference.packing.start)
        << "lp_pricing_threads " << pricing;
    EXPECT_EQ(result.peak, reference.peak);
    EXPECT_GE(result.report.pricing_threads, 1);
  }
}

TEST(Solve54Scheduler, RejectsNegativeProbeConcurrency) {
  Rng rng(911);
  const Instance inst = gen::random_uniform(5, 10, 4, 4, rng);
  approx::Approx54Params params;
  params.probe_concurrency = -1;
  EXPECT_THROW((void)approx::solve54(inst, params), InvalidInput);
}

TEST(Solve54Scheduler, SharedTunerAccumulatesAcrossCalls) {
  Rng rng(912);
  const Instance inst = gen::random_uniform(24, 120, 40, 16, rng);
  runtime::AutoTuner tuner;
  approx::Approx54Params params;
  params.tuner = &tuner;
  const approx::Approx54Result first = approx::solve54(inst, params);
  const std::uint64_t samples_after_one = tuner.snapshot().attempt_samples;
  EXPECT_GE(samples_after_one, first.report.attempts);
  const approx::Approx54Result second = approx::solve54(inst, params);
  EXPECT_EQ(second.packing.start, first.packing.start);
  EXPECT_GT(tuner.snapshot().attempt_samples, samples_after_one);
}

// ---------------------------------------------------------------------------
// Serving layer: counters and tuner surface.
// ---------------------------------------------------------------------------

TEST(ServingScheduler, CachingSolverExposesTunerAndCounters) {
  service::ServeParams params;
  params.engine = service::ServeEngine::kSolve54;
  params.approx.lp_pricing_threads = 0;  // auto: consults the shared tuner
  service::CachingSolver solver(params, service::CacheOptions{1 << 20, 1});
  Rng rng(913);
  const Instance inst = gen::random_uniform(24, 120, 40, 16, rng);
  (void)solver.solve(inst);
  const runtime::TunerSnapshot snap = solver.tuner_snapshot();
  EXPECT_GE(snap.decisions, 1u);
  EXPECT_GE(snap.attempt_samples, 1u);
  // The process-total counters are exported through the solver's registry
  // source (exact values depend on what other tests ran in this process).
  const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
  EXPECT_TRUE(std::any_of(
      metrics.samples.begin(), metrics.samples.end(),
      [](const obs::Sample& s) { return s.name == "scheduler.submitted"; }));
}

TEST(ServingScheduler, CachingSolverExportsLiveSchedulerOccupancy) {
  // scheduler.occupancy is read at scrape time: the workers running a
  // task right now, across every pool in the process.
  const service::CachingSolver solver;
  const auto exported_occupancy = []() {
    return obs::parse_exposition(obs::Registry::global().prometheus_text())
        .at("dsp_scheduler_occupancy");
  };
  const auto wait_until = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  runtime::ThreadPool pool(runtime::ThreadPoolOptions{2, true});
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto a = pool.submit([open]() { open.wait(); });
  auto b = pool.submit([open]() { open.wait(); });
  wait_until([&]() { return pool.occupancy() == 2; });
  EXPECT_GE(exported_occupancy(), 2u);
  gate.set_value();
  a.get();
  b.get();
  wait_until([]() { return runtime::process_active_workers() == 0; });
  EXPECT_EQ(exported_occupancy(), 0u);
}

TEST(ServingScheduler, StealingKnobKeepsBatchAnswersIdentical) {
  std::vector<Instance> batch = skewed_batch(914, 96, 16, 6);
  service::ServeParams on;
  on.threads = 4;
  service::ServeParams off = on;
  off.stealing = false;
  service::CachingSolver steal_solver(on, service::CacheOptions{1 << 20, 1});
  service::CachingSolver static_solver(off, service::CacheOptions{1 << 20, 1});
  const std::vector<service::SolveResponse> a = steal_solver.solve_many(batch);
  const std::vector<service::SolveResponse> b = static_solver.solve_many(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].peak, b[i].peak) << i;
    EXPECT_EQ(a[i].packing.start, b[i].packing.start) << i;
    EXPECT_EQ(a[i].winner, b[i].winner) << i;
  }
}

}  // namespace
}  // namespace dsp
