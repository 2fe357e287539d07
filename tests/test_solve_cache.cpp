// The single-flight solve cache and the CachingSolver: exactly-once
// computation under concurrent identical requests, bit-identical hits, one
// global LRU order over the whole byte budget, stats snapshots that stay
// consistent while serving, fingerprint separation, and the cached ==
// uncached determinism contract across thread counts and profile backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <optional>
#include <tuple>
#include <thread>
#include <vector>

#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "obs/metrics.hpp"
#include "runtime/autotune.hpp"
#include "service/cache.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp::service {
namespace {

CacheKey key_of(std::uint64_t a, std::uint64_t fingerprint = 1) {
  return CacheKey{Hash128{a, ~a}, fingerprint};
}

CachedSolve small_solve(Height peak) {
  CachedSolve solve;
  solve.packing.start = {0, 1, 2};
  solve.peak = peak;
  solve.winner = "test";
  return solve;
}

// ---------------------------------------------------------------------------
// SolveCache unit tests.
// ---------------------------------------------------------------------------

TEST(SolveCacheTest, MissThenHit) {
  SolveCache cache;
  int computed = 0;
  const auto compute = [&computed]() {
    ++computed;
    return small_solve(7);
  };
  const SolveCache::Lookup first = cache.get_or_compute(key_of(1), compute);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(first.value->peak, 7);
  const SolveCache::Lookup second = cache.get_or_compute(key_of(1), compute);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  EXPECT_EQ(second.value, first.value);  // the same shared entry, not a copy
  EXPECT_EQ(computed, 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SolveCacheTest, DistinctKeysDoNotCollide) {
  SolveCache cache;
  int computed = 0;
  for (std::uint64_t k = 0; k < 32; ++k) {
    const auto lookup = cache.get_or_compute(key_of(k), [&]() {
      ++computed;
      return small_solve(static_cast<Height>(k));
    });
    EXPECT_EQ(lookup.outcome, CacheOutcome::kMiss);
  }
  EXPECT_EQ(computed, 32);
  for (std::uint64_t k = 0; k < 32; ++k) {
    const auto lookup = cache.get_or_compute(key_of(k), [&]() {
      ++computed;
      return small_solve(0);
    });
    EXPECT_EQ(lookup.outcome, CacheOutcome::kHit);
    EXPECT_EQ(lookup.value->peak, static_cast<Height>(k));
  }
  EXPECT_EQ(computed, 32);
}

TEST(SolveCacheTest, SameHashDifferentFingerprintIsADifferentEntry) {
  SolveCache cache;
  (void)cache.get_or_compute(key_of(5, 100), []() { return small_solve(1); });
  const auto other =
      cache.get_or_compute(key_of(5, 200), []() { return small_solve(2); });
  EXPECT_EQ(other.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(other.value->peak, 2);
}

TEST(SolveCacheTest, SingleFlightRunsTheComputationExactlyOnce) {
  SolveCache cache;
  std::atomic<int> computed{0};
  std::atomic<int> inside{0};
  constexpr int kThreads = 8;
  // The first thread in holds the computation open until every thread has
  // issued its lookup, so all others must take the join path.
  std::atomic<int> arrived{0};
  const auto compute = [&]() {
    ++computed;
    ++inside;
    while (arrived.load() < kThreads) std::this_thread::yield();
    --inside;
    return small_solve(42);
  };
  std::vector<std::future<SolveCache::Lookup>> lookups;
  lookups.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    lookups.push_back(std::async(std::launch::async, [&]() {
      ++arrived;
      return cache.get_or_compute(key_of(77), compute);
    }));
  }
  int misses = 0, joins = 0, hits = 0;
  for (std::future<SolveCache::Lookup>& lookup : lookups) {
    const SolveCache::Lookup result = lookup.get();
    EXPECT_EQ(result.value->peak, 42);
    if (result.outcome == CacheOutcome::kMiss) ++misses;
    if (result.outcome == CacheOutcome::kJoined) ++joins;
    if (result.outcome == CacheOutcome::kHit) ++hits;
  }
  EXPECT_EQ(computed.load(), 1) << "single flight must compute exactly once";
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(joins + hits, kThreads - 1);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inflight_joins + stats.hits,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SolveCacheTest, ComputeErrorsPropagateToJoinersAndAreNotCached) {
  SolveCache cache;
  std::atomic<int> computed{0};
  std::atomic<bool> release{false};
  const auto failing = [&]() -> CachedSolve {
    ++computed;
    while (!release.load()) std::this_thread::yield();
    throw InvalidInput("synthetic solve failure");
  };
  auto first = std::async(std::launch::async, [&]() {
    return cache.get_or_compute(key_of(13), failing);
  });
  // Wait until the computation is in flight, then join it.
  while (computed.load() == 0) std::this_thread::yield();
  auto joiner = std::async(std::launch::async, [&]() {
    return cache.get_or_compute(key_of(13), failing);
  });
  release = true;
  EXPECT_THROW((void)first.get(), InvalidInput);
  EXPECT_THROW((void)joiner.get(), InvalidInput);
  // Nothing was cached: the next request recomputes (and can succeed).
  const auto retry =
      cache.get_or_compute(key_of(13), []() { return small_solve(3); });
  EXPECT_EQ(retry.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(retry.value->peak, 3);
}

TEST(SolveCacheTest, LruEvictsColdEntriesAtCapacity) {
  // Tiny byte budget: each entry charges 128 overhead plus payload, so the
  // budget below holds ~4 entries.
  SolveCache cache(CacheOptions{4 * 200});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  for (std::uint64_t k = 0; k < 16; ++k) (void)fill(k);
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 16u);
  EXPECT_LE(stats.bytes, 4u * 200u);
  // The oldest keys are gone: re-requesting key 0 is a miss again...
  EXPECT_EQ(fill(0).outcome, CacheOutcome::kMiss);
  // ...while the most recent key is still resident.
  EXPECT_EQ(fill(15).outcome, CacheOutcome::kHit);
}

TEST(SolveCacheTest, LruRecencyIsUpdatedByHits) {
  // Budget for ~2 entries.
  SolveCache cache(CacheOptions{2 * 200});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  (void)fill(1);
  (void)fill(2);
  EXPECT_EQ(fill(1).outcome, CacheOutcome::kHit);  // 1 is now the warm entry
  (void)fill(3);                                   // evicts 2, not 1
  EXPECT_EQ(fill(1).outcome, CacheOutcome::kHit);
  EXPECT_EQ(fill(2).outcome, CacheOutcome::kMiss);
}

TEST(SolveCacheTest, OversizedEntryDoesNotFlushWarmEntries) {
  // Regression: an entry larger than the whole budget used to evict
  // every resident entry before discovering it could not fit itself —
  // one pathological request flushed the warm cache.
  SolveCache cache(CacheOptions{4 * 200});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  for (std::uint64_t k = 1; k <= 3; ++k) (void)fill(k);
  const CacheStats before = cache.stats();
  ASSERT_EQ(before.entries, 3u);
  ASSERT_EQ(before.evictions, 0u);

  CachedSolve big;
  big.packing.start = {0};
  big.peak = 99;
  big.winner = std::string(2000, 'w');  // > the 800-byte budget
  const auto lookup = cache.get_or_compute(key_of(99), [&big]() { return big; });
  // The answer is still served (and counted as a miss)...
  EXPECT_EQ(lookup.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(lookup.value->winner, big.winner);

  // ...but the residents are untouched: no evictions, same entries/bytes,
  // and the oversized request is counted distinctly.
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.oversized, 1u);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(fill(k).outcome, CacheOutcome::kHit) << "key " << k;
  }
  // The oversized value was never inserted: same request misses again.
  EXPECT_EQ(cache.get_or_compute(key_of(99), [&big]() { return big; }).outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.stats().oversized, 2u);
}

TEST(SolveCacheTest, ZeroCapacityBudgetIsRejectedLoudly) {
  // Regression: a zero-byte budget used to build a cache that silently
  // dropped every insert — a 0% hit rate with no diagnostic.
  const CacheOptions zero_budget{0};
  EXPECT_THROW(SolveCache cache(zero_budget), InvalidInput);
  EXPECT_THROW(CachingSolver solver(ServeParams{}, zero_budget), InvalidInput);
}

TEST(SolveCacheTest, WarmInsertSkipsCountersAndObserver) {
  SolveCache cache(CacheOptions{64 << 10});
  int notified = 0;
  cache.set_insert_observer(
      [&notified](const CacheKey&, const std::shared_ptr<const CachedSolve>&) {
        ++notified;
      });
  // Warm-load insert: resident, but no counter movement and no observer
  // callback (replaying a log must not re-append it).
  cache.insert(key_of(1), small_solve(5));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(notified, 0);
  EXPECT_EQ(
      cache.get_or_compute(key_of(1), []() { return small_solve(5); }).outcome,
      CacheOutcome::kHit);
  // A real computed miss notifies exactly once.
  (void)cache.get_or_compute(key_of(2), []() { return small_solve(6); });
  EXPECT_EQ(notified, 1);
}

TEST(SolveCacheTest, ExportEntriesRoundTripsRecencyThroughInsert) {
  SolveCache cache(CacheOptions{4 * 200});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  (void)fill(1);
  (void)fill(2);
  (void)fill(3);
  (void)fill(1);  // 1 becomes the warmest entry

  // Re-inserting the export in order reproduces the recency order in a
  // fresh cache: under pressure the same keys survive.
  SolveCache copy(CacheOptions{4 * 200});
  for (const CacheEntryView& entry : cache.export_entries()) {
    copy.insert(entry.key, *entry.value);
  }
  const auto fill_copy = [&copy](std::uint64_t k) {
    return copy.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  (void)fill_copy(4);
  (void)fill_copy(5);  // evicts the cold end: 2, then 3 — never 1
  EXPECT_EQ(fill_copy(1).outcome, CacheOutcome::kHit);
}

TEST(SolveCacheTest, LruOrderIsGlobalAcrossTheWholeBudget) {
  // A budget large enough that a per-key split (a lock shard per hash
  // bucket) would evict from whichever slice filled first: one cache-wide
  // LRU must evict exactly the globally coldest key, and only once the
  // whole budget overflows.
  constexpr std::size_t kBudget = 64 << 10;
  SolveCache cache(CacheOptions{kBudget});
  const auto fill = [&cache](std::uint64_t k) {
    return cache.get_or_compute(key_of(k), [k]() {
      return small_solve(static_cast<Height>(k));
    });
  };
  (void)fill(0);
  const std::size_t per_entry = cache.stats().bytes;
  const std::uint64_t fits = kBudget / per_entry;
  ASSERT_GT(fits, 64u);
  for (std::uint64_t k = 1; k < fits; ++k) (void)fill(k);
  ASSERT_EQ(cache.stats().entries, fits);
  ASSERT_EQ(cache.stats().evictions, 0u);

  EXPECT_EQ(fill(0).outcome, CacheOutcome::kHit);  // key 1 is now coldest
  (void)fill(fits);                                // one past the budget
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, fits);
  EXPECT_LE(stats.bytes, kBudget);
  const std::vector<CacheEntryView> entries = cache.export_entries();
  ASSERT_EQ(entries.size(), fits);
  EXPECT_EQ(entries.front().key, key_of(2)) << "coldest survivor";
  EXPECT_EQ(entries.back().key, key_of(fits)) << "warmest entry";
  for (const std::uint64_t k : {std::uint64_t{0}, std::uint64_t{2}, fits}) {
    EXPECT_EQ(fill(k).outcome, CacheOutcome::kHit) << "key " << k;
  }
  EXPECT_EQ(fill(1).outcome, CacheOutcome::kMiss) << "key 1 was the LRU";
}

TEST(SolveCacheTest, EntryAboveAnEighthOfTheBudgetIsCached) {
  // The oversized rule is measured against the whole budget: a value a
  // quarter of the budget is cached, not counted oversized.
  constexpr std::size_t kBudget = 64 << 10;
  SolveCache cache(CacheOptions{kBudget});
  CachedSolve big = small_solve(5);
  big.winner = std::string(kBudget / 4, 'w');
  const auto compute = [&big]() { return big; };
  EXPECT_EQ(cache.get_or_compute(key_of(1), compute).outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.get_or_compute(key_of(1), compute).outcome,
            CacheOutcome::kHit);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.oversized, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, kBudget / 8);
}

TEST(SolveCacheTest, StatsStayConsistentWhileServing) {
  // Four serving threads mix misses, hits and joins over overlapping keys
  // in a budget of a few entries (so evictions run too); a fifth reads
  // stats() throughout.  Every read is one locked snapshot, so the byte
  // charge always matches the resident set and the budget.
  constexpr std::size_t kBudget = 4 * 200;
  constexpr int kWorkers = 4;
  constexpr int kLookupsPerWorker = 400;
  constexpr std::int64_t kKeys = 8;
  constexpr std::uint64_t kEntryOverhead = 128;
  SolveCache cache(CacheOptions{kBudget});
  std::atomic<int> running{kWorkers};
  std::atomic<int> over_budget{0};
  std::atomic<int> under_charged{0};
  std::thread reader([&]() {
    do {
      const CacheStats stats = cache.stats();
      if (stats.bytes > kBudget) ++over_budget;
      if (stats.bytes < stats.entries * kEntryOverhead) ++under_charged;
    } while (running.load() > 0);
  });
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&cache, &running, w]() {
      Rng rng(31 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kLookupsPerWorker; ++i) {
        const auto k = static_cast<std::uint64_t>(rng.uniform(0, kKeys - 1));
        (void)cache.get_or_compute(key_of(k), [k]() {
          // Hold the flight open briefly so concurrent lookups join it.
          for (int spin = 0; spin < 20; ++spin) std::this_thread::yield();
          return small_solve(static_cast<Height>(k));
        });
      }
      --running;
    });
  }
  for (std::thread& worker : workers) worker.join();
  reader.join();
  EXPECT_EQ(over_budget.load(), 0);
  EXPECT_EQ(under_charged.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inflight_joins,
            static_cast<std::uint64_t>(kWorkers * kLookupsPerWorker));
  EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Params fingerprints.
// ---------------------------------------------------------------------------

TEST(ParamsFingerprintTest, DistinctResultAffectingParamsNeverCollide) {
  std::vector<ServeParams> variants;
  ServeParams base;
  variants.push_back(base);  // portfolio
  ServeParams s54 = base;
  s54.engine = ServeEngine::kSolve54;
  variants.push_back(s54);
  for (const Fraction epsilon : {Fraction(1, 2), Fraction(1, 8)}) {
    ServeParams v = s54;
    v.approx.epsilon = epsilon;
    variants.push_back(v);
  }
  {
    ServeParams v = s54;
    v.approx.ladder_length = 4;
    variants.push_back(v);
  }
  {
    ServeParams v = s54;
    v.approx.max_configs = 1024;
    variants.push_back(v);
  }
  {
    ServeParams v = s54;
    v.approx.max_pricing_rounds = 16;
    variants.push_back(v);
  }
  {
    ServeParams v = s54;
    v.approx.max_gap_boxes = 12;
    variants.push_back(v);
  }
  for (std::size_t a = 0; a < variants.size(); ++a) {
    for (std::size_t b = a + 1; b < variants.size(); ++b) {
      EXPECT_NE(params_fingerprint(variants[a]), params_fingerprint(variants[b]))
          << "variants " << a << " and " << b << " collide";
    }
  }
}

TEST(ParamsFingerprintTest, ExecutionKnobsDoNotFragmentTheCache) {
  // Thread counts and backend are proven result-invariant, and the stealing
  // fields and tuner pointer are ignored; changing them must keep the
  // fingerprint (so a warm cache keeps serving).
  ServeParams base;
  base.engine = ServeEngine::kSolve54;
  const std::uint64_t reference = params_fingerprint(base);
  ServeParams v = base;
  v.threads = 8;
  EXPECT_EQ(params_fingerprint(v), reference);
  v = base;
  v.backend = ProfileBackendKind::kSparse;
  EXPECT_EQ(params_fingerprint(v), reference);
  v = base;
  v.bypass_cache = true;
  EXPECT_EQ(params_fingerprint(v), reference);
  v = base;
  v.stealing = false;
  EXPECT_EQ(params_fingerprint(v), reference);
  v = base;
  v.approx.stealing = false;
  EXPECT_EQ(params_fingerprint(v), reference);
  runtime::AutoTuner tuner;
  v = base;
  v.approx.tuner = &tuner;
  EXPECT_EQ(params_fingerprint(v), reference);
}

TEST(ParamsFingerprintTest, DefaultFingerprintsArePinned) {
  // Persisted cache keys carry the fingerprint, so a --persist directory
  // written by an earlier build stays warm only while these values hold.
  EXPECT_EQ(params_fingerprint(ServeParams{}), 0xf254dbcd61d958c7ull);
  ServeParams s54;
  s54.engine = ServeEngine::kSolve54;
  EXPECT_EQ(params_fingerprint(s54), 0xc81c0547f4b689faull);
}

// ---------------------------------------------------------------------------
// CachingSolver: the serving contract.
// ---------------------------------------------------------------------------

std::vector<Instance> smart_grid_batch(std::size_t distinct,
                                       std::size_t repeats) {
  std::vector<Instance> batch;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t d = 0; d < distinct; ++d) {
      Rng rng(900 + d);  // same seed per d: repeated request
      batch.push_back(gen::smart_grid(12, 48, rng));
    }
  }
  return batch;
}

TEST(CachingSolverTest, HitReturnsTheBitIdenticalResponse) {
  CachingSolver solver;
  Rng rng(11);
  const Instance instance = gen::random_uniform(18, 32, 12, 8, rng);
  const SolveResponse cold = solver.solve(instance);
  EXPECT_EQ(cold.outcome, CacheOutcome::kMiss);
  const SolveResponse warm = solver.solve(instance);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.packing, cold.packing);
  EXPECT_EQ(warm.peak, cold.peak);
  EXPECT_EQ(warm.winner, cold.winner);
  ASSERT_NO_THROW(validate_packing(instance, warm.packing));
  EXPECT_EQ(peak_height(instance, warm.packing), warm.peak);
}

TEST(CachingSolverTest, PermutedRequestHitsAndIsRestoredToItsOwnOrder) {
  CachingSolver solver;
  // All-distinct (width, height) pairs: each item has exactly one canonical
  // slot, so the reversed request's starts must be the exact reversal.
  std::vector<Item> items;
  for (Length i = 1; i <= 12; ++i) items.push_back(Item{i, 2 * i + 1});
  const Instance instance(16, items);
  const SolveResponse cold = solver.solve(instance);

  std::vector<Item> reversed(items.rbegin(), items.rend());
  const Instance permuted(instance.strip_width(), reversed);
  const SolveResponse warm = solver.solve(permuted);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit) << "canonical dedup must fire";
  EXPECT_EQ(warm.peak, cold.peak);
  EXPECT_EQ(warm.winner, cold.winner);
  // The permuted requester gets starts in ITS item order.
  ASSERT_NO_THROW(validate_packing(permuted, warm.packing));
  EXPECT_EQ(peak_height(permuted, warm.packing), warm.peak);
  for (std::size_t i = 0; i < instance.size(); ++i) {
    EXPECT_EQ(warm.packing.start[i],
              cold.packing.start[instance.size() - 1 - i]);
  }
}

TEST(CachingSolverTest, PermutedRequestWithDuplicateItemsStaysValid) {
  // With duplicate (width, height) items the canonical tie-break may hand
  // interchangeable starts to different duplicates across permutations; the
  // served packing must still validate, hit, and carry the same multiset of
  // placed rectangles.
  CachingSolver solver;
  Rng rng(12);
  const Instance instance = gen::random_uniform(18, 32, 12, 8, rng);
  const SolveResponse cold = solver.solve(instance);

  std::vector<Item> shuffled(instance.items().begin(),
                             instance.items().end());
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  const Instance permuted(instance.strip_width(), shuffled);
  const SolveResponse warm = solver.solve(permuted);
  EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
  EXPECT_EQ(warm.peak, cold.peak);
  EXPECT_EQ(warm.winner, cold.winner);
  ASSERT_NO_THROW(validate_packing(permuted, warm.packing));
  EXPECT_EQ(peak_height(permuted, warm.packing), warm.peak);
  std::vector<std::tuple<Length, Height, Length>> placed_cold, placed_warm;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    placed_cold.emplace_back(instance.item(i).width, instance.item(i).height,
                             cold.packing.start[i]);
    placed_warm.emplace_back(permuted.item(i).width, permuted.item(i).height,
                             warm.packing.start[i]);
  }
  std::sort(placed_cold.begin(), placed_cold.end());
  std::sort(placed_warm.begin(), placed_warm.end());
  EXPECT_EQ(placed_warm, placed_cold);
}

class CachingSolverContract
    : public ::testing::TestWithParam<std::tuple<std::size_t, ProfileBackendKind>> {};

TEST_P(CachingSolverContract, CachedAndUncachedAreBitIdentical) {
  const auto& [threads, backend] = GetParam();
  ServeParams cached_params;
  cached_params.threads = threads;
  cached_params.backend = backend;
  ServeParams bypass_params = cached_params;
  bypass_params.bypass_cache = true;

  const std::vector<Instance> batch = smart_grid_batch(4, 3);
  CachingSolver cached(cached_params);
  CachingSolver bypass(bypass_params);
  const std::vector<SolveResponse> warm = cached.solve_many(batch);
  const std::vector<SolveResponse> cold = bypass.solve_many(batch);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].packing, cold[i].packing) << "request " << i;
    EXPECT_EQ(warm[i].peak, cold[i].peak) << "request " << i;
    EXPECT_EQ(warm[i].winner, cold[i].winner) << "request " << i;
    ASSERT_NO_THROW(validate_packing(batch[i], warm[i].packing));
  }
  // 4 distinct requests, 12 total: the cache computed each key once.
  const CacheStats stats = cached.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits + stats.inflight_joins, 8u);
  EXPECT_EQ(bypass.stats().misses, 0u) << "bypass must not touch the cache";
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndBackends, CachingSolverContract,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Values(ProfileBackendKind::kDense,
                                         ProfileBackendKind::kSparse)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(to_string(std::get<1>(info.param)));
    });

TEST(CachingSolverTest, Solve54EngineServesAndDedupes) {
  ServeParams params;
  params.engine = ServeEngine::kSolve54;
  params.threads = 2;
  CachingSolver solver(params);
  const std::vector<Instance> batch = smart_grid_batch(2, 2);
  const std::vector<SolveResponse> responses = solver.solve_many(batch);
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].winner, "solve54");
    ASSERT_NO_THROW(validate_packing(batch[i], responses[i].packing));
    EXPECT_EQ(peak_height(batch[i], responses[i].packing), responses[i].peak);
  }
  EXPECT_EQ(responses[0].packing, responses[2].packing);
  EXPECT_EQ(responses[1].packing, responses[3].packing);
  EXPECT_EQ(solver.stats().misses, 2u);
}

TEST(CachingSolverTest, NewerSolverShadowsEveryExportedGaugeOfAnOlderOne) {
  // Every solver exports every engine's one-hot gauge, so while a newer
  // solver lives the exposition names only its engine and budget; once it
  // is gone the older solver's samples show through again.
  const auto exported = []() {
    return obs::parse_exposition(obs::Registry::global().prometheus_text());
  };
  CachingSolver older(ServeParams{}, CacheOptions{2 << 20});
  {
    ServeParams params;
    params.engine = ServeEngine::kSolve54;
    CachingSolver newer(params, CacheOptions{3 << 20});
    const auto samples = exported();
    EXPECT_EQ(samples.at("dsp_serve_engine_solve54"), 1u);
    EXPECT_EQ(samples.at("dsp_serve_engine_portfolio"), 0u);
    EXPECT_EQ(samples.at("dsp_cache_capacity_bytes"), 3u << 20);
  }
  const auto samples = exported();
  EXPECT_EQ(samples.at("dsp_serve_engine_portfolio"), 1u);
  EXPECT_EQ(samples.at("dsp_serve_engine_solve54"), 0u);
  EXPECT_EQ(samples.at("dsp_cache_capacity_bytes"), 2u << 20);
}

TEST(CachingSolverTest, EmptyBatchReturnsEmpty) {
  CachingSolver solver;
  EXPECT_TRUE(solver.solve_many({}).empty());
  EXPECT_EQ(solver.stats().misses, 0u);
}

TEST(CachingSolverTest, EightThreadHammerComputesEachDistinctKeyOnce) {
  ServeParams params;
  params.threads = 8;
  CachingSolver solver(params);
  // 2 distinct requests, 32 total, all in flight together on 8 workers.
  const std::vector<Instance> batch = smart_grid_batch(2, 16);
  const std::vector<SolveResponse> responses = solver.solve_many(batch);
  ASSERT_EQ(responses.size(), 32u);
  for (std::size_t i = 2; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].packing, responses[i % 2].packing);
  }
  const CacheStats stats = solver.stats();
  EXPECT_EQ(stats.misses, 2u) << "each distinct key must be computed once";
  EXPECT_EQ(stats.hits + stats.inflight_joins, 30u);
}

}  // namespace
}  // namespace dsp::service
