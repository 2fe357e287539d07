#pragma once

// The single-flight solve cache and the CachingSolver front door
// (DESIGN.md, "The serving layer").
//
// Serving workloads are dominated by repeats and near-repeats of the same
// request (the same smart-grid day, the same cluster shape).  The cache
// keys on (canonical content hash, solver-params fingerprint), so
// semantically identical requests — any item order, any ids/labels — hit
// the same entry:
//
//  * one lock — a single mutex guards the LRU list, the resident map and
//    the in-flight map.  Lookups run inside the admission slot, so only a
//    handful can contend, and the locked part of a hit is one hash lookup
//    and one list splice.
//  * single-flight — concurrent misses for the same key block on the one
//    in-flight computation instead of duplicating it; joiners see the same
//    shared result (or the same exception) the computing thread produced.
//  * LRU by bytes — entries are charged by packing size and evicted from
//    the cold end once `capacity_bytes` overflows.
//
// Determinism: CachingSolver always solves the *canonical form* and maps
// starts back through the request's permutation, so its answer is a pure
// function of (canonical instance, result-affecting params) — identical
// whether it came from a cold solve, a cache hit, or an in-flight join, for
// any thread count and either profile backend (the argument lives in
// DESIGN.md).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "approx/solve54.hpp"
#include "core/instance.hpp"
#include "core/packing.hpp"
#include "core/profile.hpp"
#include "obs/metrics.hpp"
#include "service/canonical.hpp"

namespace dsp::service {

// ---------------------------------------------------------------------------
// Keys and fingerprints.
// ---------------------------------------------------------------------------

/// Pipeline a request is served with.
enum class ServeEngine {
  kPortfolio,  ///< algo::best_of_portfolio over the canonical instance
  kSolve54,    ///< approx::solve54 over the canonical instance
};

[[nodiscard]] std::string_view to_string(ServeEngine engine);

/// Everything that shapes a served solve.  Split into result-affecting
/// parameters (fingerprinted into the cache key) and execution knobs
/// (excluded, because the runtime's determinism contracts prove the result
/// does not depend on them — see params_fingerprint).
struct ServeParams {
  ServeEngine engine = ServeEngine::kPortfolio;
  /// Execution knob: dense and sparse produce identical packings (the
  /// profile-backend equivalence suite), so the backend is NOT part of the
  /// cache key — a dense miss serves later sparse requests.
  ProfileBackendKind backend = ProfileBackendKind::kAuto;
  /// Execution knob: solve_many fan-out workers; 0 = hardware.
  std::size_t threads = 0;
  /// Ignored.  Kept only because the serving benchmark (perfbench/) still
  /// names it; goes with the next change to that benchmark.
  bool stealing = true;
  /// Result-affecting solve54 parameters (engine == kSolve54 only):
  /// epsilon, ladder length, the two LP safety valves and the gap-box cap
  /// are fingerprinted; `backend` (overridden by the one above) and the
  /// ignored `stealing` / `tuner` fields are not.
  approx::Approx54Params approx;
  /// Debug escape hatch: compute every request (no lookups, no inserts).
  /// Responses must stay bit-identical — the bypass only skips the cache.
  bool bypass_cache = false;
};

/// 64-bit fingerprint of the result-affecting parameters.  Distinct
/// parameter sets must never collide in practice; execution knobs are
/// deliberately excluded so they never fragment the cache.
[[nodiscard]] std::uint64_t params_fingerprint(const ServeParams& params);

struct CacheKey {
  Hash128 instance_hash;
  std::uint64_t params_fingerprint = 0;

  [[nodiscard]] bool operator==(const CacheKey&) const = default;
};

// ---------------------------------------------------------------------------
// The single-flight LRU.
// ---------------------------------------------------------------------------

/// A cached answer, always in canonical item order (the cache never sees a
/// requester's permutation).
struct CachedSolve {
  Packing packing;  ///< starts for the canonical instance
  Height peak = 0;
  std::string winner;
};

struct CacheOptions {
  /// Value-byte budget (the sum of per-entry packing and winner payloads
  /// plus a fixed per-entry charge).  Must be positive: a zero-byte cache
  /// would silently reject every insert, so the constructor throws
  /// InvalidInput and points at ServeParams::bypass_cache instead.  An
  /// entry larger than the whole budget is never inserted (counted as
  /// CacheStats::oversized); resident entries are untouched by such a
  /// request.
  std::size_t capacity_bytes = 64ull << 20;
};

/// How a lookup was satisfied.
enum class CacheOutcome {
  kMiss,    ///< this thread computed and inserted the value
  kHit,     ///< served from the LRU
  kJoined,  ///< waited on another thread's in-flight computation
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inflight_joins = 0;
  std::uint64_t evictions = 0;
  /// Values larger than the whole budget: never inserted (and
  /// never allowed to evict resident entries on the way out).
  std::uint64_t oversized = 0;
  std::uint64_t entries = 0;  ///< currently resident
  std::uint64_t bytes = 0;    ///< currently charged

  [[nodiscard]] bool operator==(const CacheStats&) const = default;
};

/// One resident entry, as exported for persistence (persist.hpp).  The
/// value pointer aliases the live cache entry — treat it as a snapshot.
struct CacheEntryView {
  CacheKey key;
  std::shared_ptr<const CachedSolve> value;
};

class SolveCache {
 public:
  /// Called after every get_or_compute insert, outside the cache lock —
  /// the persistence layer's append hook.  Warm-load inserts (insert())
  /// are deliberately NOT observed, or log replay would re-append itself.
  using InsertObserver =
      std::function<void(const CacheKey&, const std::shared_ptr<const CachedSolve>&)>;

  /// Throws InvalidInput on a zero-byte capacity budget.
  explicit SolveCache(const CacheOptions& options = {});
  ~SolveCache();

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  struct Lookup {
    std::shared_ptr<const CachedSolve> value;
    CacheOutcome outcome = CacheOutcome::kMiss;
  };

  /// The single-flight lookup: returns the cached value, or joins the
  /// in-flight computation for `key`, or runs `compute` exactly once and
  /// caches its result.  `compute` runs outside every cache lock, so it may
  /// itself solve on a thread pool.  If `compute` throws, the error
  /// propagates to the computing caller and to every joiner; nothing is
  /// cached (the next request recomputes).
  [[nodiscard]] Lookup get_or_compute(
      const CacheKey& key, const std::function<CachedSolve()>& compute);

  /// Direct insert for warm loads (persistence replay): makes `key`
  /// resident and most-recently-used, replacing any previous value.  Does
  /// not touch the hit/miss counters and does not notify the insert
  /// observer.  Oversized values count as CacheStats::oversized and are
  /// not inserted, exactly like the get_or_compute path.
  void insert(const CacheKey& key, CachedSolve value);

  /// Every resident entry, cold to warm, read under the lock as one
  /// point-in-time snapshot — re-`insert`ing the result in order
  /// reproduces the cache's recency order.
  [[nodiscard]] std::vector<CacheEntryView> export_entries() const;

  /// Installs the persistence append hook.  Must be installed before the
  /// cache is shared across threads (the daemon wires it at boot, before
  /// serving): the observer slot itself is unsynchronized.
  void set_insert_observer(InsertObserver observer);

  /// Counters and occupancy, read under the lock as one point-in-time
  /// snapshot (consistent even while serving).
  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t capacity_bytes() const;

 private:
  struct State;

  std::unique_ptr<State> state_;
  InsertObserver insert_observer_;
};

// ---------------------------------------------------------------------------
// The caching solver: canonicalize -> cache -> solve -> restore order.
// ---------------------------------------------------------------------------

/// One served answer, in the requester's item order.  The payload
/// (packing, peak, winner) is a pure function of (canonical instance,
/// fingerprinted params); `outcome` records how the cache satisfied this
/// particular request and is scheduling-dependent for concurrent
/// duplicates (miss vs. hit vs. join), so equality comparisons that only
/// care about the answer should compare the payload fields.
struct SolveResponse {
  Packing packing;
  Height peak = 0;
  std::string winner;
  CacheOutcome outcome = CacheOutcome::kMiss;

  [[nodiscard]] bool operator==(const SolveResponse&) const = default;
};

/// The serving front door over batches of requests: every
/// request is canonicalized, deduplicated through the SolveCache, solved
/// with the configured pipeline, and answered in the requester's item
/// order.  Thread-safe: solve/solve_many may be called concurrently.
class CachingSolver {
 public:
  explicit CachingSolver(const ServeParams& params = {},
                         const CacheOptions& cache_options = {});

  /// Serves one request on the calling thread.
  [[nodiscard]] SolveResponse solve(const Instance& instance);

  /// Serves a batch on `params().threads` workers (runtime::parallel_map).
  /// Responses are in request order, and every payload (packing, peak,
  /// winner) is bit-identical to serving that request alone; duplicate
  /// requests inside the batch collapse onto one computation via
  /// single-flight, which is visible only in the `outcome` fields.
  [[nodiscard]] std::vector<SolveResponse> solve_many(
      const std::vector<Instance>& instances);

  [[nodiscard]] const ServeParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] CacheStats stats() const { return cache_.stats(); }
  /// The underlying cache, for persistence (warm load, export, the insert
  /// observer).  Entries are keyed by this solver's fingerprint.
  [[nodiscard]] SolveCache& cache() { return cache_; }

 private:
  [[nodiscard]] CachedSolve compute_canonical(const Instance& canonical);

  ServeParams params_;
  std::uint64_t fingerprint_;
  SolveCache cache_;
  /// Registry pull-source exporting cache.* / scheduler.* samples.
  /// Declared last: it captures `this`, so it must unregister (its
  /// destructor) before any member it reads is torn down.
  obs::Registry::Source obs_source_;
};

}  // namespace dsp::service
