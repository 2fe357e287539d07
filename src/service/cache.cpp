#include "service/cache.hpp"

#include <algorithm>
#include <future>
#include <list>
#include <unordered_map>
#include <utility>

#include "algo/portfolio.hpp"
#include "obs/trace.hpp"
#include "runtime/sync.hpp"
#include "runtime/thread_pool.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp::service {

namespace {

[[nodiscard]] std::uint64_t key_hash64(const CacheKey& key) {
  return Rng::mix_seed(
      key.instance_hash.hi ^
      Rng::mix_seed(key.instance_hash.lo ^
                    Rng::mix_seed(key.params_fingerprint)));
}

struct KeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(key_hash64(key));
  }
};

/// Fixed per-entry overhead charged on top of the variable payload: the
/// node, map slot and control block are real memory even for a tiny packing.
constexpr std::size_t kEntryOverhead = 128;

[[nodiscard]] std::size_t entry_bytes(const CachedSolve& value) {
  return kEntryOverhead + value.packing.start.size() * sizeof(Length) +
         value.winner.size();
}

}  // namespace

std::string_view to_string(ServeEngine engine) {
  return engine == ServeEngine::kPortfolio ? "portfolio" : "solve54";
}

std::uint64_t params_fingerprint(const ServeParams& params) {
  ContentHasher hasher;
  // Domain salt + fingerprint version: bump if the absorbed field set ever
  // changes, so stale persisted keys (a future follow-up) cannot alias.
  hasher.absorb(0x6473702d73727631ull);  // "dsp-srv1"
  hasher.absorb(static_cast<std::uint64_t>(params.engine));
  if (params.engine == ServeEngine::kSolve54) {
    // Result-affecting solve54 knobs only.  Excluded on purpose — proved
    // result-invariant by the determinism suites — are ServeParams::backend
    // and ::threads (see DESIGN.md, "The serving layer"); the ignored stub
    // fields never reach a result.
    const approx::Approx54Params& approx = params.approx;
    hasher.absorb_signed(approx.epsilon.num());
    hasher.absorb_signed(approx.epsilon.den());
    hasher.absorb_signed(approx.ladder_length);
    hasher.absorb(static_cast<std::uint64_t>(approx.lp_engine));
    hasher.absorb(approx.max_configs);
    hasher.absorb(approx.max_pricing_rounds);
    hasher.absorb(approx.max_gap_boxes);
    // The slot of a removed knob (one guess per bisection round), kept so
    // keys persisted by earlier builds still hit.
    hasher.absorb_signed(1);
  }
  return hasher.digest64();
}

// ---------------------------------------------------------------------------
// SolveCache.
// ---------------------------------------------------------------------------

struct SolveCache::Shard {
  struct Entry {
    CacheKey key;
    std::shared_ptr<const CachedSolve> value;
    std::size_t bytes = 0;
  };

  runtime::Mutex mutex;
  /// This shard's slice of the total budget (the capacity_bytes %
  /// shard_count remainder is spread one byte per leading shard).
  /// Immutable after construction, hence unguarded.
  std::size_t capacity = 0;
  /// Front = most recently used; eviction pops the back.
  std::list<Entry> lru DSP_GUARDED_BY(mutex);
  std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> resident
      DSP_GUARDED_BY(mutex);
  /// Keys currently being computed; joiners wait on the shared future.
  std::unordered_map<CacheKey,
                     std::shared_future<std::shared_ptr<const CachedSolve>>,
                     KeyHash>
      inflight DSP_GUARDED_BY(mutex);
  std::uint64_t hits DSP_GUARDED_BY(mutex) = 0;
  std::uint64_t misses DSP_GUARDED_BY(mutex) = 0;
  std::uint64_t inflight_joins DSP_GUARDED_BY(mutex) = 0;
  std::uint64_t evictions DSP_GUARDED_BY(mutex) = 0;
  std::uint64_t oversized DSP_GUARDED_BY(mutex) = 0;
  std::size_t bytes DSP_GUARDED_BY(mutex) = 0;

  /// Makes `key` the shard's most-recent entry with `value`, charging
  /// `value_bytes` and evicting cold entries past the budget.  Requires
  /// the shard mutex (compiler-enforced) and value_bytes <= capacity.
  void insert_locked(const CacheKey& key,
                     std::shared_ptr<const CachedSolve> value,
                     std::size_t value_bytes) DSP_REQUIRES(mutex) {
    if (const auto it = resident.find(key); it != resident.end()) {
      // Replace in place (warm-load replay over a snapshot entry).
      bytes -= it->second->bytes;
      lru.splice(lru.begin(), lru, it->second);
      lru.front().value = std::move(value);
      lru.front().bytes = value_bytes;
    } else {
      lru.push_front(Entry{key, std::move(value), value_bytes});
      resident.emplace(key, lru.begin());
    }
    bytes += value_bytes;
    // Evict cold entries past the budget.  The new entry is at the front
    // and fits on its own, so it is never its own victim.
    while (bytes > capacity && lru.size() > 1) {
      const Entry& victim = lru.back();
      bytes -= victim.bytes;
      resident.erase(victim.key);
      lru.pop_back();
      ++evictions;
    }
  }
};

/// A shard narrower than this is useless (a single small entry charges
/// kEntryOverhead alone), so tiny budgets collapse to fewer shards instead
/// of rounding every shard's share toward zero.
constexpr std::size_t kMinShardBytes = 4096;

SolveCache::SolveCache(const CacheOptions& options)
    : capacity_bytes_(options.capacity_bytes) {
  DSP_REQUIRE(capacity_bytes_ > 0,
              "SolveCache: capacity_bytes must be positive; to serve without "
              "caching use ServeParams::bypass_cache (--no-cache), not a "
              "zero-byte cache");
  std::size_t shard_count = std::max<std::size_t>(1, options.shards);
  shard_count = std::min(
      shard_count, std::max<std::size_t>(1, capacity_bytes_ / kMinShardBytes));
  const std::size_t base = capacity_bytes_ / shard_count;
  const std::size_t remainder = capacity_bytes_ % shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = base + (i < remainder ? 1 : 0);
  }
}

SolveCache::~SolveCache() = default;

SolveCache::Shard& SolveCache::shard_for(const CacheKey& key) const {
  return *shards_[key_hash64(key) % shards_.size()];
}

SolveCache::Lookup SolveCache::get_or_compute(
    const CacheKey& key, const std::function<CachedSolve()>& compute) {
  Shard& shard = shard_for(key);
  std::promise<std::shared_ptr<const CachedSolve>> promise;
  std::shared_future<std::shared_ptr<const CachedSolve>> pending;
  bool join = false;
  {
    // The locked probe is its own phase; the single-flight wait below gets
    // a separate span so a trace distinguishes shard contention from
    // riding on another thread's solve.
    const obs::ScopedSpan lookup_span(obs::Phase::kCacheLookup);
    runtime::MutexLock lock(shard.mutex);
    if (const auto it = shard.resident.find(key);
        it != shard.resident.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.hits;
      return Lookup{it->second->value, CacheOutcome::kHit};
    }
    if (const auto it = shard.inflight.find(key);
        it != shard.inflight.end()) {
      ++shard.inflight_joins;
      // Copy the shared future, then wait outside the lock: the computing
      // thread needs the lock to publish, and other keys in this shard must
      // not stall behind our wait.
      pending = it->second;
      join = true;
      lock.unlock();
    } else {
      ++shard.misses;
      shard.inflight.emplace(key, promise.get_future().share());
    }
  }
  if (join) {
    const obs::ScopedSpan join_span(obs::Phase::kInflightJoin);
    return Lookup{pending.get(), CacheOutcome::kJoined};
  }

  // The single flight: exactly one thread per key reaches this point.
  // `compute` runs outside every lock so it can fan out on its own pool.
  std::shared_ptr<const CachedSolve> value;
  try {
    value = std::make_shared<const CachedSolve>(compute());
  } catch (...) {
    {
      const runtime::MutexLock lock(shard.mutex);
      shard.inflight.erase(key);
    }
    // Joiners that already hold the future get the same exception; the next
    // fresh request recomputes (errors are never cached).
    promise.set_exception(std::current_exception());
    throw;
  }

  bool inserted = false;
  {
    const runtime::MutexLock lock(shard.mutex);
    shard.inflight.erase(key);
    // A value bigger than the shard's whole budget is uncacheable: it is
    // never inserted, and — crucially — never evicts resident entries.
    // (The old insert-then-shrink order flushed every warm entry before
    // finally evicting the oversized newcomer itself.)
    const std::size_t bytes = entry_bytes(*value);
    if (bytes > shard.capacity) {
      ++shard.oversized;
    } else {
      shard.insert_locked(key, value, bytes);
      inserted = true;
    }
  }
  promise.set_value(value);
  if (inserted && insert_observer_) insert_observer_(key, value);
  return Lookup{std::move(value), CacheOutcome::kMiss};
}

void SolveCache::insert(const CacheKey& key, CachedSolve value) {
  auto shared = std::make_shared<const CachedSolve>(std::move(value));
  const std::size_t bytes = entry_bytes(*shared);
  Shard& shard = shard_for(key);
  const runtime::MutexLock lock(shard.mutex);
  if (bytes > shard.capacity) {
    ++shard.oversized;
    return;
  }
  shard.insert_locked(key, std::move(shared), bytes);
}

std::vector<CacheEntryView> SolveCache::export_entries() const {
  std::vector<CacheEntryView> entries;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const runtime::MutexLock lock(shard->mutex);
    // Cold to warm: replaying the export through insert() reproduces each
    // shard's recency order.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      entries.push_back(CacheEntryView{it->key, it->value});
    }
  }
  return entries;
}

void SolveCache::set_insert_observer(InsertObserver observer) {
  insert_observer_ = std::move(observer);
}

std::vector<std::size_t> SolveCache::shard_capacities() const {
  std::vector<std::size_t> capacities;
  capacities.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    capacities.push_back(shard->capacity);
  }
  return capacities;
}

CacheStats SolveCache::stats() const {
  CacheStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const runtime::MutexLock lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.inflight_joins += shard->inflight_joins;
    total.evictions += shard->evictions;
    total.oversized += shard->oversized;
    total.entries += shard->resident.size();
    total.bytes += shard->bytes;
  }
  return total;
}

void SolveCache::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const runtime::MutexLock lock(shard->mutex);
    shard->lru.clear();
    shard->resident.clear();
    shard->bytes = 0;
  }
}

// ---------------------------------------------------------------------------
// CachingSolver.
// ---------------------------------------------------------------------------

CachingSolver::CachingSolver(const ServeParams& params,
                             const CacheOptions& cache_options)
    : params_(params),
      fingerprint_(params_fingerprint(params)),
      cache_(cache_options) {
  // Pull-source: serving-layer counters materialize in the registry on
  // demand (metrics frame, --metrics-out) instead of being double-counted
  // into push-style instruments.  Registration order means a newer solver
  // in the same process shadows an older one's samples, which matches the
  // "latest solver owns the serving stack" semantics of the daemon.
  obs_source_ = obs::Registry::global().register_source(
      [this](std::vector<obs::Sample>& out) {
        // One-hot engine gauges: every engine is exported, so a newer
        // solver's samples shadow all of an older one's.
        for (const ServeEngine engine :
             {ServeEngine::kPortfolio, ServeEngine::kSolve54}) {
          out.push_back({"serve.engine_" + std::string(to_string(engine)),
                         engine == params_.engine ? 1u : 0u, true});
        }
        out.push_back({"cache.capacity_bytes", cache_.capacity_bytes(), true});
        const CacheStats cache = cache_.stats();
        out.push_back({"cache.hits", cache.hits, false});
        out.push_back({"cache.misses", cache.misses, false});
        out.push_back({"cache.inflight_joins", cache.inflight_joins, false});
        out.push_back({"cache.evictions", cache.evictions, false});
        out.push_back({"cache.oversized", cache.oversized, false});
        out.push_back({"cache.entries", cache.entries, true});
        out.push_back({"cache.bytes", cache.bytes, true});
        const runtime::SchedulerCounters sched = runtime::scheduler_totals();
        out.push_back({"scheduler.submitted", sched.submitted, false});
        out.push_back({"scheduler.executed", sched.executed, false});
        out.push_back(
            {"scheduler.occupancy", runtime::process_active_workers(), true});
      });
}

CachedSolve CachingSolver::compute_canonical(const Instance& canonical) {
  CachedSolve solve;
  if (params_.engine == ServeEngine::kPortfolio) {
    solve.packing =
        algo::best_of_portfolio(canonical, &solve.winner, params_.backend);
    solve.peak = peak_height(canonical, solve.packing);
  } else {
    approx::Approx54Params approx = params_.approx;
    approx.backend = params_.backend;  // ServeParams::backend is THE backend
    approx::Approx54Result result = approx::solve54(canonical, approx);
    solve.packing = std::move(result.packing);
    solve.peak = result.peak;
    solve.winner = "solve54";
  }
  return solve;
}

SolveResponse CachingSolver::solve(const Instance& instance) {
  // Adopt the caller's request id (the daemon opens one per frame) or mint
  // a fresh one for direct callers; the whole serve is one kSolve span.
  const obs::RequestScope request_scope;
  const obs::ScopedSpan solve_span(obs::Phase::kSolve);
  const CanonicalForm form = canonicalize(instance);
  SolveResponse response;
  if (params_.bypass_cache) {
    CachedSolve computed = compute_canonical(form.instance);
    response.packing = restore_item_order(form, computed.packing);
    response.peak = computed.peak;
    response.winner = std::move(computed.winner);
    response.outcome = CacheOutcome::kMiss;
    return response;
  }
  const CacheKey key{canonical_hash(form.instance), fingerprint_};
  const SolveCache::Lookup lookup = cache_.get_or_compute(
      key, [this, &form]() { return compute_canonical(form.instance); });
  response.packing = restore_item_order(form, lookup.value->packing);
  response.peak = lookup.value->peak;
  response.winner = lookup.value->winner;
  response.outcome = lookup.outcome;
  return response;
}

std::vector<SolveResponse> CachingSolver::solve_many(
    const std::vector<Instance>& instances) {
  return runtime::parallel_map(
      instances, params_.threads,
      [this](const Instance& instance, std::size_t) { return solve(instance); });
}

}  // namespace dsp::service
