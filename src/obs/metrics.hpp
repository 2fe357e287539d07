#pragma once

// The metrics registry (DESIGN.md, "Observability"): named counters,
// gauges, and fixed-bucket log2 latency histograms behind one process-wide
// export surface.
//
// Before this layer, every stats consumer was hand-wired: CacheStats,
// SchedulerCounters, AdmissionGate::Counters and the daemon's own atomics
// each grew bespoke plumbing.  The registry unifies them, and its
// exposition is the only way counters leave the process:
//
//  * owned instruments — Counter (sharded-atomic, monotonic), Gauge
//    (last-value), Histogram (64 log2 buckets, sharded-atomic, exact
//    integer quantiles) — are created-or-found by name and live for the
//    process.
//  * sources — pull callbacks that sample an existing stats struct at
//    snapshot time (the Prometheus "collector" idiom).  The legacy structs
//    keep their storage and their per-instance semantics; the registry is
//    how they all reach one exposition.
//
// Naming scheme: dot-separated `<subsystem>.<metric>[_<unit>]`, e.g.
// `cache.hits`, `phase.solve_nanos`.  The Prometheus text exposition
// rewrites dots to underscores under a `dsp_` prefix (`dsp_cache_hits`).
//
// Determinism: nothing here reads a clock (that is obs/trace.cpp's job,
// and the determinism lint pins it there) and nothing here feeds values
// back into solving — instruments are write-only from the solver's point
// of view.  Counts themselves are exact: increments are atomic adds, and
// quantiles are derived with integer arithmetic from the merged buckets,
// so the same samples always produce the same snapshot.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/sync.hpp"

namespace dsp::obs {

/// Stripes per instrument: enough to keep 8-wide increment storms off one
/// cache line without bloating every histogram.  Must be a power of two.
inline constexpr std::size_t kStripes = 8;

/// Histogram buckets.  Bucket 0 holds the value 0; bucket i >= 1 holds
/// [2^(i-1), 2^i - 1]; the last bucket is open-ended.  64 buckets cover
/// every uint64 nanosecond value.
inline constexpr std::size_t kHistogramBuckets = 64;

/// This thread's stripe, assigned round-robin at first use (stable for the
/// thread's lifetime, so a thread always hits the same cache line).
[[nodiscard]] std::size_t stripe_index() noexcept;

// ---------------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------------

/// Monotonic counter, striped across cache lines so concurrent increments
/// from pool workers do not serialize on one atomic.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    stripes_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Stripe, kStripes> stripes_{};
};

/// Last-value instrument for levels (resident entries, queue depth).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Frozen bucket counts of one histogram; all derived statistics (count,
/// sum, quantiles) come from here so they agree with each other.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> counts{};
  std::uint64_t total = 0;
  std::uint64_t sum = 0;

  /// Upper bound of the bucket holding the q = num/den quantile (the
  /// smallest bucket bound covering at least ceil(q * total) samples);
  /// 0 for an empty histogram.  Integer arithmetic throughout, and
  /// monotone in q by construction.
  [[nodiscard]] std::uint64_t quantile(std::uint64_t num,
                                       std::uint64_t den) const;

  /// Bucket-wise difference vs. an earlier snapshot of the same histogram
  /// (for per-pass deltas).  Counts are monotonic, so this never wraps.
  [[nodiscard]] HistogramSnapshot since(const HistogramSnapshot& base) const;
};

/// Fixed-bucket log2 histogram of uint64 samples (latencies in nanos).
/// record() is two relaxed atomic adds on a thread-striped cache line —
/// no locks, no allocation — and snapshots merge the stripes exactly.
class Histogram {
 public:
  /// Bucket for a value: 0 -> 0, otherwise 1 + floor(log2(v)), clamped.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept;
  /// Largest value the bucket covers (UINT64_MAX for the open last one).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index) noexcept;

  void record(std::uint64_t value) noexcept {
    Stripe& stripe = stripes_[stripe_index()];
    stripe.counts[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    stripe.sum.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  struct alignas(64) Stripe {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> counts{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Stripe, kStripes> stripes_{};
};

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// One exported scalar sample (from an owned instrument or a source).
struct Sample {
  std::string name;
  std::uint64_t value = 0;
  /// Counters are monotonic; gauges are levels.  Only the exposition's
  /// TYPE line cares.
  bool is_gauge = false;
};

/// Everything the registry knows at one instant, names sorted.
struct MetricsSnapshot {
  std::vector<Sample> samples;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// The sample with `name`, or 0 when absent (missing == never touched).
  [[nodiscard]] std::uint64_t sample_value(std::string_view name) const;
};

class Registry {
 public:
  /// The process-wide registry (instruments are process-scoped, exactly
  /// like a Prometheus exposition).
  [[nodiscard]] static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create-or-find by name.  References stay valid for the registry's
  /// lifetime (node-stable storage), so hot paths resolve once and then
  /// touch only atomics.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// RAII registration of a pull source; unregisters on destruction.
  class Source {
   public:
    Source() = default;
    Source(Source&& other) noexcept
        : registry_(other.registry_), token_(other.token_) {
      other.registry_ = nullptr;
    }
    Source& operator=(Source&& other) noexcept {
      if (this != &other) {
        reset();
        registry_ = other.registry_;
        token_ = other.token_;
        other.registry_ = nullptr;
      }
      return *this;
    }
    Source(const Source&) = delete;
    Source& operator=(const Source&) = delete;
    ~Source() { reset(); }

    void reset();

   private:
    friend class Registry;
    Source(Registry* registry, std::uint64_t token)
        : registry_(registry), token_(token) {}
    Registry* registry_ = nullptr;
    std::uint64_t token_ = 0;
  };

  using SourceFn = std::function<void(std::vector<Sample>&)>;

  /// Registers a pull callback sampled at snapshot time.  The callback
  /// runs under the registry lock: it must not touch the registry itself.
  /// When two live sources emit the same name, the later registration
  /// wins (a restarted daemon re-registering its counters replaces the
  /// drained one's).
  [[nodiscard]] Source register_source(SourceFn fn);

  /// Owned instruments plus every source's samples, names sorted; for
  /// duplicate names the latest registration wins.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus-style text exposition of snapshot(): `dsp_`-prefixed
  /// underscore names, `# TYPE` lines, histograms as cumulative
  /// `_bucket{le=...}` series with `_sum`/`_count`.
  [[nodiscard]] std::string prometheus_text() const;

 private:
  friend class Source;
  void unregister_source(std::uint64_t token);

  struct SourceEntry {
    std::uint64_t token = 0;
    SourceFn fn;
  };

  mutable runtime::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DSP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      DSP_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      DSP_GUARDED_BY(mutex_);
  std::vector<SourceEntry> sources_ DSP_GUARDED_BY(mutex_);
  std::uint64_t next_token_ DSP_GUARDED_BY(mutex_) = 1;
};

/// The reader side of prometheus_text(): exposition name -> value for every
/// unlabelled sample line (counters, gauges, and each histogram's `_sum` /
/// `_count`; `_bucket{le=...}` lines and comments are skipped).  Gauges come
/// back as the uint64 the exposition printed.  Throws InvalidInput on a
/// sample line that is not `name value`.
[[nodiscard]] std::map<std::string, std::uint64_t> parse_exposition(
    std::string_view text);

}  // namespace dsp::obs
