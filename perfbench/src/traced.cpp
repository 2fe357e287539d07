#include "traced.hpp"

#include <filesystem>
#include <optional>
#include <sstream>

#include "algo/portfolio.hpp"
#include "approx/solve54.hpp"
#include "core/bounds.hpp"
#include "runtime/autotune.hpp"
#include "runtime/thread_pool.hpp"
#include "service/canonical.hpp"
#include "service/frame_codec.hpp"
#include "service/persist.hpp"

namespace perfbench {

namespace service = dsp::service;

namespace {

/// Layers with spans of their own.  Portfolio members follow kMembers, one
/// layer each, in portfolio order.
enum Layer : std::size_t {
  kRequest,       ///< the whole in-process service of one request
  kDecodeBinary,  ///< load_instance + to_instance of a binary request
  kDecodeJson,    ///< the same for a JSON request
  kCanonicalize,
  kHash,
  kLookup,        ///< SolveCache::get_or_compute (self: probe, insert, evict)
  kCompute,  ///< the cache's compute callback (self: the portfolio's reduce)
  kSolve54,
  kPersist,  ///< the insert observer: PersistentStore::append
  kRestore,
  kEncode,
  kMembers,
};

/// Spans of the traced pass.  Each span names its layer, its parent (the
/// span that was open when it started) and its request; self times are
/// derived when the pass ends.
class SpanLog {
 public:
  explicit SpanLog(std::size_t layers)
      : self_ns_(layers, 0), spans_per_layer_(layers, 0) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  class Scope {
   public:
    Scope(SpanLog& log, std::size_t layer) : log_(log) {
      if (!log_.enabled_) return;
      index_ = log_.spans_.size();
      log_.spans_.push_back(Span{log_.request_, layer,
                                 log_.open_.empty() ? -1 : log_.open_.back(),
                                 now_ns(), 0});
      log_.open_.push_back(static_cast<std::int64_t>(index_));
    }
    ~Scope() {
      if (!log_.enabled_) return;
      log_.spans_[index_].end = now_ns();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_ = 0;
  };

  void set_request(std::size_t request) { request_ = request; }

  /// Folds the recorded spans into per-layer self time.
  void aggregate() {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        const auto parent = static_cast<std::size_t>(span.parent);
        child_ns[parent] += span.end - span.start;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      self_ns_[span.layer] += (span.end - span.start) - child_ns[i];
      ++spans_per_layer_[span.layer];
      if (span.layer == kRequest) total_request_ns_ += span.end - span.start;
    }
  }

  [[nodiscard]] std::int64_t self_ns(std::size_t layer) const {
    return self_ns_[layer];
  }
  [[nodiscard]] std::size_t spans(std::size_t layer) const {
    return spans_per_layer_[layer];
  }
  [[nodiscard]] std::int64_t total_request_ns() const {
    return total_request_ns_;
  }

 private:
  struct Span {
    std::size_t request;
    std::size_t layer;
    std::int64_t parent;  ///< index into spans_, -1 for a root
    std::int64_t start;
    std::int64_t end;
  };

  bool enabled_ = false;
  std::size_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  std::vector<std::int64_t> self_ns_;
  std::vector<std::size_t> spans_per_layer_;
  std::int64_t total_request_ns_ = 0;
};

/// Per-pass counters the spans cannot give.
struct Counters {
  std::size_t requests = 0;
  std::size_t computed = 0;
  double request_bytes = 0;
  double response_bytes = 0;
  std::vector<std::size_t> wins;
  std::vector<std::size_t> sole_best;
  // solve54 report fields, summed over computed requests.
  double attempts = 0, rounds = 0, lp_used = 0, pricing_rounds = 0;
  double configurations = 0, pipeline_wins = 0;
  double tasks_submitted = 0, tasks_executed = 0, steals = 0;
  double witness_ns = 0, solve54_ns = 0;
  double lower_bound_ns = 0;
  std::size_t sparse = 0;
  double compaction_ms = 0;
  double warm_load_ms = 0;
};

/// One pass: a fresh cache and store (warm-loaded like the daemon's for
/// working-set workloads), then the request loop.
class Pass {
 public:
  Pass(const RequestSource& source, const ReplayOptions& options, bool traced)
      : source_(source),
        options_(options),
        portfolio_(dsp::algo::baseline_portfolio(options.serve.backend)),
        log_(kMembers + portfolio_.size()),
        cache_(options.cache),
        fingerprint_(service::params_fingerprint(options.serve)) {
    counters_.wins.assign(portfolio_.size(), 0);
    counters_.sole_best.assign(portfolio_.size(), 0);
    if (!options.persist_dir.empty()) {
      // Boot like the daemon: open the store, warm-load it, then wire the
      // append hook.
      std::filesystem::remove_all(options.persist_dir);
      if (!options.warm_from.empty()) {
        std::filesystem::copy(options.warm_from, options.persist_dir);
      }
      const std::int64_t start = now_ns();
      store_.emplace(options.persist_dir, options.snapshot_every);
      (void)store_->warm_load(cache_);
      counters_.warm_load_ms = static_cast<double>(now_ns() - start) * 1e-6;
      cache_.set_insert_observer(
          [this](const service::CacheKey& key,
                 const std::shared_ptr<const service::CachedSolve>& value) {
            const SpanLog::Scope span(log_, kPersist);
            store_->append(cache_, key, *value);
          });
    }
    log_.set_enabled(traced);
  }

  /// Serves request `index`; returns the encoded solve_ok payload.
  std::string serve(std::size_t index) {
    const Request request = source_.request(index);
    const std::string payload = RequestSource::payload(request);
    const bool json = request.format == service::WireFormat::kJson;
    log_.set_request(index);
    const std::int64_t start = now_ns();
    std::string encoded;
    {
      const SpanLog::Scope request_span(log_, kRequest);
      std::optional<dsp::Instance> instance;
      {
        const SpanLog::Scope span(log_, json ? kDecodeJson : kDecodeBinary);
        std::istringstream is(payload);
        instance.emplace(service::load_instance(is, "replay").to_instance());
      }
      std::optional<service::CanonicalForm> form;
      {
        const SpanLog::Scope span(log_, kCanonicalize);
        form.emplace(service::canonicalize(*instance));
      }
      service::CacheKey key;
      {
        const SpanLog::Scope span(log_, kHash);
        key = service::CacheKey{service::canonical_hash(form->instance),
                                fingerprint_};
      }
      service::SolveCache::Lookup lookup;
      {
        const SpanLog::Scope span(log_, kLookup);
        lookup = cache_.get_or_compute(
            key, [&] { return compute(form->instance); });
      }
      service::SolveResponse response;
      {
        const SpanLog::Scope span(log_, kRestore);
        response.packing = service::restore_item_order(*form,
                                                       lookup.value->packing);
        response.peak = lookup.value->peak;
        response.winner = lookup.value->winner;
        response.outcome = lookup.outcome;
      }
      {
        const SpanLog::Scope span(log_, kEncode);
        encoded = service::frame::encode_solve_ok(response);
      }
    }
    service_us_.push_back(static_cast<double>(now_ns() - start) * 1e-3);
    ++counters_.requests;
    counters_.request_bytes += static_cast<double>(payload.size());
    counters_.response_bytes += static_cast<double>(encoded.size());
    return encoded;
  }

  /// Unspanned side measurements of the traced pass (outside every request
  /// span): the lower bound, the backend choice, and for solve54 a
  /// separately timed witness portfolio.
  void side_measurements(std::size_t index) {
    const service::CanonicalForm form =
        service::canonicalize(source_.request(index).wire.to_instance());
    const dsp::Instance& instance = form.instance;
    std::int64_t start = now_ns();
    (void)dsp::combined_lower_bound(instance);
    counters_.lower_bound_ns += static_cast<double>(now_ns() - start);
    if (dsp::resolve_backend(dsp::ProfileBackendKind::kAuto,
                             instance.strip_width(), instance.size()) ==
        dsp::ProfileBackendKind::kSparse) {
      ++counters_.sparse;
    }
    if (options_.serve.engine == service::ServeEngine::kSolve54) {
      start = now_ns();
      std::string winner;
      (void)dsp::algo::best_of_portfolio(instance, &winner,
                                         options_.serve.backend);
      counters_.witness_ns += static_cast<double>(now_ns() - start);
    }
  }

  void finish() {
    if (store_) {
      const std::int64_t start = now_ns();
      store_->compact(cache_);
      counters_.compaction_ms = static_cast<double>(now_ns() - start) * 1e-6;
    }
    log_.aggregate();
  }

  [[nodiscard]] const SpanLog& log() const { return log_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<dsp::algo::NamedAlgorithm>& portfolio()
      const {
    return portfolio_;
  }
  [[nodiscard]] const service::SolveCache& cache() const { return cache_; }
  [[nodiscard]] const std::vector<double>& service_us() const {
    return service_us_;
  }

 private:
  /// The cache's compute callback, as CachingSolver::compute_canonical
  /// runs it: the portfolio (first strictly lower peak wins, in member
  /// order) or solve54 with the serving parameters and a long-lived tuner.
  service::CachedSolve compute(const dsp::Instance& canonical) {
    const SpanLog::Scope span(log_, kCompute);
    service::CachedSolve solve;
    const dsp::runtime::SchedulerCounters before =
        dsp::runtime::scheduler_totals();
    if (options_.serve.engine == service::ServeEngine::kPortfolio) {
      std::vector<dsp::Height> peaks;
      for (std::size_t m = 0; m < portfolio_.size(); ++m) {
        const SpanLog::Scope member(log_, kMembers + m);
        dsp::Packing candidate = portfolio_[m].run(canonical);
        peaks.push_back(dsp::peak_height(canonical, candidate));
        if (m == 0 || peaks[m] < solve.peak) {
          solve.packing = std::move(candidate);
          solve.peak = peaks[m];
          solve.winner = portfolio_[m].name;
        }
      }
      {
        std::size_t at_best = 0;
        std::size_t best_member = 0;
        for (std::size_t m = 0; m < peaks.size(); ++m) {
          if (peaks[m] == solve.peak) {
            if (at_best++ == 0) best_member = m;
          }
        }
        ++counters_.wins[best_member];
        if (at_best == 1) ++counters_.sole_best[best_member];
      }
    } else {
      dsp::approx::Approx54Params approx = options_.serve.approx;
      approx.backend = options_.serve.backend;
      approx.stealing = options_.serve.stealing;
      approx.tuner = &tuner_;
      const std::int64_t start = now_ns();
      dsp::approx::Approx54Result result;
      {
        const SpanLog::Scope solve54_span(log_, kSolve54);
        result = dsp::approx::solve54(canonical, approx);
      }
      solve.packing = std::move(result.packing);
      solve.peak = result.peak;
      solve.winner = "solve54";
      {
        const dsp::approx::Approx54Report& r = result.report;
        counters_.solve54_ns += static_cast<double>(now_ns() - start);
        counters_.attempts += static_cast<double>(r.attempts);
        counters_.rounds += static_cast<double>(r.rounds);
        counters_.lp_used += r.lp_used ? 1 : 0;
        counters_.pricing_rounds += static_cast<double>(r.lp_pricing_rounds);
        counters_.configurations += static_cast<double>(r.lp_configurations);
        counters_.pipeline_wins +=
            r.pipeline_peak > 0 && r.pipeline_peak < r.upper_bound ? 1 : 0;
      }
    }
    {
      const dsp::runtime::SchedulerCounters after =
          dsp::runtime::scheduler_totals();
      ++counters_.computed;
      counters_.tasks_submitted +=
          static_cast<double>(after.submitted - before.submitted);
      counters_.tasks_executed +=
          static_cast<double>(after.executed - before.executed);
      counters_.steals += static_cast<double>(after.steals - before.steals);
    }
    return solve;
  }

  const RequestSource& source_;
  const ReplayOptions& options_;
  std::vector<dsp::algo::NamedAlgorithm> portfolio_;
  SpanLog log_;
  service::SolveCache cache_;
  std::uint64_t fingerprint_;
  std::optional<service::PersistentStore> store_;
  dsp::runtime::AutoTuner tuner_;
  Counters counters_;
  std::vector<double> service_us_;
};

[[nodiscard]] double per(double total, std::size_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

ReplayResult traced_replay(const RequestSource& source,
                           const ReplayOptions& options, std::size_t first,
                           std::size_t count) {
  // The untraced pass makes the same calls with no span recorded.  The two
  // passes alternate request by request (and which goes first), so both
  // see the same cache and allocator warmth.
  ReplayOptions untraced_options = options;
  if (!options.persist_dir.empty()) untraced_options.persist_dir += "-untraced";
  Pass untraced(source, untraced_options, false);
  Pass pass(source, options, true);
  ReplayResult result;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) (void)untraced.serve(first + i);
    result.payloads.push_back(pass.serve(first + i));
    if (i % 2 == 1) (void)untraced.serve(first + i);
  }
  double untraced_us = 0.0;
  for (const double us : untraced.service_us()) untraced_us += us;
  for (std::size_t i = 0; i < count; ++i) pass.side_measurements(first + i);
  pass.finish();
  result.service_us = pass.service_us();

  const SpanLog& log = pass.log();
  const Counters& c = pass.counters();
  const auto add = [&](const std::string& layer, const std::string& name,
                       double value, const std::string& unit) {
    result.rows.push_back(Row{layer, name, value, unit, 0.0});
  };
  const auto self_us = [&](std::size_t layer, std::size_t per_count) {
    return per(static_cast<double>(log.self_ns(layer)) * 1e-3, per_count);
  };
  double traced_us = 0.0;
  for (const double us : result.service_us) traced_us += us;
  const double request_ns = static_cast<double>(log.total_request_ns());

  add("trace", "trace.requests", static_cast<double>(c.requests), "count");
  result.service_p50_us = median(result.service_us);
  add("trace", "trace.service_us", result.service_p50_us, "us");
  result.unattributed_frac =
      request_ns > 0 ? static_cast<double>(log.self_ns(kRequest)) / request_ns
                     : 0.0;
  add("trace", "trace.unattributed_frac", result.unattributed_frac, "frac");
  add("trace", "trace.overhead_frac",
      untraced_us > 0 ? (traced_us - untraced_us) / untraced_us : 0.0, "frac");

  add("service/wire", "wire.decode_us.binary",
      self_us(kDecodeBinary, log.spans(kDecodeBinary)), "us");
  add("service/wire", "wire.decode_us.json",
      self_us(kDecodeJson, log.spans(kDecodeJson)), "us");
  add("service/wire", "wire.encode_us", self_us(kEncode, c.requests), "us");
  add("service/wire", "wire.request_bytes", per(c.request_bytes, c.requests),
      "bytes");
  add("service/wire", "wire.response_bytes",
      per(c.response_bytes, c.requests), "bytes");
  add("service/canonical", "canonical.canonicalize_us",
      self_us(kCanonicalize, c.requests), "us");
  add("service/canonical", "canonical.hash_us", self_us(kHash, c.requests),
      "us");
  add("service/canonical", "canonical.restore_us",
      self_us(kRestore, c.requests), "us");
  add("service/cache", "cache.lookup_us", self_us(kLookup, c.requests), "us");
  const service::CacheStats stats = pass.cache().stats();
  add("service/cache", "cache.hit_ratio",
      per(static_cast<double>(stats.hits), stats.hits + stats.misses), "frac");
  add("service/persist", "persist.append_us",
      self_us(kPersist, log.spans(kPersist)), "us");
  add("service/persist", "persist.compact_ms", c.compaction_ms, "ms");
  add("service/persist", "persist.warm_load_ms", c.warm_load_ms, "ms");

  // Portfolio members: mean cost per computed request, and how often each
  // gave the returned peak (first in order) or was the only one to.
  double members_ns = 0.0;
  for (std::size_t k = 0; k < pass.portfolio().size(); ++k) {
    const std::string& name = pass.portfolio()[k].name;
    const auto member_ns = static_cast<double>(log.self_ns(kMembers + k));
    members_ns += member_ns;
    add("algo/portfolio", "portfolio.member_ms." + name,
        per(member_ns * 1e-6, c.computed), "ms");
    add("algo/portfolio", "portfolio.wins." + name,
        static_cast<double>(c.wins[k]), "count");
    add("algo/portfolio", "portfolio.sole_best." + name,
        static_cast<double>(c.sole_best[k]), "count");
  }
  const bool portfolio =
      options.serve.engine == service::ServeEngine::kPortfolio;
  const auto compute_self_ns = static_cast<double>(log.self_ns(kCompute));
  add("algo/portfolio", "portfolio.solve_ms",
      portfolio ? per((compute_self_ns + members_ns) * 1e-6, c.computed) : 0.0,
      "ms");
  // Share of in-process service time spent inside the compute callback
  // (portfolio members or solve54).
  const double compute_ns = compute_self_ns + members_ns +
                            static_cast<double>(log.self_ns(kSolve54));
  add("trace", "trace.compute_frac",
      request_ns > 0 ? compute_ns / request_ns : 0.0, "frac");

  add("core", "core.lower_bound_us", per(c.lower_bound_ns * 1e-3, c.requests),
      "us");
  add("core", "core.sparse_frac",
      per(static_cast<double>(c.sparse), c.requests), "frac");

  add("approx", "solve54.solve_ms", per(c.solve54_ns * 1e-6, c.computed), "ms");
  add("approx", "solve54.minus_witness_ms",
      portfolio ? 0.0 : per((c.solve54_ns - c.witness_ns) * 1e-6, c.computed),
      "ms");
  add("approx", "solve54.attempts", per(c.attempts, c.computed), "count");
  add("approx", "solve54.rounds", per(c.rounds, c.computed), "count");
  add("approx", "solve54.lp_used_frac", per(c.lp_used, c.computed), "frac");
  add("approx", "solve54.lp_pricing_rounds", per(c.pricing_rounds, c.computed),
      "count");
  add("approx", "solve54.lp_configurations", per(c.configurations, c.computed),
      "count");
  add("approx", "solve54.pipeline_win_frac", per(c.pipeline_wins, c.computed),
      "frac");

  add("runtime", "runtime.tasks_submitted", per(c.tasks_submitted, c.computed),
      "count");
  add("runtime", "runtime.tasks_executed", per(c.tasks_executed, c.computed),
      "count");
  add("runtime", "runtime.steals", per(c.steals, c.computed), "count");
  return result;
}

}  // namespace perfbench
