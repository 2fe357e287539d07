// The observability layer (DESIGN.md, "Observability"): histogram edge
// cases and exact concurrent merges, registry snapshot/exposition and
// pull-source semantics, the tracer's ring buffer and Chrome trace JSON,
// the phase histograms solve54 feeds, and — the contract everything else
// rides on — packings bit-identical with tracing on vs. off across {1,2,8}
// threads and both profile backends, with the tracing switch provably
// outside the cache fingerprint.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "approx/solve54.hpp"
#include "gen/families.hpp"
#include "gen/smart_grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/frame_codec.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp::obs {
namespace {

/// Restores the global tracing switch on scope exit, so a test that flips
/// it cannot leak state into its neighbours.
class SwitchGuard {
 public:
  SwitchGuard() : tracing_(tracing_enabled()) {}
  ~SwitchGuard() { set_tracing_enabled(tracing_); }

 private:
  bool tracing_;
};

// ---------------------------------------------------------------------------
// Histogram buckets and quantiles.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  // Every power of two opens a new bucket; its predecessor closes one.
  for (std::size_t k = 1; k < 63; ++k) {
    const std::uint64_t pow = std::uint64_t{1} << k;
    EXPECT_EQ(Histogram::bucket_index(pow), k + 1) << "2^" << k;
    EXPECT_EQ(Histogram::bucket_index(pow - 1), k) << "2^" << k << " - 1";
  }
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), kHistogramBuckets - 1);
}

TEST(HistogramTest, BucketUpperCoversItsIndex) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
                          std::uint64_t{1000}, std::uint64_t{1} << 40}) {
    EXPECT_GE(Histogram::bucket_upper(Histogram::bucket_index(v)), v);
  }
  EXPECT_EQ(Histogram::bucket_upper(kHistogramBuckets - 1), UINT64_MAX);
}

TEST(HistogramTest, EmptyHistogramQuantilesAreZero) {
  const Histogram hist;
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.quantile(50, 100), 0u);
  EXPECT_EQ(snap.quantile(99, 100), 0u);
}

TEST(HistogramTest, SingleSampleOwnsEveryQuantile) {
  Histogram hist;
  hist.record(1000);  // bucket [512, 1023]
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, 1u);
  EXPECT_EQ(snap.sum, 1000u);
  const std::uint64_t upper =
      Histogram::bucket_upper(Histogram::bucket_index(1000));
  EXPECT_EQ(snap.quantile(1, 100), upper);
  EXPECT_EQ(snap.quantile(50, 100), upper);
  EXPECT_EQ(snap.quantile(99, 100), upper);
  EXPECT_EQ(snap.quantile(100, 100), upper);
}

TEST(HistogramTest, QuantilesAreMonotoneInQ) {
  Histogram hist;
  Rng rng(404);
  for (int i = 0; i < 1000; ++i) {
    hist.record(static_cast<std::uint64_t>(rng.uniform(0, 1 << 20)));
  }
  const HistogramSnapshot snap = hist.snapshot();
  std::uint64_t prev = 0;
  for (std::uint64_t q = 1; q <= 100; ++q) {
    const std::uint64_t value = snap.quantile(q, 100);
    EXPECT_GE(value, prev) << "quantile not monotone at q=" << q;
    prev = value;
  }
}

TEST(HistogramTest, QuantileSplitsAtBucketBoundary) {
  Histogram hist;
  // Two buckets: 10 samples of value 1 (bucket 1, upper 1), 10 of value 4
  // (bucket 3, upper 7).  p50 must come from the first, p51 the second.
  for (int i = 0; i < 10; ++i) hist.record(1);
  for (int i = 0; i < 10; ++i) hist.record(4);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, 20u);
  EXPECT_EQ(snap.quantile(50, 100), 1u);
  EXPECT_EQ(snap.quantile(51, 100), 7u);
  EXPECT_EQ(snap.quantile(100, 100), 7u);
}

TEST(HistogramTest, ConcurrentIncrementsMergeExactly) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.total, static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<std::uint64_t>(t + 1) * kPerThread;
  }
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(HistogramTest, SinceComputesBucketwiseDelta) {
  Histogram hist;
  hist.record(3);
  hist.record(100);
  const HistogramSnapshot before = hist.snapshot();
  hist.record(3);
  hist.record(5000);
  const HistogramSnapshot delta = hist.snapshot().since(before);
  EXPECT_EQ(delta.total, 2u);
  EXPECT_EQ(delta.sum, 5003u);
  EXPECT_EQ(delta.counts[Histogram::bucket_index(3)], 1u);
  EXPECT_EQ(delta.counts[Histogram::bucket_index(5000)], 1u);
  EXPECT_EQ(delta.counts[Histogram::bucket_index(100)], 0u);
}

// ---------------------------------------------------------------------------
// Registry: histograms, sources, exposition.
// ---------------------------------------------------------------------------

/// A source exporting one counter and one gauge, the two sample kinds.
[[nodiscard]] Registry::Source register_cache_source(Registry& registry) {
  return registry.register_source([](std::vector<Sample>& out) {
    out.push_back({"cache.hits.test", 42, false});
    out.push_back({"cache.entries.test", 9, true});
  });
}

TEST(RegistryTest, SourceSamplesAppearAndVanishWithRegistration) {
  Registry registry;
  {
    const Registry::Source source =
        registry.register_source([](std::vector<Sample>& out) {
          out.push_back({"src.live", 7, false});
        });
    EXPECT_EQ(registry.snapshot().sample_value("src.live"), 7u);
  }
  // Unregistered on destruction: the sample is gone, not stale.
  EXPECT_EQ(registry.snapshot().sample_value("src.live"), 0u);
}

TEST(RegistryTest, LaterSourceWinsDuplicateNames) {
  Registry registry;
  const Registry::Source old_daemon =
      registry.register_source([](std::vector<Sample>& out) {
        out.push_back({"daemon.requests.test", 1, false});
      });
  const Registry::Source new_daemon =
      registry.register_source([](std::vector<Sample>& out) {
        out.push_back({"daemon.requests.test", 2, false});
      });
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.sample_value("daemon.requests.test"), 2u);
  // Deduplicated, not just shadowed: one sample under the name.
  std::size_t occurrences = 0;
  for (const Sample& sample : snap.samples) {
    if (sample.name == "daemon.requests.test") ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST(RegistryTest, PrometheusTextCarriesEveryInstrument) {
  Registry registry;
  const Registry::Source source = register_cache_source(registry);
  registry.histogram("phase.solve_nanos.test").record(1000);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE dsp_cache_hits_test counter"),
            std::string::npos);
  EXPECT_NE(text.find("dsp_cache_hits_test 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dsp_cache_entries_test gauge"),
            std::string::npos);
  EXPECT_NE(text.find("dsp_cache_entries_test 9"), std::string::npos);
  EXPECT_NE(text.find("dsp_phase_solve_nanos_test_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("dsp_phase_solve_nanos_test_sum 1000"),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 1"), std::string::npos);
}

TEST(RegistryTest, ParseExpositionReadsBackEveryPlainSample) {
  Registry registry;
  const Registry::Source source = register_cache_source(registry);
  registry.histogram("phase.solve_nanos.test").record(1000);
  const std::map<std::string, std::uint64_t> parsed =
      parse_exposition(registry.prometheus_text());
  const std::map<std::string, std::uint64_t> expected = {
      {"dsp_cache_entries_test", 9},
      {"dsp_cache_hits_test", 42},
      {"dsp_phase_solve_nanos_test_count", 1},
      {"dsp_phase_solve_nanos_test_sum", 1000}};
  EXPECT_EQ(parsed, expected) << "bucket lines and comments are skipped";
}

TEST(RegistryTest, ParseExpositionRejectsMalformedSampleLines) {
  EXPECT_TRUE(parse_exposition("").empty());
  EXPECT_THROW((void)parse_exposition("dsp_a\n"), InvalidInput);
  EXPECT_THROW((void)parse_exposition("dsp_a 12x\n"), InvalidInput);
  EXPECT_THROW((void)parse_exposition("dsp_a -1\n"), InvalidInput);
  EXPECT_THROW((void)parse_exposition(" 12\n"), InvalidInput);
}

// ---------------------------------------------------------------------------
// Tracer: spans, ring overflow, Chrome JSON.
// ---------------------------------------------------------------------------

TEST(TracerTest, AppendsAreCountedAndCleared) {
  Tracer tracer;
  tracer.append(Phase::kSolve, 100, 50, 1);
  tracer.append(Phase::kAttempt, 120, 10, 1);
  EXPECT_EQ(tracer.spans_recorded(), 2u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  tracer.clear();
  EXPECT_EQ(tracer.spans_recorded(), 0u);
}

TEST(TracerTest, RingBytesCountOneRingPerRecordingThread) {
  Tracer tracer;
  EXPECT_EQ(tracer.ring_bytes(), 0u);
  tracer.append(Phase::kSolve, 100, 50, 1);
  const std::uint64_t one_ring = tracer.ring_bytes();
  EXPECT_GE(one_ring, Tracer::kRingCapacity * 3 * sizeof(std::uint64_t));
  tracer.append(Phase::kAttempt, 120, 10, 1);
  EXPECT_EQ(tracer.ring_bytes(), one_ring);
  std::thread([&tracer]() { tracer.append(Phase::kSolve, 200, 5, 2); }).join();
  EXPECT_EQ(tracer.ring_bytes(), 2 * one_ring);
}

TEST(TracerTest, RepeatedSolve54CallsAddNoRings) {
  // solve54 runs on the calling thread, so traced calls from one thread
  // all land in that thread's ring: after the first call, ring memory is
  // flat no matter how many calls follow.
  const SwitchGuard guard;
  set_tracing_enabled(true);
  Rng rng(31);
  const Instance inst = gen::random_uniform(40, 256, 4, 24, rng);
  (void)approx::solve54(inst);
  const std::uint64_t after_first = Tracer::global().ring_bytes();
  EXPECT_GT(after_first, 0u);
  for (int call = 1; call < 50; ++call) (void)approx::solve54(inst);
  EXPECT_EQ(Tracer::global().ring_bytes(), after_first);
}

TEST(TracerTest, Solve54RecordsOnlyOnTheCallingThread) {
  // Once the calling thread owns a ring, even the first traced solve54
  // adds none: no step of the pipeline runs on another thread.
  const SwitchGuard guard;
  set_tracing_enabled(true);
  { const ScopedSpan warm_up(Phase::kSolve); }
  const std::uint64_t before = Tracer::global().ring_bytes();
  ASSERT_GT(before, 0u);
  const std::uint64_t spans_before = Tracer::global().spans_recorded();
  Rng rng(32);
  const Instance inst = gen::random_uniform(40, 256, 4, 24, rng);
  approx::Approx54Params params;
  params.epsilon = Fraction(1, 64);
  (void)approx::solve54(inst, params);
  EXPECT_GT(Tracer::global().spans_recorded(), spans_before);
  EXPECT_EQ(Tracer::global().ring_bytes(), before);
}

TEST(TracerTest, RingOverflowDropsOldestAndCounts) {
  Tracer tracer;
  const std::size_t extra = 10;
  for (std::size_t i = 0; i < Tracer::kRingCapacity + extra; ++i) {
    tracer.append(Phase::kAttempt, i, 1, 0);
  }
  EXPECT_EQ(tracer.spans_recorded(), Tracer::kRingCapacity + extra);
  EXPECT_EQ(tracer.spans_dropped(), extra);
  // The retained window is the newest kRingCapacity spans: the trace's
  // earliest timestamp is exactly `extra` (spans 0..extra-1 overwritten).
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string trace = os.str();
  std::size_t events = 0;
  for (std::size_t at = trace.find("\"ph\":\"X\""); at != std::string::npos;
       at = trace.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, Tracer::kRingCapacity);
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  Tracer tracer;
  tracer.append(Phase::kRequest, 1000, 4500, 7);
  tracer.append(Phase::kSolve, 1500, 2250, 7);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string trace = os.str();
  // Structural checks; the CI smoke step additionally json.loads a real
  // trace (tools/check_trace.py).
  EXPECT_EQ(trace.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_NE(trace.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"request_id\":7}"), std::string::npos);
  // Timestamps are rebased to the earliest span and written as exact
  // fixed-point micros: 1500-1000 nanos -> ts 0.500, dur 2250 -> 2.250.
  EXPECT_NE(trace.find("\"ts\":0.500"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":2.250"), std::string::npos);
  EXPECT_EQ(trace.find("e+"), std::string::npos)
      << "scientific notation leaked into the trace";
  EXPECT_EQ(trace.find("e-"), std::string::npos);
  // Balanced braces/brackets (no nesting surprises in a flat event list).
  int depth = 0;
  for (const char c : trace) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TracerTest, EmptyTraceIsStillADocument) {
  const Tracer tracer;
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_EQ(os.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

// ---------------------------------------------------------------------------
// ScopedSpan / RequestScope.
// ---------------------------------------------------------------------------

TEST(ScopedSpanTest, SpanFeedsPhaseHistogram) {
  const HistogramSnapshot before =
      phase_histogram(Phase::kPricingRound).snapshot();
  { const ScopedSpan span(Phase::kPricingRound); }
  { const ScopedSpan span(Phase::kPricingRound); }
  EXPECT_EQ(
      phase_histogram(Phase::kPricingRound).snapshot().since(before).total,
      2u);
}

TEST(RequestScopeTest, NestedScopesAdoptTheOuterId) {
  EXPECT_EQ(current_request_id(), 0u);
  std::uint64_t outer_id = 0;
  {
    const RequestScope outer;
    outer_id = outer.id();
    EXPECT_GT(outer_id, 0u);
    EXPECT_EQ(current_request_id(), outer_id);
    {
      const RequestScope inner;
      EXPECT_EQ(inner.id(), outer_id) << "inner scope must adopt, not mint";
      EXPECT_EQ(current_request_id(), outer_id);
    }
    EXPECT_EQ(current_request_id(), outer_id)
        << "inner scope must not unbind the outer id";
  }
  EXPECT_EQ(current_request_id(), 0u);
  const RequestScope next;
  EXPECT_GT(next.id(), outer_id) << "fresh scopes mint fresh ids";
}

// ---------------------------------------------------------------------------
// Frame codec: metrics frames.
// ---------------------------------------------------------------------------

TEST(FrameCodecObsTest, MetricsRoundTripAndVersionGate) {
  const std::string exposition =
      "# TYPE dsp_cache_hits counter\ndsp_cache_hits 18\n";
  const std::string payload = service::frame::encode_metrics(exposition);
  EXPECT_EQ(static_cast<std::uint8_t>(payload[0]),
            service::frame::kMetricsVersion);
  EXPECT_EQ(service::frame::decode_metrics(payload, "test"), exposition);

  std::string bad = payload;
  bad[0] = 9;
  EXPECT_THROW((void)service::frame::decode_metrics(bad, "test"),
               InvalidInput);

  std::string trailing = payload + "x";
  EXPECT_THROW((void)service::frame::decode_metrics(trailing, "test"),
               InvalidInput);
}

// ---------------------------------------------------------------------------
// The determinism contract: tracing cannot move a single start coordinate,
// and the tracing switch lives outside the cache fingerprint.
// ---------------------------------------------------------------------------

class TracingBitIdentity
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, ProfileBackendKind>> {};

TEST_P(TracingBitIdentity, PackingsIdenticalTracingOnAndOff) {
  const SwitchGuard guard;
  const auto& [threads, backend] = GetParam();

  Rng rng(20260808);
  std::vector<Instance> batch;
  batch.push_back(gen::random_uniform(40, 64, 32, 12, rng));
  batch.push_back(gen::tall_items(30, 48, 20, rng));
  batch.push_back(gen::smart_grid(24, 96, rng));
  // Wide, lightly covered: kAuto resolves to sparse; forced dense/sparse
  // below must agree anyway.
  batch.push_back(gen::random_uniform(24, 4096, 6, 10, rng));

  service::ServeParams params;
  params.engine = service::ServeEngine::kSolve54;
  params.backend = backend;
  params.threads = threads;
  params.bypass_cache = true;  // force a real solve on every pass

  const auto solve_all = [&]() {
    service::CachingSolver solver(params);
    return solver.solve_many(batch);
  };

  set_tracing_enabled(false);
  const std::vector<service::SolveResponse> baseline = solve_all();

  set_tracing_enabled(true);
  const std::vector<service::SolveResponse> traced = solve_all();

  ASSERT_EQ(baseline.size(), traced.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].packing, traced[i].packing) << "instance " << i;
    EXPECT_EQ(baseline[i].peak, traced[i].peak) << "instance " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndBackends, TracingBitIdentity,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Values(ProfileBackendKind::kDense,
                                         ProfileBackendKind::kSparse)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_" +
             std::string(to_string(std::get<1>(info.param)));
    });

TEST(ObsOutsideFingerprint, TogglesDoNotChangeTheCacheKey) {
  const SwitchGuard guard;
  service::ServeParams params;
  params.engine = service::ServeEngine::kSolve54;

  set_tracing_enabled(false);
  const std::uint64_t off = service::params_fingerprint(params);
  set_tracing_enabled(true);
  const std::uint64_t on = service::params_fingerprint(params);
  EXPECT_EQ(off, on);
}

TEST(ObsOutsideFingerprint, EntryCachedUntracedIsHitWhenTracing) {
  const SwitchGuard guard;
  Rng rng(77);
  const Instance instance = gen::smart_grid(24, 96, rng);

  service::CachingSolver solver(service::ServeParams{});
  set_tracing_enabled(false);
  const service::SolveResponse cold = solver.solve(instance);
  EXPECT_EQ(cold.outcome, service::CacheOutcome::kMiss);

  set_tracing_enabled(true);
  const service::SolveResponse warm = solver.solve(instance);
  EXPECT_EQ(warm.outcome, service::CacheOutcome::kHit)
      << "flipping the tracing switch must not fragment the cache";
  EXPECT_EQ(warm.packing, cold.packing);
  EXPECT_EQ(warm.peak, cold.peak);
}

// ---------------------------------------------------------------------------
// Phase breakdown of solve54 in the phase histograms.
// ---------------------------------------------------------------------------

TEST(PhaseBreakdown, Solve54FeedsAttemptPricingAndResolveHistograms) {
  const auto snapshot = [](Phase phase) {
    return phase_histogram(phase).snapshot();
  };
  const HistogramSnapshot attempt_before = snapshot(Phase::kAttempt);
  const HistogramSnapshot pricing_before = snapshot(Phase::kPricingRound);
  const HistogramSnapshot resolve_before = snapshot(Phase::kLpResolve);
  // Narrow items on a wide strip: the regime where the Lemma-10 LP runs
  // (on at least one of these four; test_config_lp uses the same mix).
  Rng rng(505);
  std::size_t attempts = 0;
  std::size_t best_guess_rounds = 0;
  for (int round = 0; round < 4; ++round) {
    const Instance instance = gen::random_uniform(50, 240, 4, 24, rng);
    const approx::Approx54Result result = approx::solve54(instance, {});
    attempts += result.report.attempts;
    best_guess_rounds += result.report.lp_pricing_rounds;
  }
  const HistogramSnapshot attempt =
      snapshot(Phase::kAttempt).since(attempt_before);
  const HistogramSnapshot pricing =
      snapshot(Phase::kPricingRound).since(pricing_before);
  const HistogramSnapshot resolve =
      snapshot(Phase::kLpResolve).since(resolve_before);
  EXPECT_EQ(attempt.total, attempts) << "one span per attempt";
  EXPECT_GT(attempt.sum, 0u);
  ASSERT_GT(pricing.total, 0u) << "no attempt ran the configuration LP";
  EXPECT_GE(pricing.total, best_guess_rounds);
  // Every column-generation round opens with exactly one resolve.
  EXPECT_EQ(resolve.total, pricing.total);
  // Resolves nest inside pricing rounds, which nest inside attempts, and
  // solve54 runs on this thread alone, so the sums are ordered.
  EXPECT_GE(attempt.sum, pricing.sum);
  EXPECT_GE(pricing.sum, resolve.sum);
}

}  // namespace
}  // namespace dsp::obs
