#pragma once

// The phase tracer (DESIGN.md, "Observability"): scoped span timers over
// the request lifecycle, recorded into per-thread ring buffers and emitted
// as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// The span vocabulary follows one request end to end:
//
//   request        daemon: frame received -> response written
//   admission_wait blocked in AdmissionGate::enter
//   solve          CachingSolver::solve (canonicalize -> cache -> restore)
//   cache_lookup   SolveCache probe (the locked part)
//   inflight_join  blocked on another thread's in-flight computation
//   lower_bound    core combined_lower_bound
//   bisection_rnd  one solve54 bisection round (all guesses)
//   attempt        one solve54 attempt (steps 3-6) at one guess
//   witness        the portfolio witness solve
//   pricing_round  one config-LP column-generation round
//   lp_resolve     one warm-started LP resolve
//
// Every span feeds the per-phase latency histogram in the Registry
// ("phase.<name>_nanos"); that path is always on, and its cost is what
// perfbench's trace.overhead_frac measures.  One switch, process-wide and
// off the result path, adds to it:
//
//  * tracing (default OFF): spans are additionally appended to this
//    thread's ring buffer for the Chrome trace.  The buffer is a
//    fixed-capacity ring allocated on the thread's first traced span —
//    recording never allocates after that, and overflow overwrites the
//    oldest spans (counted as dropped) instead of growing.
//
// Determinism: a span observes time, it never acts on it — no control flow
// anywhere reads a span, a histogram, or the tracer.  The determinism lint
// (tools/lint_determinism.py) enforces the stronger structural form of
// that argument: obs/trace.cpp is the only file under src/obs allowed to
// name a clock, and the result-affecting roots stay clock-free entirely,
// so instrumented code *cannot* branch on timing.  The bit-identity test
// (tests/test_obs.cpp) checks the end result: packings identical with
// tracing on vs. off across {1,2,8} threads and both profile backends.

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "obs/metrics.hpp"

namespace dsp::obs {

enum class Phase : std::uint8_t {
  kRequest = 0,
  kAdmissionWait,
  kSolve,
  kCacheLookup,
  kInflightJoin,
  kLowerBound,
  kBisectionRound,
  kAttempt,
  kWitness,
  kPricingRound,
  kLpResolve,
  kCount,
};

[[nodiscard]] std::string_view phase_name(Phase phase) noexcept;

/// The per-phase latency histogram ("phase.<name>_nanos" in the Registry).
[[nodiscard]] Histogram& phase_histogram(Phase phase);

/// Tracing switch: spans additionally land in the ring buffers (default
/// off).  Flip before traffic; flipping mid-request only affects spans
/// that start afterwards.
void set_tracing_enabled(bool enabled) noexcept;
[[nodiscard]] bool tracing_enabled() noexcept;

/// The process-wide span sink: one fixed-capacity ring buffer per thread
/// that ever recorded a traced span (buffers outlive their threads, so a
/// retired pool worker's spans still reach the flush).
class Tracer {
 public:
  /// Spans a thread's ring holds before it wraps (overwriting oldest).
  static constexpr std::size_t kRingCapacity = 4096;

  [[nodiscard]] static Tracer& global();

  // Out of line: ThreadBuffer is incomplete here, so the members that
  // destroy buffers_ must live where it is defined (trace.cpp).
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends one finished span to the calling thread's ring.
  void append(Phase phase, std::uint64_t start_nanos, std::uint64_t dur_nanos,
              std::uint64_t request_id);

  [[nodiscard]] std::uint64_t spans_recorded() const;
  [[nodiscard]] std::uint64_t spans_dropped() const;
  /// Memory held by the rings: one fixed-size ring per thread that ever
  /// recorded a traced span, never freed (clear() keeps the rings).
  [[nodiscard]] std::uint64_t ring_bytes() const;

  /// Drops every recorded span (the counters reset too).  For test
  /// isolation and for separating runs inside one process.
  void clear();

  /// One Chrome trace-event JSON document ({"traceEvents": [...]}) of
  /// every retained span: complete ("ph":"X") events, microsecond
  /// timestamps rebased to the earliest span, thread ids, and the request
  /// id under "args".  Loads in chrome://tracing and Perfetto as-is.
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct ThreadBuffer;

  /// The calling thread's buffer, created and registered on first use.
  [[nodiscard]] ThreadBuffer& buffer_for_this_thread();

  mutable runtime::Mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ DSP_GUARDED_BY(mutex_);
  std::uint32_t next_tid_ DSP_GUARDED_BY(mutex_) = 1;
  /// Process-unique instance id; per-thread buffer handles key on it
  /// because a destroyed tracer's address can be reused (stack-allocated
  /// tracers in tests), while ids never are.
  std::uint64_t tracer_id_ = 0;
};

/// RAII phase timer: construction stamps the start, destruction records
/// the duration into the phase histogram and, with tracing on, the
/// thread's ring.  Out-of-line on purpose: the instrumented
/// result-affecting files never see a clock token, which is what keeps
/// them inside the determinism lint's rules.
class ScopedSpan {
 public:
  explicit ScopedSpan(Phase phase);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t start_nanos_ = 0;
  Phase phase_;
};

/// Binds a request id to the calling thread for the scope's lifetime, so
/// every span recorded inside carries it.  A scope opened while an id is
/// already bound keeps the outer id (the daemon binds one per frame;
/// CachingSolver::solve opens one only for direct CLI callers).
class RequestScope {
 public:
  RequestScope();
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_ = 0;
  bool opened_ = false;
};

/// The id bound by the innermost RequestScope on this thread (0 = none;
/// pool workers executing spawned subtasks run unbound).
[[nodiscard]] std::uint64_t current_request_id() noexcept;

}  // namespace dsp::obs
