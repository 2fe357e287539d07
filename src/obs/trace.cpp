// The one file under src/obs allowed to read a clock: every steady-clock
// call the observability layer makes lives here, out of line, so the
// instrumented result-affecting files never contain a clock token and the
// determinism lint's obs pass (tools/lint_determinism.py) can pin the
// allowlist to exactly this file.

#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <ostream>

namespace dsp::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};
std::atomic<bool> g_tracing_enabled{false};
#ifndef DSP_OBS_NOOP  // span types are compiled away entirely under NOOP
std::atomic<std::uint64_t> g_next_request_id{0};
thread_local std::uint64_t t_request_id = 0;

[[nodiscard]] std::uint64_t now_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif  // DSP_OBS_NOOP

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(Phase::kCount)>
    kPhaseNames = {
        "request",        "admission_wait", "solve",   "cache_lookup",
        "inflight_join",  "lower_bound",    "bisection_round",
        "attempt",        "witness",        "pricing_round",
        "lp_resolve",
};

}  // namespace

std::string_view phase_name(Phase phase) noexcept {
  const auto index = static_cast<std::size_t>(phase);
  return index < kPhaseNames.size() ? kPhaseNames[index] : "unknown";
}

Histogram& phase_histogram(Phase phase) {
  static const std::array<Histogram*, static_cast<std::size_t>(Phase::kCount)>
      table = [] {
        std::array<Histogram*, static_cast<std::size_t>(Phase::kCount)> t{};
        for (std::size_t i = 0; i < t.size(); ++i) {
          t[i] = &Registry::global().histogram(
              "phase." + std::string(kPhaseNames[i]) + "_nanos");
        }
        return t;
      }();
  return *table[static_cast<std::size_t>(phase)];
}

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}
bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool enabled) noexcept {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}
bool tracing_enabled() noexcept {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

struct Tracer::ThreadBuffer {
  struct SpanRecord {
    std::uint64_t start_nanos = 0;
    std::uint64_t dur_nanos = 0;
    std::uint64_t request_id = 0;
    Phase phase = Phase::kRequest;
  };

  runtime::Mutex mutex;
  std::array<SpanRecord, kRingCapacity> spans DSP_GUARDED_BY(mutex){};
  /// Next write slot; wraps at kRingCapacity.
  std::size_t head DSP_GUARDED_BY(mutex) = 0;
  /// Appends ever made; retained = min(recorded, capacity), the rest were
  /// overwritten (dropped).
  std::uint64_t recorded DSP_GUARDED_BY(mutex) = 0;
  std::uint32_t tid = 0;
};

Tracer::Tracer() {
  static std::atomic<std::uint64_t> next_id{1};
  tracer_id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

Tracer::~Tracer() = default;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::buffer_for_this_thread() {
  // Per-thread cached buffer handle.  Buffers are owned by (and never
  // removed from) their tracer, so the cached pointer stays valid for the
  // thread's whole lifetime.  The handle keys on the tracer's unique id,
  // not its address: a destroyed tracer's address can be reused by the
  // next one (stack-allocated tracers in tests), and a stale pointer match
  // would hand out the dead tracer's freed buffer.
  struct Handle {
    std::uint64_t tracer_id = 0;
    ThreadBuffer* buffer = nullptr;
  };
  thread_local Handle handle;
  if (handle.tracer_id != tracer_id_) {
    const runtime::MutexLock lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = next_tid_++;
    handle = {tracer_id_, buffers_.back().get()};
  }
  return *handle.buffer;
}

void Tracer::append(Phase phase, std::uint64_t start_nanos,
                    std::uint64_t dur_nanos, std::uint64_t request_id) {
  ThreadBuffer& buffer = buffer_for_this_thread();
  const runtime::MutexLock lock(buffer.mutex);
  buffer.spans[buffer.head] =
      ThreadBuffer::SpanRecord{start_nanos, dur_nanos, request_id, phase};
  buffer.head = (buffer.head + 1) % kRingCapacity;
  ++buffer.recorded;
}

std::uint64_t Tracer::spans_recorded() const {
  std::uint64_t total = 0;
  const runtime::MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    const runtime::MutexLock buffer_lock(buffer->mutex);
    total += buffer->recorded;
  }
  return total;
}

std::uint64_t Tracer::spans_dropped() const {
  std::uint64_t total = 0;
  const runtime::MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    const runtime::MutexLock buffer_lock(buffer->mutex);
    if (buffer->recorded > kRingCapacity) {
      total += buffer->recorded - kRingCapacity;
    }
  }
  return total;
}

std::uint64_t Tracer::ring_bytes() const {
  const runtime::MutexLock lock(mutex_);
  return buffers_.size() * sizeof(ThreadBuffer);
}

void Tracer::clear() {
  const runtime::MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    const runtime::MutexLock buffer_lock(buffer->mutex);
    buffer->head = 0;
    buffer->recorded = 0;
  }
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  struct Event {
    std::uint64_t start_nanos;
    std::uint64_t dur_nanos;
    std::uint64_t request_id;
    std::uint32_t tid;
    Phase phase;
  };
  std::vector<Event> events;
  {
    const runtime::MutexLock lock(mutex_);
    for (const auto& buffer : buffers_) {
      const runtime::MutexLock buffer_lock(buffer->mutex);
      const std::size_t retained = static_cast<std::size_t>(
          std::min<std::uint64_t>(buffer->recorded, kRingCapacity));
      // Oldest retained span first: on a wrapped ring that is `head` (the
      // slot the next append would overwrite).
      const std::size_t oldest =
          buffer->recorded > kRingCapacity ? buffer->head : 0;
      for (std::size_t i = 0; i < retained; ++i) {
        const auto& span = buffer->spans[(oldest + i) % kRingCapacity];
        events.push_back(Event{span.start_nanos, span.dur_nanos,
                               span.request_id, buffer->tid, span.phase});
      }
    }
  }
  std::uint64_t base = 0;
  if (!events.empty()) {
    base = std::min_element(events.begin(), events.end(),
                            [](const Event& a, const Event& b) {
                              return a.start_nanos < b.start_nanos;
                            })
               ->start_nanos;
  }
  // Microseconds with nanosecond precision, the trace-event format's
  // native unit; rendered as exact fixed-point from integers (never
  // scientific notation, which some trace consumers reject).
  const auto micros = [](std::uint64_t nanos) {
    return std::to_string(nanos / 1000) + "." +
           std::to_string((nanos % 1000) / 100) +
           std::to_string((nanos % 100) / 10) + std::to_string(nanos % 10);
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* sep = "\n";
  for (const Event& event : events) {
    os << sep << "{\"name\":\"" << phase_name(event.phase)
       << "\",\"cat\":\"dsp\",\"ph\":\"X\",\"ts\":"
       << micros(event.start_nanos - base) << ",\"dur\":"
       << micros(event.dur_nanos) << ",\"pid\":0,\"tid\":" << event.tid
       << ",\"args\":{\"request_id\":" << event.request_id << "}}";
    sep = ",\n";
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------------
// ScopedSpan / RequestScope.
// ---------------------------------------------------------------------------

#ifndef DSP_OBS_NOOP

ScopedSpan::ScopedSpan(Phase phase) : ScopedSpan(phase, nullptr) {}

ScopedSpan::ScopedSpan(Phase phase, std::uint64_t* accumulate_nanos)
    : accumulate_(accumulate_nanos), phase_(phase) {
  if (metrics_enabled() || tracing_enabled()) {
    armed_ = true;
    start_nanos_ = now_nanos();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  const std::uint64_t dur = now_nanos() - start_nanos_;
  if (accumulate_ != nullptr) *accumulate_ += dur;
  if (metrics_enabled()) phase_histogram(phase_).record(dur);
  if (tracing_enabled()) {
    Tracer::global().append(phase_, start_nanos_, dur, t_request_id);
  }
}

RequestScope::RequestScope() {
  if (t_request_id == 0) {
    id_ = g_next_request_id.fetch_add(1, std::memory_order_relaxed) + 1;
    t_request_id = id_;
    opened_ = true;
  } else {
    id_ = t_request_id;
  }
}

RequestScope::~RequestScope() {
  if (opened_) t_request_id = 0;
}

std::uint64_t current_request_id() noexcept { return t_request_id; }

#endif  // DSP_OBS_NOOP

}  // namespace dsp::obs
