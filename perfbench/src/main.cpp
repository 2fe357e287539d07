// perfbench — one run of the dsp_served serving benchmark.
//
// Launched by run.py, which builds the program and passes the workload's
// parameters from workloads.json as flags.  One run:
//
//   1. (working-set workloads) an untimed daemon solves the working set
//      and persists it; the timed daemons boot from that state directory;
//   2. set-up: the daemon is launched kSetupRuns times, each timed from
//      spawn to its ready row; the last launch serves;
//   3. open-loop load over the workload's reused connections: the
//      nominal rate (the ladder's first rung) runs longest and gives
//      p50/p99 and cpu_ms; a bisection over the rungs above it gives
//      max_rate_rps; every answer is checked (checker.hpp) after its step;
//   4. with --trace 1, the traced in-process replay (traced.hpp) of the
//      nominal step's first --replay requests, whose answers must equal
//      the served ones byte for byte.
//
// Prints rows in the shared schema (common.hpp), then one JSON line with
// every metric of the run; run.py selects the end-to-end or per-layer set.

#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "checker.hpp"
#include "daemon_process.hpp"
#include "loadgen.hpp"
#include "requests.hpp"
#include "service/frame_codec.hpp"
#include "traced.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
namespace service = dsp::service;

/// The value following `flag` in the daemon's flag list, or `fallback`.
[[nodiscard]] std::string flag_value(const std::vector<std::string>& flags,
                                     const std::string& flag,
                                     const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < flags.size(); ++i) {
    if (flags[i] == flag) return flags[i + 1];
  }
  return fallback;
}

/// Parses a Prometheus-style exposition into name -> value (counters and
/// gauges only; the daemon prefixes names with "dsp_" and maps '.' to '_').
[[nodiscard]] std::map<std::string, double> parse_exposition(
    const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || line.find('{') != std::string::npos) {
      continue;
    }
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

[[nodiscard]] std::map<std::string, double> fetch_metrics(LoadGenerator& gen) {
  const auto [type, payload] =
      gen.roundtrip(service::frame::kMetrics, std::string());
  if (type != service::frame::kMetricsOk) {
    throw std::runtime_error("metrics frame refused");
  }
  return parse_exposition(
      service::frame::decode_metrics(payload, "metrics frame"));
}

/// Launches timed per run; setup_s is their median.
constexpr std::size_t kSetupRuns = 11;
/// Untimed warm-up at the nominal rate before the ladder.
constexpr double kWarmupSeconds = 1.0;
/// Share of --seconds the nominal step runs; the bisection probes split
/// the rest.
constexpr double kNominalShare = 0.6;
/// A run whose generator sent its nominal requests later than this (p99)
/// is invalid: the schedule, not the daemon, would set the latencies.
constexpr double kLateLimitMs = 25.0;

struct StepVerdict {
  double rate = 0.0;
  std::size_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  bool backlog_grew = false;
  bool passed = false;
  bool retry = false;  ///< the second probe of a rung
};

int run(const Args& args) {
  const WorkloadSpec spec = WorkloadSpec::from_args(args);
  const RequestSource source(spec);
  const std::string daemon_binary = args.str("daemon");
  const fs::path workdir = args.str("workdir");
  const double seconds = args.num("seconds");
  const bool trace = args.str("trace") == "1";
  // Ascending rates; the first is the nominal one.
  const std::vector<double> ladder = args.nums("ladder");
  const double nominal = ladder.front();
  const double limit_ms = args.num("limit-ms");
  const std::string persist = args.str("persist");  // none | cold | warm
  const std::vector<std::string> daemon_flags = args.words("daemon-flags", ' ');
  // Checker threads: one per hardware thread.  Connections: the workload's
  // count, at most one per hardware thread.
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t connections = std::clamp<std::size_t>(
      static_cast<std::size_t>(args.num("connections")), 1, threads);

  fs::remove_all(workdir);
  fs::create_directories(workdir);
  const fs::path state = workdir / "state";
  const std::string stderr_log = (workdir / "dsp_served.stderr").string();

  service::ServeParams serve;
  serve.engine = flag_value(daemon_flags, "--engine", "portfolio") == "solve54"
                     ? service::ServeEngine::kSolve54
                     : service::ServeEngine::kPortfolio;
  const std::size_t cache_mb =
      std::stoul(flag_value(daemon_flags, "--cache-mb", "64"));
  const std::size_t snapshot_every =
      std::stoul(flag_value(daemon_flags, "--snapshot-every", "256"));
  std::vector<std::string> launch_flags = daemon_flags;
  if (persist != "none") {
    launch_flags.push_back("--persist");
    launch_flags.push_back(state.string());
  }

  // 1. Working-set workloads: fill the state directory, untimed.
  if (persist == "warm") {
    DaemonProcess filler(daemon_binary, launch_flags, stderr_log);
    LoadGenerator gen(filler.port(), connections);
    const StepResult fill = gen.run_step(
        [&](std::size_t id) {
          return RequestSource::frame(source.fill_request(id));
        },
        0, 1e6, static_cast<double>(spec.working_set) * 1e-6, 120.0,
        spec.working_set);
    for (const Sample& s : fill.samples) {
      if (s.done == 0 || s.type != service::frame::kSolveOk) {
        throw std::runtime_error("filling the working set failed");
      }
    }
    if (!filler.stop()) throw std::runtime_error("fill daemon did not drain");
  }

  // 2. Set-up time: median over several launches; the last one serves.
  std::vector<double> setups;
  std::unique_ptr<DaemonProcess> daemon;
  for (std::size_t r = 0; r < kSetupRuns; ++r) {
    if (daemon) daemon->stop();
    daemon.reset();
    if (persist == "cold") fs::remove_all(state);
    daemon = std::make_unique<DaemonProcess>(daemon_binary, launch_flags,
                                             stderr_log);
    setups.push_back(daemon->setup_seconds());
  }

  // 3. The load steps, after an untimed warm-up at the nominal rate (the
  // solver's auto-tuner and the daemon's allocator settle; its answers are
  // still checked).
  AnswerChecker checker(source, serve);
  LoadGenerator gen(daemon->port(), connections);
  const auto build = [&](std::size_t index) {
    return RequestSource::frame(source.request(index));
  };
  // A step is given up once four latency limits' worth of its requests
  // wait unanswered: every later request would miss the limit anyway.
  const auto max_backlog = [&](double rate) {
    return std::max<std::size_t>(
        64, static_cast<std::size_t>(4.0 * rate * limit_ms * 1e-3));
  };
  std::size_t next_index = 0;
  CheckSummary all_checks;
  {
    const StepResult warmup = gen.run_step(build, next_index, nominal,
                                           kWarmupSeconds, 30.0,
                                           max_backlog(nominal));
    if (warmup.timed_out) throw std::runtime_error("warm-up timed out");
    next_index += warmup.samples.size();
    all_checks.merge(checker.check(warmup, threads));
  }
  const std::map<std::string, double> before = fetch_metrics(gen);
  std::vector<StepVerdict> verdicts;
  StepResult nominal_step;
  CheckSummary nominal_checks;
  double nominal_cpu_s = 0.0;
  bool broken = false;
  const auto run_rate = [&](double rate, double step_seconds) {
    const bool is_nominal = verdicts.empty();
    const double cpu_before = daemon->cpu_seconds();
    StepResult step =
        gen.run_step(build, next_index, rate, step_seconds,
                     std::max(10.0, step_seconds), max_backlog(rate));
    if (is_nominal) nominal_cpu_s = daemon->cpu_seconds() - cpu_before;
    next_index += step.samples.size();
    const CheckSummary checks = checker.check(step, threads);
    all_checks.merge(checks);
    StepVerdict v;
    v.rate = rate;
    v.retry = !verdicts.empty() && verdicts.back().rate == rate;
    v.failed = checks.failed();
    std::vector<double> latencies;
    for (const Sample& s : step.samples) {
      if (s.done != 0 && s.type == service::frame::kSolveOk) {
        latencies.push_back(s.latency_ms());
      }
    }
    // A failed request misses every latency limit.
    for (std::size_t i = 0; i < v.failed; ++i) latencies.push_back(1e300);
    v.p50_ms = median(latencies);
    v.p99_ms = quantile(latencies, 0.99);
    std::vector<double> late;
    for (const Sample& s : step.samples) late.push_back(s.late_ms());
    v.late_p99_ms = quantile(late, 0.99);
    // Growing: the second half of the step added more than 5% of its
    // requests to the backlog, which by its end held more than a latency
    // limit's worth of them.
    const auto backlog_end = static_cast<double>(step.backlog_end);
    v.backlog_grew =
        backlog_end > static_cast<double>(step.backlog_mid) +
                          0.05 * static_cast<double>(step.samples.size()) &&
        backlog_end > rate * limit_ms * 1e-3;
    v.passed = !step.timed_out && !step.aborted && v.failed == 0 &&
               v.p99_ms <= limit_ms && !v.backlog_grew;
    verdicts.push_back(v);
    broken = step.timed_out;  // answers in flight: connections unusable
    if (is_nominal) {
      nominal_checks = checks;
      nominal_step = std::move(step);
    }
    return v.passed;
  };
  // The nominal rate (the ladder's first rung) runs first and longest.
  // max_rate_rps is then found by bisection over the rungs above it: a
  // rung that passes rules in every rung below it, one that fails every
  // rung above.  The probes share the rest of --seconds.  Host
  // interference (steal, a late wake-up) can only make a probe fail, never
  // pass, so a rung is ruled out only when a second probe fails too.
  double max_rate = 0.0;
  const bool nominal_passed = run_rate(nominal, seconds * kNominalShare);
  // Read before the probes, whose request count depends on the bisection
  // path: after them the high-water mark measured how the search went.
  const double peak_rss_mb = daemon->peak_rss_mb();
  if (nominal_passed) {
    std::size_t pass = 0;
    std::size_t fail = ladder.size();
    std::size_t probes = 0;
    while ((std::size_t{1} << probes) < ladder.size()) ++probes;
    const double probe_seconds =
        probes == 0 ? 0.0
                    : seconds * (1.0 - kNominalShare) /
                          static_cast<double>(probes);
    while (!broken && fail - pass > 1) {
      const std::size_t mid = pass + (fail - pass) / 2;
      const bool passed = run_rate(ladder[mid], probe_seconds) ||
                          (!broken && run_rate(ladder[mid], probe_seconds));
      (passed ? pass : fail) = mid;
    }
    max_rate = ladder[pass];
  }
  std::map<std::string, double> after;
  if (!broken) after = fetch_metrics(gen);
  const bool drained = daemon->stop();
  daemon.reset();

  // The nominal step's figures.
  std::vector<double> latencies;
  std::vector<double> late;
  for (const Sample& s : nominal_step.samples) {
    if (s.done != 0 && s.type == service::frame::kSolveOk) {
      latencies.push_back(s.latency_ms());
    }
    late.push_back(s.late_ms());
  }
  const std::size_t attempted = nominal_step.samples.size();
  const auto attempted_d = static_cast<double>(attempted);
  const std::size_t failed = nominal_checks.failed();
  double ratio_sum = 0.0;
  for (const auto& [id, ratio] : nominal_checks.ratio) ratio_sum += ratio;
  const double peak_ratio =
      nominal_checks.ratio.empty()
          ? 0.0
          : ratio_sum / static_cast<double>(nominal_checks.ratio.size());
  const double late_p99_ms = quantile(late, 0.99);

  std::vector<std::string> problems = all_checks.problems;
  if (attempted == 0) problems.push_back("the nominal rate never ran");
  if (broken) problems.push_back("a step timed out");
  if (all_checks.wrong + all_checks.errors > 0) {
    problems.push_back(std::to_string(all_checks.wrong + all_checks.errors) +
                       " wrong or error answers");
  }
  if (late_p99_ms > kLateLimitMs) {
    problems.push_back("generator ran late: p99 " + json_number(late_p99_ms) +
                       " ms > " + json_number(kLateLimitMs) + " ms");
  }
  if (!drained) problems.push_back("dsp_served did not drain cleanly");

  RowSink rows(spec.name, std::cout);
  rows.set_checksum(nominal_checks.checksum);
  std::map<std::string, double> metrics;
  const auto put = [&](const std::string& layer, const std::string& name,
                       double value, const std::string& unit,
                       double spread = 0.0) {
    metrics[name] = value;
    rows.add(layer, name, value, unit, spread);
  };
  put("e2e", "setup_s", median(setups), "s", relative_iqr(setups));
  // Exact order statistics over every answered request of the nominal step.
  put("e2e", "p50_ms", median(latencies), "ms");
  put("e2e", "p99_ms", quantile(latencies, 0.99), "ms");
  put("e2e", "max_rate_rps", max_rate, "1/s");
  put("e2e", "failed_frac",
      attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted_d, "frac");
  put("e2e", "peak_rss_mb", peak_rss_mb, "MiB");
  put("e2e", "cpu_ms", attempted == 0 ? 0.0 : nominal_cpu_s * 1e3 / attempted_d,
      "ms");
  put("e2e", "peak_ratio", peak_ratio, "ratio");
  put("e2e", "samples", static_cast<double>(latencies.size()), "count");
  put("e2e", "top_percentile", resolvable_percentile(latencies.size()), "pct");
  put("generator", "late_p99_ms", late_p99_ms, "ms");
  put("generator", "late_max_ms", quantile(late, 1.0), "ms");
  for (const StepVerdict& v : verdicts) {
    const std::string at = "@" + json_number(v.rate) + (v.retry ? "#2" : "");
    rows.add("ladder", "p50_ms" + at, v.p50_ms, "ms");
    rows.add("ladder", "p99_ms" + at, v.p99_ms, "ms");
    rows.add("ladder", "late_p99_ms" + at, v.late_p99_ms, "ms");
    rows.add("ladder", "failed" + at, static_cast<double>(v.failed), "count");
    rows.add("ladder", "passed" + at, v.passed ? 1.0 : 0.0, "bool");
  }

  if (trace) {
    // Counts read from the daemon's own metrics frame over the timed phase.
    const auto delta = [&](const std::string& name) {
      const std::string key = "dsp_" + name;
      const double b = before.count(key) ? before.at(key) : 0.0;
      const double a = after.count(key) ? after.at(key) : 0.0;
      return a - b;
    };
    const auto gauge = [&](const std::string& name) {
      const std::string key = "dsp_" + name;
      return after.count(key) ? after.at(key) : 0.0;
    };
    put("runtime/admission", "admission.queued", delta("admission_queued"),
        "count");
    put("runtime/admission", "admission.peak_waiting",
        gauge("admission_peak_waiting"), "count");
    put("service/daemon", "daemon.shed", delta("daemon_shed"), "count");
    put("service/daemon", "daemon.misses", delta("cache_misses"), "count");
    put("service/cache", "cache.inflight_joins", delta("cache_inflight_joins"),
        "count");
    put("service/cache", "cache.evictions", delta("cache_evictions"), "count");
    put("service/cache", "cache.bytes", gauge("cache_bytes"), "bytes");
    put("service/persist", "persist.appends", delta("persist_appends"),
        "count");
    put("service/persist", "persist.compactions", delta("persist_compactions"),
        "count");

    ReplayOptions replay;
    replay.serve = serve;
    replay.cache.capacity_bytes = cache_mb << 20;
    replay.snapshot_every = snapshot_every;
    if (persist != "none") {
      replay.persist_dir = (workdir / "replay-state").string();
    }
    if (persist == "warm") replay.warm_from = state.string();
    const std::size_t replay_count = std::min<std::size_t>(
        static_cast<std::size_t>(args.num("replay")), attempted);
    const std::size_t first =
        attempted == 0 ? 0 : nominal_step.samples.front().index;
    const ReplayResult result =
        traced_replay(source, replay, first, replay_count);

    for (std::size_t i = 0; i < replay_count; ++i) {
      const Sample& s = nominal_step.samples[i];
      const std::string_view replayed = result.payloads[i];
      const bool same =
          !replayed.empty() &&
          static_cast<std::uint8_t>(replayed[0]) == s.head &&
          fnv1a(replayed.substr(1)) == s.body_hash;
      if (s.type == service::frame::kSolveOk && !same) {
        problems.push_back("request " + std::to_string(s.index) +
                           ": replayed answer differs from the served bytes");
        break;
      }
    }
    for (const Row& row : result.rows) {
      put(row.layer, row.metric, row.value, row.unit);
    }
    // Served p50 at the lowest rate (the nominal one) minus in-process p50.
    put("service/daemon", "daemon.overhead_us",
        metrics.at("p50_ms") * 1e3 - result.service_p50_us, "us");
    // The layer spans must account for at least 95% of service time.
    if (result.unattributed_frac > 0.05) {
      problems.push_back("layer spans cover only " +
                         json_number(100.0 * (1.0 - result.unattributed_frac)) +
                         "% of service time");
    }
  }

  rows.print();
  for (const std::string& p : problems) std::cerr << "perfbench: " << p << "\n";
  std::cout << "{\"correct\":" << (problems.empty() ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  bool first_metric = true;
  for (const auto& [name, value] : metrics) {
    std::cout << (first_metric ? "" : ",") << json_string(name) << ":"
              << json_number(value);
    first_metric = false;
  }
  std::cout << "}}\n";
  std::error_code ignored;
  fs::remove_all(workdir, ignored);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
