#include "checker.hpp"

#include <algorithm>
#include <thread>

#include "service/frame_codec.hpp"

namespace perfbench {

namespace service = dsp::service;
namespace frame = dsp::service::frame;

std::int64_t lower_bound(const dsp::Instance& instance) {
  const std::int64_t w = instance.strip_width();
  std::int64_t area = 0;
  std::int64_t tallest = 0;
  std::int64_t wide = 0;
  for (const dsp::Item& item : instance.items()) {
    area += item.width * item.height;
    tallest = std::max(tallest, item.height);
    if (2 * item.width > w) wide += item.height;
  }
  return std::max({(area + w - 1) / w, tallest, wide});
}

void CheckSummary::merge(const CheckSummary& other) {
  ok += other.ok;
  busy += other.busy;
  errors += other.errors;
  wrong += other.wrong;
  timeouts += other.timeouts;
  for (const std::string& p : other.problems) {
    if (problems.size() < 5) problems.push_back(p);
  }
  ratio.insert(other.ratio.begin(), other.ratio.end());
}

AnswerChecker::AnswerChecker(const RequestSource& source,
                             const service::ServeParams& params)
    : source_(source) {
  service::ServeParams reference_params = params;
  reference_params.bypass_cache = source.spec().working_set == 0;
  reference_ = std::make_unique<service::CachingSolver>(reference_params);
}

namespace {

/// "" when `answer` is a correct packing of `instance`, else why not.
[[nodiscard]] std::string verify(const dsp::Instance& instance,
                                 const service::SolveResponse& answer) {
  const std::int64_t w = instance.strip_width();
  if (answer.packing.start.size() != instance.size()) {
    return "answer has " + std::to_string(answer.packing.start.size()) +
           " starts for " + std::to_string(instance.size()) + " items";
  }
  std::vector<std::int64_t> delta(static_cast<std::size_t>(w) + 1, 0);
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const dsp::Item& item = instance.item(i);
    const std::int64_t s = answer.packing.start[i];
    if (s < 0 || s > w - item.width) {
      return "item " + std::to_string(i) + " starts at " + std::to_string(s) +
             " outside [0, " + std::to_string(w - item.width) + "]";
    }
    delta[static_cast<std::size_t>(s)] += item.height;
    delta[static_cast<std::size_t>(s + item.width)] -= item.height;
  }
  std::int64_t load = 0;
  std::int64_t peak = 0;
  for (std::int64_t x = 0; x < w; ++x) {
    load += delta[static_cast<std::size_t>(x)];
    peak = std::max(peak, load);
  }
  if (peak != answer.peak) {
    return "reported peak " + std::to_string(answer.peak) +
           " but the starts give " + std::to_string(peak);
  }
  if (peak < lower_bound(instance)) {
    return "peak " + std::to_string(peak) + " below the lower bound";
  }
  return "";
}

}  // namespace

CheckSummary AnswerChecker::check(const StepResult& step,
                                  std::size_t threads) {
  const std::size_t count = step.samples.size();
  std::vector<CheckSummary> parts(std::max<std::size_t>(1, threads));
  std::vector<std::uint64_t> hashes(count, 0);
  const auto work = [&](std::size_t part) {
    CheckSummary& summary = parts[part];
    for (std::size_t i = part; i < count; i += parts.size()) {
      const Sample& sample = step.samples[i];
      const std::string where = "request " + std::to_string(sample.index);
      if (sample.done == 0) {
        ++summary.timeouts;
        continue;
      }
      if (sample.type == frame::kBusy) {
        ++summary.busy;
        continue;
      }
      if (sample.type != frame::kSolveOk) {
        ++summary.errors;
        if (summary.problems.size() < 5) {
          summary.problems.push_back(where + ": error response");
        }
        continue;
      }
      // The served bytes must equal the reference answer's encoding (the
      // cache-outcome byte aside: it says how the daemon found the answer,
      // not what the answer is), and the reference answer must pass the
      // independent checks — together, the served answer passes them.
      std::string problem;
      const Request request = source_.request(sample.index);
      const dsp::Instance instance = request.wire.to_instance();
      const service::SolveResponse expected = reference_->solve(instance);
      const std::string bytes = frame::encode_solve_ok(expected);
      if (fnv1a(std::string_view(bytes).substr(1)) != sample.body_hash) {
        problem = "answer differs from the in-process reference";
      } else {
        problem = verify(instance, expected);
      }
      if (!problem.empty()) {
        ++summary.wrong;
        if (summary.problems.size() < 5) {
          summary.problems.push_back(where + ": " + problem);
        }
        continue;
      }
      ++summary.ok;
      hashes[i] = sample.body_hash;
      summary.ratio[request.instance_id] =
          static_cast<double>(expected.peak) /
          static_cast<double>(lower_bound(instance));
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t part = 1; part < parts.size(); ++part) {
    pool.emplace_back(work, part);
  }
  work(0);
  for (std::thread& t : pool) t.join();

  CheckSummary total;
  for (const CheckSummary& part : parts) total.merge(part);
  for (const std::uint64_t h : hashes) {
    total.checksum = fnv1a(std::to_string(h), total.checksum);
  }
  return total;
}

}  // namespace perfbench
